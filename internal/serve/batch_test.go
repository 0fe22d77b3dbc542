package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/rules"
	"dynalloc/internal/simfs"
	"dynalloc/internal/stats"
	"dynalloc/internal/wal"
)

// recEvent is one observed hook call.
type recEvent struct {
	op  wal.Op
	bin int
}

// recHook records every hook call as per-ball events, in order, and
// every OnAllocRun run (copying the scratch-owned slice, as the
// StoreHook contract requires).
type recHook struct {
	events []recEvent
	runs   [][]int
}

func (h *recHook) OnFree(bin int)     { h.events = append(h.events, recEvent{wal.OpFree, bin}) }
func (h *recHook) OnCrash(bin, k int) { h.events = append(h.events, recEvent{wal.OpCrash, bin}) }
func (h *recHook) OnAllocRun(bins []int) {
	h.runs = append(h.runs, append([]int(nil), bins...))
	for _, b := range bins {
		h.events = append(h.events, recEvent{wal.OpAlloc, b})
	}
}

// shipped policies for the equivalence battery, keyed by name.
func shippedPolicies() []Policy {
	return []Policy{
		NewABKUPolicy(1),
		NewABKUPolicy(2),
		NewABKUPolicy(3),
		NewADAPPolicy(rules.SliceThresholds{1, 2, 2, 3}),
		NewMixedPolicy(0.5),
	}
}

// TestAdmitBatchMatchesSequentialAllocs is the core property test:
// over randomized load vectors, shard geometries and batch contents
// (duplicates included), one AdmitBatch of k balls must be
// observationally equivalent to k AdmitBatch passes of one ball each —
// same final state and counters, same per-ball load results, same
// hook events in the same order, every pass of one a run of one — and
// the batch must reach the hook as one OnAllocRun holding its bins in
// entry order.
func TestAdmitBatchMatchesSequentialAllocs(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rng.New(0xBA7C4 + uint64(trial))
		n := 1 + r.Intn(200)
		shards := 1 << r.Intn(5)
		if shards > n {
			shards = 1
		}
		batchStore := NewStoreShards(n, shards)
		seqStore := NewStoreShards(n, shards)
		// Random initial fill, identical on both stores.
		for b := 0; b < n; b++ {
			if k := r.Intn(4); k > 0 {
				batchStore.Crash(b, k)
				seqStore.Crash(b, k)
			}
		}
		bh := &recHook{}
		sh := &recHook{}
		batchStore.SetHook(bh)
		seqStore.SetHook(sh)

		k := 1 + r.Intn(300)
		bins := make([]int, k)
		for i := range bins {
			bins[i] = r.Intn(n)
		}
		batchLoads := make([]int32, k)
		if err := batchStore.AdmitBatch(bins, batchLoads); err != nil {
			t.Fatal(err)
		}

		seqLoads := make([]int32, k)
		for i, b := range bins {
			seqLoads[i] = int32(admitOne(seqStore, b))
		}

		if len(sh.runs) != k {
			t.Fatalf("trial %d: %d passes of one produced %d runs", trial, k, len(sh.runs))
		}

		// Final state and counters agree exactly.
		if !reflect.DeepEqual(batchStore.LoadsCopy(), seqStore.LoadsCopy()) {
			t.Fatalf("trial %d: loads diverge\nbatch=%v\nseq=%v", trial, batchStore.LoadsCopy(), seqStore.LoadsCopy())
		}
		bs, ss := batchStore.Stats(), seqStore.Stats()
		if bs != ss {
			t.Fatalf("trial %d: stats diverge: batch=%+v seq=%+v", trial, bs, ss)
		}

		// Per-ball load results: the batch applies in entry order, so
		// every ball sees exactly the load its pass of one saw.
		if !reflect.DeepEqual(batchLoads, seqLoads) {
			t.Fatalf("trial %d: per-ball loads diverge: batch=%v seq=%v", trial, batchLoads, seqLoads)
		}

		// Hook events: the same sequence, and the batch is one run of
		// its bins in entry order.
		if !reflect.DeepEqual(bh.events, sh.events) {
			t.Fatalf("trial %d: hook events diverge: batch=%v seq=%v", trial, bh.events, sh.events)
		}
		if len(bh.runs) != 1 || !reflect.DeepEqual(bh.runs[0], bins) {
			t.Fatalf("trial %d: the batch reached the hook as runs %v, want one run %v", trial, bh.runs, bins)
		}
	}
}

// TestPickBatchMatchesSequentialPicks pins the strongest form of the
// pass-size equivalence: from the same stream, one pass of k picks is
// bit-identical to k passes of one.
func TestPickBatchMatchesSequentialPicks(t *testing.T) {
	st := loadStore(statLoads, 4)
	for _, pol := range shippedPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			r1 := rng.New(0x9E1EC7)
			r2 := rng.New(0x9E1EC7)
			batched := make([]int, 257)
			probes := pol.PickBatch(st, r1, batched)
			seqProbes := 0
			for i := range batched {
				b, m := pickOne(pol, st, r2)
				seqProbes += m
				if b != batched[i] {
					t.Fatalf("choice %d: batch=%d sequential=%d", i, batched[i], b)
				}
			}
			if probes != seqProbes {
				t.Fatalf("probes: batch=%d sequential=%d", probes, seqProbes)
			}
		})
	}
}

// twoSampleChi2 runs a chi-square homogeneity test on two per-bin
// count vectors (null: both samples drawn from the same distribution).
func twoSampleChi2(a, b []int) (stat float64, df int) {
	var na, nb float64
	for i := range a {
		na += float64(a[i])
		nb += float64(b[i])
	}
	for i := range a {
		tot := float64(a[i] + b[i])
		if tot == 0 {
			continue
		}
		ea := tot * na / (na + nb)
		eb := tot * nb / (na + nb)
		stat += (float64(a[i]) - ea) * (float64(a[i]) - ea) / ea
		stat += (float64(b[i]) - eb) * (float64(b[i]) - eb) / eb
		df++
	}
	return stat, df - 1
}

// TestBatchLaneChoiceDistribution drives the full admit path at pass
// size 64 (PickBatch + AdmitBatch, undone after every batch so the load
// vector stays frozen and the null hypothesis is exact) against the
// same path at pass size 1 under an independent stream, and requires the
// destination distributions to agree by chi-square homogeneity for
// every shipped policy. The bit-equality test above is stronger for
// the pick path alone; this one exercises the whole lane, including
// the store apply.
func TestBatchLaneChoiceDistribution(t *testing.T) {
	const batch = 64
	for _, pol := range shippedPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			st := loadStore(statLoads, 4)
			r1 := rng.New(0xC0117)
			r2 := rng.New(0xD157)

			batchCounts := make([]int, st.N())
			bins := make([]int, batch)
			for drawn := 0; drawn < statDraws; drawn += batch {
				pol.PickBatch(st, r1, bins)
				st.AdmitBatch(bins, nil)
				for _, b := range bins {
					batchCounts[b]++
					if _, err := st.FreeBin(b); err != nil { // undo
						t.Fatal(err)
					}
				}
			}
			seqCounts := make([]int, st.N())
			for d := 0; d < statDraws; d++ {
				b, _ := pickOne(pol, st, r2)
				admitOne(st, b)
				seqCounts[b]++
				if _, err := st.FreeBin(b); err != nil {
					t.Fatal(err)
				}
			}
			stat, df := twoSampleChi2(batchCounts, seqCounts)
			p := stats.ChiSquareSurvival(stat, df)
			if p < statAlpha {
				t.Errorf("batched vs sequential choices diverge: chi2=%.2f df=%d p=%.2g\nbatch=%v\nseq=%v",
					stat, df, p, batchCounts, seqCounts)
			}
		})
	}
}

// TestAdmitBatchJournalSeqOrder pins the invariant the crash-schedule
// explorer leans on: with a Journal installed, the WAL records of one
// AdmitBatch land with consecutive seqs in the batch's entry order.
func TestAdmitBatchJournalSeqOrder(t *testing.T) {
	st, j, fs, dir := newJournaled(t, 32, 4, wal.Options{SegmentBytes: 1 << 20})
	bins := []int{0, 31, 8, 0, 16, 9, 24, 1, 1}
	if err := st.AdmitBatch(bins, nil); err != nil {
		t.Fatal(err)
	}
	j.Drain()
	if err := j.Close(); err != nil { // flush the log's write buffer to the fs
		t.Fatal(err)
	}
	var got []int
	if _, err := wal.ReplayPipelineFS(fs, dir, 0, wal.PipelineOptions{
		ApplyBatch: func(_ int, recs []wal.Record) error { // one lane: file order
			for _, rec := range recs {
				got = append(got, int(rec.Bin))
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bins) {
		t.Fatalf("WAL bin sequence %v, want entry order %v", got, bins)
	}
}

// TestPassJournalsFreesThenAdmits: under a SyncWriter journal, one Pass
// of k writes k OpFree records in draw order, then k OpAlloc records in
// entry order, with consecutive seqs — the departures the draw made and
// the destinations the policy picked, as a second store driven by the
// same stream through FreeBall and PickBatch shows them.
func TestPassJournalsFreesThenAdmits(t *testing.T) {
	const n, k = 64, 24
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		t.Run(fmt.Sprintf("%v", sc), func(t *testing.T) {
			fs := simfs.New()
			l, err := wal.Open(wal.Options{Dir: "/wal", Fsync: wal.FsyncNever, FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			st := NewStoreShards(n, 8)
			st.FillBalanced(2 * n)
			j := NewJournal(st, l, 0, JournalOptions{SyncWriter: true})
			pol := NewABKUPolicy(2)
			if got, err := NewBatcher(st, pol, sc, k).Pass(rng.New(5), k); got != k || err != nil {
				t.Fatalf("Pass = %d, %v", got, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			ref := NewStoreShards(n, 8)
			ref.FillBalanced(2 * n)
			r := rng.New(5)
			var want []wal.Record
			for i := 0; i < k; i++ {
				free := ref.FreeBall
				if sc == process.ScenarioB {
					free = ref.FreeNonEmpty
				}
				b, err := free(r)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, wal.Record{Op: wal.OpFree, Bin: uint32(b), K: 1})
			}
			bins := make([]int, k)
			pol.PickBatch(ref, r, bins)
			for _, b := range bins {
				want = append(want, wal.Record{Op: wal.OpAlloc, Bin: uint32(b), K: 1})
			}
			var got []wal.Record
			if _, err := wal.ReplayPipelineFS(fs, "/wal", 0, wal.PipelineOptions{
				ApplyBatch: func(_ int, recs []wal.Record) error {
					got = append(got, recs...)
					return nil
				},
			}); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				want[i].Seq = uint64(i + 1)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("WAL records\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestEngineBatchLaneDrives: the engine's Batch config drives exactly
// MaxSteps phases through the batch lane and preserves mass.
func TestEngineBatchLaneDrives(t *testing.T) {
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		t.Run(fmt.Sprintf("%v", sc), func(t *testing.T) {
			st := NewStoreShards(256, 8)
			st.FillBalanced(256)
			eng := NewEngine(Config{
				Store: st, Policy: NewABKUPolicy(2), Scenario: sc,
				Workers: 1, Seed: 42, MaxSteps: 10_000, Batch: 64,
			})
			res := eng.Run(context.Background())
			if res.Steps != 10_000 {
				t.Fatalf("steps = %d, want 10000", res.Steps)
			}
			if st.Total() != 256 {
				t.Fatalf("total = %d, want 256 (closed loop preserves mass)", st.Total())
			}
			if st.Allocs() != 10_000 || st.Frees() != 10_000 {
				t.Fatalf("allocs=%d frees=%d, want 10000 each", st.Allocs(), st.Frees())
			}
		})
	}
}

// TestEngineBatchDetectorCadence: the detector still fires on the
// CheckEvery cadence when steps advance by whole passes. The pass size
// (48) never lands a step count on a multiple of CheckEvery (100), so
// a naive t%CheckEvery==0 check would never fire; the crossing check
// must stop the drive at the first pass that crosses the boundary.
func TestEngineBatchDetectorCadence(t *testing.T) {
	st := NewStoreShards(64, 4)
	st.FillBalanced(64)
	// A permissive target: the very first check observes recovery.
	det := NewDetector(st, Target{PredictedMax: 64, Slack: 64})
	eng := NewEngine(Config{
		Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
		Workers: 1, Seed: 7, MaxSteps: 100_000, Batch: 48,
		Detector: det, CheckEvery: 100, StopOnRecovery: true,
	})
	res := eng.Run(context.Background())
	if !res.Recovered {
		t.Fatalf("detector never fired: steps=%d", res.Steps)
	}
	// First boundary is step 100; the pass crossing it ends at 144.
	if res.Steps < 100 || res.Steps > 144 {
		t.Fatalf("stopped at step %d, want within the first pass crossing step 100 (100..144)", res.Steps)
	}
}

// TestAdmitBatchConcurrentMixedTraffic is the batch lane's entry in
// the targeted -race leg: AdmitBatch racing FreeBall, FreeNonEmpty,
// FreeBin, Crash, Snapshot, LoadSummary and Detector.Check on one
// store, with full accounting checks at the end (the counters must
// balance exactly — torn counts under concurrency would show up here).
// Check reads the index while every writer updates it, sparse table
// growth included: it may be off by the operations in flight, but it
// must not panic or report a negative field.
func TestAdmitBatchConcurrentMixedTraffic(t *testing.T) {
	const (
		n      = 512
		m      = 2048
		iters  = 400
		batch  = 32
		admitW = 2
	)
	st := NewStoreShards(n, 8)
	st.FillBalanced(m)

	var admitted, freed, crashed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < admitW; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			pol := NewABKUPolicy(2)
			bins := make([]int, batch)
			loads := make([]int32, batch)
			for i := 0; i < iters; i++ {
				pol.PickBatch(st, r, bins)
				st.AdmitBatch(bins, loads)
				admitted.Add(batch)
			}
		}(w)
	}
	wg.Add(1)
	go func() { // Scenario A departures
		defer wg.Done()
		r := rng.New(100)
		for i := 0; i < iters*batch/2; i++ {
			if _, err := st.FreeBall(r); err == nil {
				freed.Add(1)
			}
		}
	}()
	wg.Add(1)
	go func() { // Scenario B departures + targeted frees
		defer wg.Done()
		r := rng.New(200)
		for i := 0; i < iters*batch/2; i++ {
			if i%7 == 0 {
				if _, err := st.FreeBin(r.Intn(n)); err == nil {
					freed.Add(1)
				}
				continue
			}
			if _, err := st.FreeNonEmpty(r); err == nil {
				freed.Add(1)
			}
		}
	}()
	wg.Add(1)
	go func() { // crash injections
		defer wg.Done()
		r := rng.New(300)
		for i := 0; i < iters/4; i++ {
			k := 1 + r.Intn(8)
			if i%16 == 0 {
				k += 2 * denseLevels // onto the sparse levels
			}
			st.Crash(r.Intn(n), k)
			crashed.Add(int64(k))
		}
	}()
	wg.Add(1)
	go func() { // readers
		defer wg.Done()
		det := NewDetector(st, Target{PredictedMax: 8, Slack: 2})
		for i := 0; i < iters; i++ {
			_ = st.Snapshot()
			_ = st.Stats()
			if sum := st.LoadSummary(); sum.MaxLoad < 0 {
				t.Errorf("LoadSummary under traffic: %+v", sum)
			}
			if s := det.Check(); s.MaxLoad < 0 || s.Gap < 0 || s.DeltaTypical < 0 || s.Total < 0 || s.NonEmpty < 0 {
				t.Errorf("Check under traffic reported a negative field: %+v", s)
			}
		}
	}()
	wg.Wait()

	loads := st.LoadsCopy()
	var sum, nonEmpty int64
	for _, l := range loads {
		if l < 0 {
			t.Fatalf("negative load %d", l)
		}
		sum += int64(l)
		if l > 0 {
			nonEmpty++
		}
	}
	if got := st.Total(); got != sum {
		t.Errorf("Total() = %d, sum of loads = %d", got, sum)
	}
	if got := st.NonEmpty(); got != nonEmpty {
		t.Errorf("NonEmpty() = %d, counted %d", got, nonEmpty)
	}
	if got := st.Allocs(); got != admitted.Load() {
		t.Errorf("Allocs() = %d, admitted %d", got, admitted.Load())
	}
	if got := st.Frees(); got != freed.Load() {
		t.Errorf("Frees() = %d, freed %d", got, freed.Load())
	}
	if want := m + admitted.Load() + crashed.Load() - freed.Load(); sum != want {
		t.Errorf("mass: sum=%d, want %d (m + admitted + crashed - freed)", sum, want)
	}
	for i := range st.shards {
		tot := st.shards[i].total
		var shardSum int64
		for b := 0; b < n; b++ {
			if b/st.shardSize == i {
				shardSum += int64(loads[b])
			}
		}
		if tot != shardSum {
			t.Errorf("stripe %d total %d, loads sum %d", i, tot, shardSum)
		}
	}
}
