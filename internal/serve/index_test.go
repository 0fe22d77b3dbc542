package serve

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dynalloc/internal/loadvec"
	"dynalloc/internal/rng"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// linearFreeBall is the reference Scenario A draw the index replaced:
// one variate over the ball total, a walk over the stripe totals, then
// a linear scan of the chosen stripe's bins. Single-threaded only.
func linearFreeBall(st *Store, r *rng.RNG) int {
	target := int64(r.Uint64n(uint64(st.Total())))
	for i := range st.shards {
		sh := &st.shards[i]
		if t := sh.total.Load(); target >= t {
			target -= t
			continue
		}
		for b := sh.lo; b < sh.hi; b++ {
			l := int64(st.loads[b].Load())
			if target < l {
				return b
			}
			target -= l
		}
	}
	panic("linearFreeBall: target past the last ball")
}

func sparseMap(sh *shard) map[int32]uint32 {
	m := map[int32]uint32{}
	if p := sh.sparse.Load(); p != nil {
		for i := range *p {
			if w := (*p)[i].Load(); uint32(w) != 0 {
				if _, dup := m[int32(w>>32)]; dup {
					panic("sparse level listed twice")
				}
				m[int32(w>>32)] = uint32(w)
			}
		}
	}
	return m
}

// checkIndex asserts the four properties the index promises, on a store
// at rest: FreeBall frees the bin (and consumes the randomness) the
// linear scan would, Check equals the Snapshot-derived status field
// for field, LoadSummary's max is the snapshot's, and the incrementally
// maintained index equals one rebuilt from the loads.
func checkIndex(t *testing.T, what string, st *Store, r *rng.RNG) {
	t.Helper()
	for i := 0; i < 6 && st.Total() > 0; i++ {
		ref := *r
		want := linearFreeBall(st, &ref)
		got, err := st.FreeBall(r)
		if err != nil || got != want {
			t.Fatalf("%s: FreeBall draw %d = bin %d (err %v), linear scan says %d", what, i, got, err, want)
		}
		if *r != ref {
			t.Fatalf("%s: FreeBall consumed different randomness than one Uint64n(total)", what)
		}
	}

	target := Target{PredictedMax: 3, Slack: 1}
	v := st.Snapshot()
	want := Status{
		Steps:        st.Allocs(),
		MaxLoad:      v.MaxLoad(),
		Gap:          v.Gap(),
		DeltaTypical: v.Delta(loadvec.Balanced(v.N(), v.Total())),
		PredictedMax: target.PredictedMax,
		TargetMax:    target.MaxLoad(),
		Total:        int64(v.Total()),
		NonEmpty:     int64(v.NonEmpty()),
		Recovered:    v.MaxLoad() <= target.MaxLoad(),
	}
	if got := NewDetector(st, target).Check(); got != want {
		t.Fatalf("%s: Check = %+v, from Snapshot %+v", what, got, want)
	}
	if got := st.LoadSummary().MaxLoad; got != v.MaxLoad() {
		t.Fatalf("%s: LoadSummary max %d, snapshot max %d", what, got, v.MaxLoad())
	}

	loads := make([]int32, st.n)
	for b := range loads {
		loads[b] = st.loads[b].Load()
	}
	ref := NewStoreShards(st.n, len(st.shards))
	if err := ref.Restore(loads, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := range st.shards {
		got, want := &st.shards[i], &ref.shards[i]
		if !slices.Equal(got.sum1, want.sum1) || !slices.Equal(got.sum2, want.sum2) {
			t.Fatalf("%s: stripe %d sums differ from a rebuild", what, i)
		}
		if got.max.Load() != want.max.Load() {
			t.Fatalf("%s: stripe %d max %d, rebuild %d", what, i, got.max.Load(), want.max.Load())
		}
		for l := range got.atLeast {
			if got.atLeast[l].Load() != want.atLeast[l].Load() {
				t.Fatalf("%s: stripe %d counts %d bins at load >= %d, rebuild %d", what, i, got.atLeast[l].Load(), l, want.atLeast[l].Load())
			}
		}
		if bins := int(got.atLeast[0].Load()); bins != got.hi-got.lo {
			t.Fatalf("%s: stripe %d histogram counts %d bins of %d", what, i, bins, got.hi-got.lo)
		}
		gs, ws := sparseMap(got), sparseMap(want)
		if len(gs) != len(ws) {
			t.Fatalf("%s: stripe %d sparse levels %v, rebuild %v", what, i, gs, ws)
		}
		for l, c := range ws {
			if gs[l] != c {
				t.Fatalf("%s: stripe %d sparse levels %v, rebuild %v", what, i, gs, ws)
			}
		}
	}
}

// TestIndexMatchesLinearScan drives every mutation path — departures,
// policy admits, AdmitBatch, Crash, FillBalanced, the three restore
// entry points, moves across the dense/sparse boundary — over stripe
// geometries that include partial runs of
// 64, empty stripes and single-bin stores, with a crash of n/4 and a
// 100 000-ball tower so the sparse levels are in play, and holds the
// index to the linear scans it replaced after every step.
func TestIndexMatchesLinearScan(t *testing.T) {
	for _, n := range []int{1, 7, 100, 5000, 70000} {
		for _, shards := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(t *testing.T) {
				fs := simfs.New()
				l, err := wal.Open(wal.Options{Dir: "/wal", FS: fs, Fsync: wal.FsyncNever, SegmentBytes: 1 << 20})
				if err != nil {
					t.Fatal(err)
				}
				st := NewStoreShards(n, shards)
				j := NewJournal(st, l, 0, JournalOptions{Buffer: 1024})
				r := rng.New(uint64(n*131 + shards))
				pol := NewABKUPolicy(2)

				checkIndex(t, "empty", st, r)
				st.FillBalanced(3 * n / 2)
				checkIndex(t, "filled", st, r)
				st.Crash(r.Intn(n), n/4)
				tower := r.Intn(n)
				st.Crash(tower, 100000)
				checkIndex(t, "crashed", st, r)
				for i := 0; i < 300; i++ {
					switch i % 3 {
					case 0:
						_, err = st.FreeBall(r)
					case 1:
						_, err = st.FreeNonEmpty(r)
					default:
						_, err = st.FreeBin(tower)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				checkIndex(t, "freed", st, r)
				for i := 0; i < 300; i++ {
					b, _ := pickOne(pol, st, r)
					admitOne(st, b)
				}
				checkIndex(t, "admitted", st, r)
				if _, _, err := j.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				var sc AdmitScratch
				bins := make([]int, 64)
				for i := 0; i < 4; i++ {
					pol.PickBatch(st, r, bins)
					st.AdmitBatch(bins, nil, &sc)
				}
				checkIndex(t, "batch-admitted", st, r)
				st.Crash(r.Intn(n), 70) // a second, low sparse level
				st.Crash(tower, 5)
				checkIndex(t, "crashed again", st, r)
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}

				restored := NewStoreShards(n, shards)
				res, err := RestoreFSOpts(restored, fs, "/wal", RestoreOptions{})
				if err != nil || res.Replayed == 0 || res.CheckpointSeq == 0 {
					t.Fatalf("RestoreFSOpts: %+v, %v", res, err)
				}
				assertStoresEqual(t, "RestoreFSOpts", st, restored)
				checkIndex(t, "RestoreFSOpts", restored, r)

				// Restore over a store whose index already holds other
				// state, sparse levels included.
				over := NewStoreShards(n, shards)
				over.FillBalanced(2 * n)
				over.Crash(n-1, 900)
				loads := make([]int32, n)
				for b, l := range st.LoadsCopy() {
					loads[b] = int32(l)
				}
				if err := over.Restore(loads, st.Allocs(), st.Frees()); err != nil {
					t.Fatal(err)
				}
				assertStoresEqual(t, "Restore", st, over)
				checkIndex(t, "Restore", over, r)

				recs := []wal.Record{{Op: wal.OpCrash, Bin: uint32(r.Intn(n)), K: 4000}}
				for i := 0; i < 200; i++ {
					rec := wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(n))}
					switch i % 4 {
					case 1:
						rec.Op = wal.OpFree
					case 2:
						rec = wal.Record{Op: wal.OpFree, Bin: uint32(tower)}
					}
					recs = append(recs, rec)
				}
				for i := range recs {
					recs[i].Seq = uint64(i + 1)
				}
				if _, err := ApplyRecords(over, recs); err != nil {
					t.Fatal(err)
				}
				checkIndex(t, "ApplyRecords", over, r)

				// Unit moves across the dense/sparse boundary, then a load
				// factor that puts the fair share itself past the dense levels.
				edge := r.Intn(n)
				over.Crash(edge, max(denseLevels-2-over.Load(edge), 0))
				for i := 0; i < 4; i++ {
					admitOne(over, edge)
				}
				for i := 0; i < 3; i++ {
					if _, err := over.FreeBin(edge); err != nil {
						t.Fatal(err)
					}
				}
				checkIndex(t, "boundary", over, r)
				over.FillBalanced(70 * n)
				checkIndex(t, "load factor 70", over, r)
			})
		}
	}
}

// TestStoreReadsScaleSublinearly holds the three reads the index serves
// to their claim: going from n = 2^14 to n = 2^20 bins at 8 stripes
// multiplies n by 64 and must not multiply the cost of a PROBE digest,
// a Scenario A phase or a detector check by more than 8. (The linear
// scans sat at about 56x, 41x and 34x.) A ratio of two timings taken
// back to back on one machine does not depend on the runner's speed.
func TestStoreReadsScaleSublinearly(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	type timing struct{ summary, phase, check time.Duration }
	measure := func(n int) timing {
		st := NewStoreShards(n, 8)
		st.FillBalanced(n)
		det := NewDetector(st, Target{PredictedMax: 3, Slack: 1})
		r := rng.New(42)
		// best of 5 rounds: a ratio test must not trip on one preemption
		best := timing{summary: time.Hour, phase: time.Hour, check: time.Hour}
		for round := 0; round < 5; round++ {
			t0 := time.Now()
			for i := 0; i < 2000; i++ {
				_ = st.LoadSummary()
			}
			best.summary = min(best.summary, time.Since(t0))
			t0 = time.Now()
			for i := 0; i < 20000; i++ {
				b, err := st.FreeBall(r)
				if err != nil {
					t.Fatal(err)
				}
				admitOne(st, b)
			}
			best.phase = min(best.phase, time.Since(t0))
			t0 = time.Now()
			for i := 0; i < 200; i++ {
				_ = det.Check()
			}
			best.check = min(best.check, time.Since(t0))
		}
		return best
	}
	small, large := measure(1<<14), measure(1<<20)
	for _, c := range []struct {
		name         string
		small, large time.Duration
	}{
		{"LoadSummary", small.summary, large.summary},
		{"FreeBall+Alloc", small.phase, large.phase},
		{"Detector.Check", small.check, large.check},
	} {
		ratio := float64(c.large) / float64(c.small)
		t.Logf("%s: n=2^14 %v, n=2^20 %v, ratio %.2f", c.name, c.small, c.large, ratio)
		if ratio > 8 {
			t.Errorf("%s costs %.1fx more at n=2^20 than at n=2^14 (64x the bins); want <= 8x", c.name, ratio)
		}
	}
}
