package serve

import (
	"fmt"
	"runtime"
	"testing"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/rules"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// The allocation-budget tier: testing.AllocsPerRun gates on the
// admission lane, at every pass size and through both of its callers
// (the Engine's Batcher, the Service's Lane). The non-durable lane must
// run at literally zero heap allocations per pass in steady state — the
// claim ROADMAP item 1 closes and BENCH_baseline.json pins for the
// serve/admit-batch workload — and the durable lane gets an explicit
// ceiling instead of a vibe. These tests run on a dedicated CI leg
// (`go test ./internal/serve -run AllocBudget -count=1`, no -race:
// race instrumentation allocates) and skip themselves under -race so
// the ordinary race legs stay green.

// budgetPolicies is the shipped policy set the budgets hold for.
func budgetPolicies() []Policy {
	return []Policy{
		NewABKUPolicy(1), // uniform
		NewABKUPolicy(2),
		NewADAPPolicy(rules.SliceThresholds{1, 2, 2, 3}),
		NewMixedPolicy(0.5),
	}
}

// warmBatcher builds a loaded store + batcher and runs enough passes
// to grow every piece of reusable scratch to steady state.
func warmBatcher(pol Policy, sc process.Scenario, batch int) (*Batcher, *rng.RNG) {
	st := NewStoreShards(1<<12, 64)
	st.FillBalanced(1 << 12)
	bt := NewBatcher(st, pol, sc, batch)
	r := rng.New(0xA110C)
	for i := 0; i < 8; i++ {
		if _, err := bt.Pass(r, batch); err != nil {
			panic(err)
		}
	}
	return bt, r
}

func TestAllocBudgetAdmitBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		for _, pol := range budgetPolicies() {
			t.Run(fmt.Sprintf("%v/%s", sc, pol.Name()), func(t *testing.T) {
				bt, r := warmBatcher(pol, sc, 64)
				avg := testing.AllocsPerRun(50, func() {
					if _, err := bt.Pass(r, 64); err != nil {
						panic(err)
					}
				})
				if avg != 0 {
					t.Errorf("batched admit pass: %v allocs/pass, want exactly 0", avg)
				}
			})
		}
	}
}

// A pass of one — the paper's phase, and what the engine drives at the
// default Config.Batch — is held to the same zero as a pass of 64: the
// lane has no cheaper twin to fall back on.
func TestAllocBudgetPassOfOne(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		for _, pol := range budgetPolicies() {
			t.Run(fmt.Sprintf("%v/%s", sc, pol.Name()), func(t *testing.T) {
				bt, r := warmBatcher(pol, sc, 1)
				avg := testing.AllocsPerRun(200, func() {
					if _, err := bt.Pass(r, 1); err != nil {
						panic(err)
					}
				})
				if avg != 0 {
					t.Errorf("admit pass of one: %v allocs/pass, want exactly 0", avg)
				}
			})
		}
	}
}

// warmLane builds a loaded store behind a Service and a Lane whose
// scratch and reply buffer have grown to steady state.
func warmLane(sc process.Scenario) (*Lane, []Placement) {
	st := NewStoreShards(1<<12, 64)
	st.FillBalanced(1 << 12)
	svc := NewService(st, NewABKUPolicy(2), sc, 0xA110C)
	svc.Arm(nil, NewDetector(st, Target{PredictedMax: 3, Slack: 1}))
	lane := svc.NewLane(DgramStream + 1)
	dst, _, err := lane.Admit(2*laneChunk, nil)
	if err != nil {
		panic(err)
	}
	if dst, err = lane.Free(false, 0, 2*laneChunk, dst[:0]); err != nil {
		panic(err)
	}
	return lane, dst
}

// The Service's verbs are what every dgram frame and HTTP request runs:
// gate check, bounds, chunking, picks, admission, and the Placement
// reply — at 0 allocs per call once dst has grown, memory-only.
func TestAllocBudgetLane(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		lane, dst := warmLane(sc)
		for _, count := range []int{1, 16} {
			t.Run(fmt.Sprintf("%v/Admit(%d)+Free(%d)", sc, count, count), func(t *testing.T) {
				avg := testing.AllocsPerRun(200, func() {
					var err error
					if dst, _, err = lane.Admit(count, dst[:0]); err != nil {
						panic(err)
					}
					if dst, err = lane.Free(false, 0, count, dst[:0]); err != nil {
						panic(err)
					}
				})
				if avg != 0 {
					t.Errorf("Lane.Admit(%d) + Lane.Free(%d): %v allocs, want exactly 0", count, count, avg)
				}
			})
		}
		t.Run(fmt.Sprintf("%v/FreeBin+Admit", sc), func(t *testing.T) {
			avg := testing.AllocsPerRun(200, func() {
				var err error
				if dst, _, err = lane.Admit(1, dst[:0]); err != nil {
					panic(err)
				}
				if dst, err = lane.Free(true, dst[0].Bin, 1, dst[:0]); err != nil {
					panic(err)
				}
			})
			if avg != 0 {
				t.Errorf("Lane.Free from a bin: %v allocs, want exactly 0", avg)
			}
		})
	}
}

// The engine lane's zero must survive metrics collection being on —
// cmd/bench runs with metrics enabled, and the baseline's 0 allocs/op
// is measured there. The Batcher pre-resolves its counters for this.
func TestAllocBudgetAdmitBatchMetricsOn(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	metrics.Enable()
	defer metrics.Disable()
	bt, r := warmBatcher(NewABKUPolicy(2), process.ScenarioA, 64)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := bt.Pass(r, 64); err != nil {
			panic(err)
		}
	})
	if avg != 0 {
		t.Errorf("batched admit pass with metrics on: %v allocs/pass, want exactly 0", avg)
	}
}

// The durable lane cannot be literally zero — the WAL writes through a
// filesystem — but it gets a pinned ceiling so regressions surface as
// a failing number, not a slow drift. The journal runs in SyncWriter
// mode on simfs: deterministic, GC-stable, no disk. One run is a
// 64-phase pass plus a Drain that appends ~128 records (64 frees + 64
// allocs) in MaxBatch chunks; measured cost is ~1 alloc/run (segment
// buffer growth inside simfs, amortized), so the ceiling of 8 is
// generous headroom for GC timing — while still two orders of
// magnitude below a per-record allocation (128/run).
//
// The second rig has the writer goroutine running and the Drain
// waiting on its watermark, and holds the hooks' own side of a pass —
// every OnFree a run of one, every OnAllocRun group, copied into the
// slab — to exactly 0: what simfs allocates on the writer's side is
// amortized growth, well under one allocation a run, and AllocsPerRun
// reports whole allocations.
var durableRigs = []struct {
	name    string
	opts    JournalOptions
	ceiling float64
}{
	{"sync-writer", JournalOptions{Buffer: 1024, SyncWriter: true, MaxBatch: 512}, 8},
	{"writer-running", JournalOptions{Buffer: 1024}, 0},
}

// durableBudget runs pass — built by lane over a journaled store, and
// expected to end in a Drain — through each rig and holds it to the
// rig's ceiling.
func durableBudget(t *testing.T, warm int, lane func(*Store, *Journal) (pass func())) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	for _, rig := range durableRigs {
		t.Run(rig.name, func(t *testing.T) {
			l, err := wal.Open(wal.Options{Dir: "/wal", FS: simfs.New(), Fsync: wal.FsyncNever, SegmentBytes: 64 << 20})
			if err != nil {
				t.Fatal(err)
			}
			st := NewStoreShards(1<<12, 64)
			st.FillBalanced(1 << 12)
			j := NewJournal(st, l, 0, rig.opts)
			pass := lane(st, j)
			for i := 0; i < warm; i++ {
				pass()
			}
			if avg := testing.AllocsPerRun(50, pass); avg > rig.ceiling {
				t.Errorf("%v allocs/pass, ceiling %v", avg, rig.ceiling)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllocBudgetDurableAdmitBatch(t *testing.T) {
	durableBudget(t, 8, func(st *Store, j *Journal) func() {
		bt := NewBatcher(st, NewABKUPolicy(2), process.ScenarioA, 64)
		r := rng.New(0xD00D)
		return func() {
			if _, err := bt.Pass(r, 64); err != nil {
				panic(err)
			}
			j.Drain()
		}
	})
}

// Lane.Admit(16) through a journal is held to the ceilings the
// Batcher's durable pass has above, on the same rigs: one run is 16
// frees + one ADMIT of 16 and a Drain of their 32 records.
func TestAllocBudgetDurableLaneAdmit(t *testing.T) {
	durableBudget(t, 32, func(st *Store, j *Journal) func() {
		svc := NewService(st, NewABKUPolicy(2), process.ScenarioA, 0xD00D)
		svc.Arm(j, nil)
		lane := svc.NewLane(DgramStream + 1)
		var dst []Placement
		return func() {
			var err error
			if dst, err = lane.Free(false, 0, 16, dst[:0]); err != nil {
				panic(err)
			}
			if dst, _, err = lane.Admit(16, dst[:0]); err != nil {
				panic(err)
			}
			j.Drain()
		}
	})
}

// The reads the index serves sit on the PROBE path (LoadSummary, once
// per dgram probe) and on the drive's detector cadence (Check): both
// must be allocation-free in steady state, with a crash tower standing
// so Check's sparse-level scratch is in use.
func TestAllocBudgetIndexReads(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	st := NewStoreShards(1<<12, 64)
	st.FillBalanced(1 << 12)
	st.Crash(7, 1<<10)
	st.Crash(4000, 500)
	det := NewDetector(st, Target{PredictedMax: 3, Slack: 1})
	det.Check() // grows the scratch
	if avg := testing.AllocsPerRun(100, func() { _ = st.LoadSummary() }); avg != 0 {
		t.Errorf("LoadSummary: %v allocs/call, want exactly 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { _ = det.Check() }); avg != 0 {
		t.Errorf("Detector.Check: %v allocs/call, want exactly 0", avg)
	}
}

// replayBytes builds a WAL of `segments` equal segments of `per` alloc
// records on simfs (one AppendBatch per segment, so each rotates exactly
// there) and returns the log's size and the bytes a restore of it into
// a fresh store allocates.
func replayBytes(t *testing.T, segments, per int, opts wal.PipelineOptions) (logBytes, allocated uint64) {
	t.Helper()
	const n = 1 << 12
	fs := simfs.New()
	l, err := wal.Open(wal.Options{Dir: "/wal", FS: fs, Fsync: wal.FsyncNever, SegmentBytes: int64(per * wal.RecordSize)})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0x5E6)
	recs := make([]wal.Record, per)
	for s := 0; s < segments; s++ {
		for i := range recs {
			recs[i] = wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(n)), K: 1, Seq: uint64(s*per + i + 1)}
		}
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(n, 8)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if opts.ApplyBatch == nil { // the whole restore
		res, err := RestoreFSOpts(st, fs, "/wal", RestoreOptions{})
		if err != nil || res.Replayed != int64(segments*per) {
			t.Fatalf("restore of %d segments: %+v, %v", segments, res, err)
		}
	} else if stats, err := wal.ReplayPipelineFS(fs, "/wal", 0, opts); err != nil || stats.Segments != segments {
		t.Fatalf("replay of %d segments: %+v, %v", segments, stats, err)
	}
	runtime.ReadMemStats(&m1)
	return uint64(segments * (16 + per*wal.RecordSize)), m1.TotalAlloc - m0.TotalAlloc
}

// The replay allocates for the segments it holds in flight, never for
// the log. Machine-independent forms of that: (a) a restore of a
// single-segment log — cmd/bench's wal/replay-parallel and
// serve/restore/n=1e5 rows, where the baseline's io.ReadAll and
// decode-then-partition copies cost 8 x the log's bytes — stays under
// 3 x; (b) four times the segments do not mean more bytes, once the
// pipeline's depth is pinned below both logs' length.
func TestAllocBudgetReplayBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	logBytes, got := replayBytes(t, 1, 100_000, wal.PipelineOptions{})
	if got > 3*logBytes {
		t.Errorf("restore of a %d-byte log allocated %d bytes (%.1fx), ceiling 3x", logBytes, got, float64(got)/float64(logBytes))
	}
	depth2 := wal.PipelineOptions{Workers: 1, ReadAhead: 1, ApplyBatch: func(int, []wal.Record) error { return nil }}
	_, two := replayBytes(t, 2, 20_000, depth2)
	_, eight := replayBytes(t, 8, 20_000, depth2)
	if ratio := float64(eight) / float64(two); ratio >= 1.5 {
		t.Errorf("replay of 8 segments allocated %d bytes, of 2 segments %d: ratio %.2f, want < 1.5", eight, two, ratio)
	}
}
