package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/rules"
)

// storeState is everything a refused verb must leave untouched.
type storeState struct {
	stats Stats
	hash  uint64
}

func loadsHash(st *Store) uint64 {
	h := fnv.New64a()
	for _, l := range st.LoadsCopy() {
		h.Write([]byte{byte(l), byte(l >> 8), byte(l >> 16), byte(l >> 24)})
	}
	return h.Sum64()
}

func stateOf(st *Store) storeState { return storeState{st.Stats(), loadsHash(st)} }

// TestServiceVerbTable is the verb table's own test, with no sockets:
// verb x {ok, draining, standby, bin out of range, count 0 / over the
// bound, overflowing k or count, empty store, empty bin} -> the typed
// error a codec maps, and no state change on any refusal. The
// overflow bound is store-wide: a crash or an admission that would take
// the store past math.MaxInt32 balls is refused whichever bin it aims
// at, so no bin's int32 load can wrap.
func TestServiceVerbTable(t *testing.T) {
	const n = 16
	type gate int
	const (
		serving gate = iota
		draining
		standby
	)
	admit := func(count int) func(*Lane) error {
		return func(l *Lane) error { _, _, err := l.Admit(count, nil); return err }
	}
	free := func(fromBin bool, bin, count int) func(*Lane) error {
		return func(l *Lane) error { _, err := l.Free(fromBin, bin, count, nil); return err }
	}
	crash := func(bin, k int) func(*Lane) error {
		return func(l *Lane) error { _, err := l.Crash(bin, k); return err }
	}
	cases := []struct {
		name  string
		gate  gate
		empty bool // leave the store empty instead of one ball per bin (bin 3: none)
		brim  bool // the store holds MaxInt32-1 balls, all but 15 in bin 5
		call  func(*Lane) error
		want  error // nil: the verb must succeed and change the state
	}{
		{"admit/ok", serving, false, false, admit(1), nil},
		{"admit/ok-chunked", serving, false, false, admit(3*laneChunk + 7), nil},
		{"admit/ok-at-bound", serving, false, false, admit(MaxCount), nil},
		{"admit/draining", draining, false, false, admit(1), ErrDraining},
		{"admit/standby", standby, false, false, admit(1), ErrStandby},
		{"admit/count-0", serving, false, false, admit(0), ErrBadRequest},
		{"admit/count-negative", serving, false, false, admit(-4), ErrBadRequest},
		{"admit/count-over-bound", serving, false, false, admit(MaxCount + 1), ErrBadRequest},
		{"admit/count-3M", serving, false, false, admit(3 << 20), ErrBadRequest},
		{"admit/ok-to-the-brim", serving, false, true, admit(1), nil},
		{"admit/overflows-the-store", serving, false, true, admit(2), ErrBadRequest},
		{"admit/chunked-overflows-the-store", serving, false, true, admit(3 * laneChunk), ErrBadRequest},

		{"free/ok-scenario", serving, false, false, free(false, 0, 1), nil},
		{"free/ok-bin", serving, false, false, free(true, 2, 1), nil},
		{"free/ok-partial", serving, false, false, free(true, 2, 5), nil}, // one ball there: 1 of 5 is success
		{"free/draining", draining, false, false, free(false, 0, 1), ErrDraining},
		{"free/bin-draining", draining, false, false, free(true, 2, 1), ErrDraining},
		{"free/standby", standby, false, false, free(false, 0, 1), ErrStandby},
		{"free/count-0", serving, false, false, free(false, 0, 0), ErrBadRequest},
		{"free/count-over-bound", serving, false, false, free(true, 2, MaxCount+1), ErrBadRequest},
		{"free/bin-negative", serving, false, false, free(true, -1, 1), ErrBadRequest},
		{"free/bin-out-of-range", serving, false, false, free(true, n, 1), ErrBadRequest},
		{"free/empty-store", serving, true, false, free(false, 0, 1), ErrEmpty},
		{"free/empty-bin", serving, false, false, free(true, 3, 1), ErrEmptyBin},

		{"crash/ok", serving, false, false, crash(4, 100), nil},
		{"crash/ok-to-the-brim", serving, false, true, crash(5, 1), nil},
		{"crash/draining", draining, false, false, crash(4, 100), ErrDraining},
		{"crash/standby", standby, false, false, crash(4, 100), ErrStandby},
		{"crash/bin-negative", serving, false, false, crash(-1, 1), ErrBadRequest},
		{"crash/bin-out-of-range", serving, false, false, crash(n, 1), ErrBadRequest},
		{"crash/k-negative", serving, false, false, crash(4, -1), ErrBadRequest},
		{"crash/k-overflows-int32", serving, false, false, crash(4, math.MaxInt32), ErrBadRequest},
		{"crash/k-2^31", serving, false, false, crash(4, 1<<31), ErrBadRequest},
		{"crash/k-maxint64", serving, false, false, crash(4, math.MaxInt64), ErrBadRequest},
		{"crash/k-overflows-full-bin", serving, false, true, crash(5, 2), ErrBadRequest},
		{"crash/k-overflows-the-store", serving, false, true, crash(4, 2), ErrBadRequest},
	}
	for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", sc, tc.name), func(t *testing.T) {
				st := NewStoreShards(n, 4)
				if !tc.empty {
					st.FillBalanced(n)
					st.FreeBin(3)
				}
				if tc.brim {
					if _, err := st.Crash(5, math.MaxInt32-1-int(st.Total())); err != nil {
						t.Fatal(err)
					}
				}
				svc := NewService(st, NewABKUPolicy(2), sc, 7)
				det := NewDetector(st, Target{PredictedMax: math.MaxInt32})
				det.Check() // recovered: only an applied crash may flip it
				svc.Arm(nil, det)
				switch tc.gate {
				case draining:
					svc.SetDraining()
				case standby:
					svc = NewService(st, NewABKUPolicy(2), sc, 7)
					svc.SetStandby()
				}
				before := stateOf(st)
				err := tc.call(svc.NewLane(DgramStream))
				if tc.want == nil {
					if err != nil {
						t.Fatalf("refused: %v", err)
					}
					if stateOf(st) == before {
						t.Fatal("verb succeeded without changing the store")
					}
					return
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("error = %v, want %v", err, tc.want)
				}
				if got := stateOf(st); got != before {
					t.Fatalf("refused verb changed the store: %+v -> %+v", before, got)
				}
				if !det.Recovered() {
					t.Fatal("refused verb marked the detector disrupted")
				}
			})
		}
	}
}

// TestLaneResults pins what the verbs hand a codec: one Placement per
// ball in admission order with the loads AdmitBatch reported, FREE's
// partial-success rule, and the crash marking the detector disrupted.
func TestLaneResults(t *testing.T) {
	st := NewStoreShards(64, 8)
	svc := NewService(st, NewABKUPolicy(2), process.ScenarioA, 11)
	det := NewDetector(st, Target{PredictedMax: 1 << 30})
	det.Check()
	svc.Arm(nil, det)
	lane := svc.NewLane(DgramStream + 1)

	placed, probes, err := lane.Admit(2*laneChunk+3, nil)
	if err != nil || len(placed) != 2*laneChunk+3 || probes != 2*len(placed) {
		t.Fatalf("admit: %d placements, %d probes, %v", len(placed), probes, err)
	}
	seen := map[int]int32{}
	for i, p := range placed {
		if p.Load != seen[p.Bin]+1 {
			t.Fatalf("placement %d: bin %d load %d after %d", i, p.Bin, p.Load, seen[p.Bin])
		}
		seen[p.Bin] = p.Load
	}
	if st.Total() != int64(len(placed)) || st.Allocs() != int64(len(placed)) {
		t.Fatalf("store after admit: %+v", st.Stats())
	}

	bin := placed[0].Bin
	have := st.Load(bin)
	freed, err := lane.Free(true, bin, have+5, placed[:0])
	if err != nil || len(freed) != have {
		t.Fatalf("free of %d from a bin of %d: %d placements, %v", have+5, have, len(freed), err)
	}
	if last := freed[len(freed)-1]; last.Bin != bin || last.Load != 0 {
		t.Fatalf("last departure %+v, want bin %d at load 0", last, bin)
	}
	if _, err := lane.Free(true, bin, 1, nil); !errors.Is(err, ErrEmptyBin) {
		t.Fatalf("free of the drained bin: %v, want ErrEmptyBin", err)
	}
	left := int(st.Total())
	freed, err = lane.Free(false, 0, left+1, nil)
	if err != nil || len(freed) != left || st.Total() != 0 {
		t.Fatalf("scenario free of %d from a store of %d: %d placements, %v", left+1, left, len(freed), err)
	}
	if _, err := lane.Free(false, 0, 1, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("free of the empty store: %v, want ErrEmpty", err)
	}

	if load, err := lane.Crash(9, 40); err != nil || load != 40 {
		t.Fatalf("crash: load %d, %v", load, err)
	}
	if det.Recovered() {
		t.Fatal("crash did not mark the detector disrupted")
	}
}

// TestServiceGate: draining is final (it outlives a promotion), standby
// ends at Arm, and Arm is what installs journal and detector.
func TestServiceGate(t *testing.T) {
	st := NewStoreShards(8, 2)
	svc := NewService(st, NewABKUPolicy(2), process.ScenarioA, 1)
	lane := svc.NewLane(DgramStream)
	svc.SetStandby()
	if _, _, err := lane.Admit(1, nil); !errors.Is(err, ErrStandby) {
		t.Fatalf("standby admit: %v", err)
	}
	det := NewDetector(st, Target{PredictedMax: 4})
	svc.Arm(nil, det)
	if svc.Detector() != det || svc.Journal() != nil {
		t.Fatal("Arm did not install what it was given")
	}
	if _, _, err := lane.Admit(1, nil); err != nil {
		t.Fatalf("armed admit: %v", err)
	}
	svc.SetDraining()
	svc.SetStandby()
	svc.Arm(nil, det)
	if _, _, err := lane.Admit(1, nil); !errors.Is(err, ErrDraining) || !svc.Draining() {
		t.Fatalf("admit after SetDraining + Arm: %v", err)
	}
}

// TestStoreCrashOverflow: a crash past MaxInt32 balls in the store is
// an error found inside the section, with nothing applied and the locks
// released; a full store refuses admissions the same way.
func TestStoreCrashOverflow(t *testing.T) {
	st := NewStoreShards(8, 1)
	st.Crash(2, 7)
	before := stateOf(st)
	for _, k := range []int{math.MaxInt32 - 6, math.MaxInt32, 1 << 31, 1 << 40, math.MaxInt64} {
		load, err := st.Crash(2, k)
		if !errors.Is(err, ErrOverflow) || load != 7 {
			t.Fatalf("Crash(2, %d) = %d, %v; want 7, ErrOverflow", k, load, err)
		}
	}
	if stateOf(st) != before {
		t.Fatal("refused crash changed the store")
	}
	if load, err := st.Crash(2, math.MaxInt32-7); err != nil || load != math.MaxInt32 {
		t.Fatalf("crash to the brim: %d, %v", load, err)
	}
	full := stateOf(st)
	if err := st.AdmitBatch([]int{3}, nil); !errors.Is(err, ErrOverflow) || stateOf(st) != full {
		t.Fatalf("admit into a full store: %v", err)
	}
	if _, err := st.FreeBin(2); err != nil { // the locks were released on every path
		t.Fatal(err)
	}
	admitOne(st, 3)
}

// TestInstallsEnforceTheBallBound: the two installs hold the store to
// the same math.MaxInt32 ball bound as Crash and AdmitBatch, and refuse
// with nothing installed. FillBalanced panics on an m past the bound
// (at n = 2, m = 2^32+4 would wrap the fair share into a negative load;
// at n = 4, m = 3·10^9 would pass the bound the batched drive relies
// on) and on a store that already holds balls; Restore returns
// ErrOverflow for loads that sum past it.
func TestInstallsEnforceTheBallBound(t *testing.T) {
	fillPanics := func(st *Store, m int) (msg any) {
		defer func() { msg = recover() }()
		st.FillBalanced(m)
		return nil
	}
	for _, tc := range []struct{ n, m int }{{2, 1<<32 + 4}, {4, 3e9}, {1, math.MaxInt32 + 1}, {8, -1}} {
		st := NewStoreShards(tc.n, 1)
		msg := fillPanics(st, tc.m)
		if s, ok := msg.(string); !ok || !strings.Contains(s, "FillBalanced") {
			t.Errorf("FillBalanced(%d) on %d bins: recovered %v, want FillBalanced's own panic", tc.m, tc.n, msg)
		}
		if st.Total() != 0 || slices.ContainsFunc(st.LoadsCopy(), func(l int) bool { return l != 0 }) {
			t.Errorf("refused FillBalanced(%d) left %d balls", tc.m, st.Total())
		}
	}
	st := NewStoreShards(4, 1)
	st.FillBalanced(math.MaxInt32)
	if want := []int{1 << 29, 1 << 29, 1 << 29, 1<<29 - 1}; st.Total() != math.MaxInt32 || !slices.Equal(st.LoadsCopy(), want) {
		t.Fatalf("FillBalanced to the brim: %d balls, loads %v, want %v", st.Total(), st.LoadsCopy(), want)
	}

	held := NewStoreShards(8, 2)
	held.Crash(5, 1)
	before := stateOf(held)
	if msg := fillPanics(held, 8); msg == nil || stateOf(held) != before {
		t.Errorf("FillBalanced on a store holding a ball: recovered %v, state changed %v", msg, stateOf(held) != before)
	}

	for _, loads := range [][]int32{
		{math.MaxInt32, 1, 0, 0},
		{750_000_000, 750_000_000, 750_000_000, 750_000_000},
		{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32},
	} {
		st := NewStoreShards(4, 2)
		st.FillBalanced(6)
		before := stateOf(st)
		if err := st.Restore(loads, 1, 1); !errors.Is(err, ErrOverflow) || stateOf(st) != before {
			t.Errorf("Restore(%v) = %v, state changed %v; want ErrOverflow and nothing installed", loads, err, stateOf(st) != before)
		}
	}
	brim := []int32{math.MaxInt32 - 3, 1, 1, 1}
	if err := st.Restore(brim, 0, 0); err != nil || st.Total() != math.MaxInt32 {
		t.Fatalf("Restore to the brim: %v, %d balls", err, st.Total())
	}
}

// brimmingPolicy sends every ball to bin 0 and, before its second pass,
// crashes the store to the ball bound: the concurrent traffic a chunked
// admission can meet between two chunks.
type brimmingPolicy struct {
	Policy
	passes int
}

func (p *brimmingPolicy) PickBatch(st *Store, _ *rng.RNG, bins []int) int {
	if p.passes++; p.passes == 2 {
		if _, err := st.Crash(1, math.MaxInt32-int(st.Total())); err != nil {
			panic(err)
		}
	}
	clear(bins)
	return len(bins)
}

func (p *brimmingPolicy) Clone() Policy { return p }

// TestAdmitCutShortByTheBoundIsPartialSuccess: a chunked admission whose
// later chunk finds the store at the bound returns the chunks already
// admitted with a nil error, as Free does when its supply runs dry; a
// request that finds the store full is refused with nothing applied.
func TestAdmitCutShortByTheBoundIsPartialSuccess(t *testing.T) {
	st := NewStoreShards(16, 4)
	lane := NewService(st, &brimmingPolicy{Policy: NewABKUPolicy(2)}, process.ScenarioA, 1).NewLane(0)
	placed, _, err := lane.Admit(3*laneChunk, nil)
	if err != nil || len(placed) != laneChunk || st.Load(0) != laneChunk || st.Total() != math.MaxInt32 {
		t.Fatalf("admit cut short: %d placements, bin 0 at %d, %d balls, %v", len(placed), st.Load(0), st.Total(), err)
	}
	full := stateOf(st)
	if _, _, err := lane.Admit(1, nil); !errors.Is(err, ErrBadRequest) || !errors.Is(err, ErrOverflow) || stateOf(st) != full {
		t.Fatalf("admit into a full store: %v", err)
	}
}

// TestEngineRetracesPerPhaseGoldens: the one lane at pass size 0 and 1
// must retrace, bit for bit, the trajectory of the per-phase lane this
// tree used to carry beside it, and at the pass sizes the drive runs
// (16, 64, 256) the trajectory the lane had when a pass took a stripe
// lock per departure and per touched shard. The goldens (FNV-64a of the
// final int32 loads; Allocs and Frees are 20000 each) were recorded
// from those lanes — Engine with Batch <= 1 at commit 91c2694, larger
// passes at commit f8121aa — at n=257, 8 stripes, 400 balls seeded
// balanced plus a crash of 100 into bin 3, seed 1998, one worker, 20000
// phases.
func TestEngineRetracesPerPhaseGoldens(t *testing.T) {
	goldens := []struct {
		pol    Policy
		sc     process.Scenario
		hash   uint64    // pass size 0 and 1
		passes [3]uint64 // pass size 16, 64, 256
	}{
		{NewABKUPolicy(2), process.ScenarioA, 0x59f6ae97578051a7, [3]uint64{0x81361f1edcb2d225, 0x76e12b3a599fd3d1, 0x5014ee81575bc4d3}},
		{NewABKUPolicy(2), process.ScenarioB, 0x76a330f4bd0533eb, [3]uint64{0x78bedc6ba811db3d, 0xd0acf398d9a1f22b, 0xb6ead10ace9a8253}},
		{NewADAPPolicy(rules.SliceThresholds{1, 2, 2, 3}), process.ScenarioA, 0x22db9fe59cba7321, [3]uint64{0xb3863b5269d951e1, 0x18e8b1a4892a4975, 0x30eda0ee754d20d5}},
		{NewADAPPolicy(rules.SliceThresholds{1, 2, 2, 3}), process.ScenarioB, 0x43b1e2d2f7aaee7f, [3]uint64{0x657c88ba8afe428b, 0x0d35a051833e3b07, 0xb41d954133799e15}},
		{NewMixedPolicy(0.5), process.ScenarioA, 0x008678c1a5ec0ac7, [3]uint64{0x712d45f9070958d1, 0xb874b447854a20a5, 0x8fa84c929f71d135}},
		{NewMixedPolicy(0.5), process.ScenarioB, 0x119d007a9cd9aec1, [3]uint64{0x42f21fa6fce582d9, 0x5fb3937a59139adf, 0x507396ab4e79781d}},
	}
	for _, g := range goldens {
		want := map[int]uint64{0: g.hash, 1: g.hash, 16: g.passes[0], 64: g.passes[1], 256: g.passes[2]}
		for _, batch := range []int{0, 1, 16, 64, 256} {
			t.Run(fmt.Sprintf("%s/%v/batch=%d", g.pol.Name(), g.sc, batch), func(t *testing.T) {
				st := NewStoreShards(257, 8)
				st.FillBalanced(400)
				st.Crash(3, 100)
				eng := NewEngine(Config{Store: st, Policy: g.pol, Scenario: g.sc, Workers: 1, Seed: 1998, MaxSteps: 20000, Batch: batch})
				eng.Run(context.Background())
				if h := loadsHash(st); h != want[batch] || st.Allocs() != 20000 || st.Frees() != 20000 {
					t.Fatalf("final loads hash %#016x allocs %d frees %d, want %#016x 20000 20000",
						h, st.Allocs(), st.Frees(), want[batch])
				}
			})
		}
	}
}

// TestStripeCountIsNotAProcessParameter: both departure streams draw
// the target-th ball or the target-th nonempty bin in bin order, and
// the store moves under one mutex whatever its index stripes, so the
// stripe count changes no trajectory. The grid mirrors the goldens'
// setup at pass sizes 1 and 64; every stripe count must land on one
// final loads hash per policy, scenario and pass size.
func TestStripeCountIsNotAProcessParameter(t *testing.T) {
	for _, pol := range []Policy{NewABKUPolicy(2), NewADAPPolicy(rules.SliceThresholds{1, 2, 2, 3})} {
		for _, sc := range []process.Scenario{process.ScenarioA, process.ScenarioB} {
			for _, batch := range []int{1, 64} {
				var want uint64
				for _, stripes := range []int{1, 2, 8, 64, 256} {
					st := NewStoreShards(257, stripes)
					st.FillBalanced(400)
					st.Crash(3, 100)
					eng := NewEngine(Config{Store: st, Policy: pol, Scenario: sc, Workers: 1, Seed: 1998, MaxSteps: 20000, Batch: batch})
					eng.Run(context.Background())
					h := loadsHash(st)
					if stripes == 1 {
						want = h
					} else if h != want {
						t.Fatalf("%s/%v/batch=%d: %d stripes end at %#016x, 1 stripe at %#016x", pol.Name(), sc, batch, stripes, h, want)
					}
				}
			}
		}
	}
}

// TestEpisodeState walks the detector's timeline through its
// transitions: boot outage, merged fault keeping the origin, announced
// fault, and the clamp on a clock that ran backwards.
func TestEpisodeState(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	e := episodes{budget: 100, recovered: true, byKind: map[string]int64{}}
	if e.fault("startup", 10, at(0)) || e.recovered {
		t.Fatal("a fault while recovered opens an outage; it must not merge")
	}
	if !e.fault(ChaosCrash, 16, at(2)) {
		t.Fatal("a fault while disrupted merges; it must not open an outage")
	}
	ep := e.close(40, at(5))
	want := Episode{Kind: "startup", Faults: 2, Steps: 30, Wall: 5 * time.Second, BudgetRatio: 0.3}
	if ep != want || !e.recovered || e.completed != 1 || e.last != ep {
		t.Fatalf("boot episode: %+v, state %+v", ep, e)
	}
	e.fault(ChaosCrash, 60, at(7))
	e.fault(ChaosStall, 70, at(8)) // merged: the origin stays at 60
	if ep := e.close(100, at(10)); ep.Steps != 40 || ep.Wall != 3*time.Second || ep.Faults != 2 {
		t.Fatalf("merged-fault episode measured %+v, want 40 steps / 3s from the first fault", ep)
	}
	e.fault("drift", 120, at(11))
	if ep := e.close(110, at(10)); ep.Steps != 0 || ep.Wall != 0 {
		t.Fatalf("a clock that ran backwards made episode %+v, want it clamped at zero", ep)
	}
	s := e.summary(at(20))
	if s.Completed != 3 || s.Faults != 5 || s.MergedFaults != 2 || s.Open || s.MaxSteps != 40 || s.TotalDownSteps != 70 {
		t.Fatalf("summary %+v", s)
	}
}
