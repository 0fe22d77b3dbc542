package serve

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"dynalloc/internal/vfs"
)

func chaosFixture(t *testing.T) (*Store, *Detector) {
	t.Helper()
	st := NewStore(64)
	st.FillBalanced(256) // 4 per bin
	det := NewDetector(st, Target{PredictedMax: 4, Slack: 1, BudgetSteps: 1000})
	det.Check() // close the startup episode; the store is balanced
	return st, det
}

func TestChaosInjectorValidation(t *testing.T) {
	st, det := chaosFixture(t)
	cases := []struct {
		name string
		cfg  ChaosConfig
	}{
		{"no store", ChaosConfig{Detector: det}},
		{"no detector", ChaosConfig{Store: st}},
		{"negative rate", ChaosConfig{Store: st, Detector: det, Rate: -1}},
		{"unknown fault", ChaosConfig{Store: st, Detector: det, Faults: []string{"meteor"}}},
		{"duplicate fault", ChaosConfig{Store: st, Detector: det, Faults: []string{ChaosCrash, ChaosCrash}}},
		{"stall without FaultFS", ChaosConfig{Store: st, Detector: det, Faults: []string{ChaosStall}}},
		{"enospc without FaultFS", ChaosConfig{Store: st, Detector: det, Faults: []string{ChaosNoSpace}}},
		{"powercut without cutter", ChaosConfig{Store: st, Detector: det, Faults: []string{ChaosPowerCut}}},
		{"bad crash frac", ChaosConfig{Store: st, Detector: det, CrashFrac: 1.5}},
	}
	for _, tc := range cases {
		if _, err := NewChaosInjector(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}

	// The default menu grows with the seams provided.
	inj, err := NewChaosInjector(ChaosConfig{Store: st, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := inj.Kinds(); len(kinds) != 1 || kinds[0] != ChaosCrash {
		t.Fatalf("bare injector menu = %v, want [crash]", kinds)
	}
	inj, err = NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, FaultFS: vfs.NewFaultFS(vfs.OS),
	})
	if err != nil {
		t.Fatal(err)
	}
	if kinds := inj.Kinds(); len(kinds) != 3 {
		t.Fatalf("FaultFS injector menu = %v, want crash+enospc+stall", kinds)
	}
}

// TestChaosCrashPreservesMass: the crash catastrophe relocates balls,
// it does not mint them — the recovery target computed at boot stays
// valid across arbitrarily many catastrophes.
func TestChaosCrashPreservesMass(t *testing.T) {
	st, det := chaosFixture(t)
	inj, err := NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, Seed: 7, Faults: []string{ChaosCrash}, CrashFrac: 0.125,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := st.Total()
	for i := 0; i < 10; i++ {
		inj.fire()
	}
	if got := st.Total(); got != before {
		t.Fatalf("10 crash catastrophes changed the mass: %d -> %d", before, got)
	}
	if got := inj.Fired(); got != 10 {
		t.Fatalf("Fired = %d, want 10", got)
	}
	if det.Recovered() {
		t.Fatal("detector still recovered after catastrophes")
	}
	// All 10 landed before any recovery: one episode, nine merges.
	sum := det.Summary()
	if !sum.Open || sum.OpenFaults != 10 || sum.MergedFaults != 9 {
		t.Fatalf("catastrophes not merged into the open episode: %+v", sum)
	}
	// The relocation is visible: some bin now carries far more than the
	// balanced 4.
	if s := det.Check(); s.MaxLoad < 8 {
		t.Fatalf("max load %d after 10 relocating crashes, expected a pile-up", s.MaxLoad)
	}
}

// TestChaosDiskFaultsArmAndRepair: enospc and stall arm the FaultFS,
// note the fault on the detector, and the exponential repair window
// clears them.
func TestChaosDiskFaultsArmAndRepair(t *testing.T) {
	st, det := chaosFixture(t)
	ffs := vfs.NewFaultFS(vfs.OS)
	dir := t.TempDir()
	inj, err := NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, Seed: 11,
		Faults:     []string{ChaosNoSpace},
		RepairMean: time.Millisecond,
		FaultFS:    ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.fire()
	if _, err := ffs.Create(filepath.Join(dir, "x")); !errors.Is(err, vfs.ErrInjectedNoSpace) {
		t.Fatalf("create during enospc: %v, want ErrInjectedNoSpace", err)
	}
	if sum := det.Summary(); !sum.Open || sum.OpenKind != ChaosNoSpace {
		t.Fatalf("enospc not noted as a fault: %+v", sum)
	}
	// The repair timer (mean 1ms) clears the fault well within a second.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ffs.Create(filepath.Join(dir, "y")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("enospc never repaired")
		}
		time.Sleep(time.Millisecond)
	}
}

type fakeCutter struct{ k int }

func (f *fakeCutter) CrashAfterOps(k int) { f.k = k }

func TestChaosPowerCutSchedulesNearFuture(t *testing.T) {
	st, det := chaosFixture(t)
	cut := &fakeCutter{}
	inj, err := NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, Seed: 13,
		Faults: []string{ChaosPowerCut}, PowerCut: cut, PowerCutOps: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.fire()
	if cut.k < 1 || cut.k > 16 {
		t.Fatalf("power cut scheduled %d ops ahead, want 1..16", cut.k)
	}
	if det.Recovered() {
		t.Fatal("power cut did not mark the detector disrupted")
	}
}

// TestChaosInjectorRun drives the real Poisson loop briefly at a high
// rate and checks the lifecycle: catastrophes fire, the observer hook
// sees them, and cancellation clears any armed disk fault.
func TestChaosInjectorRun(t *testing.T) {
	st, det := chaosFixture(t)
	ffs := vfs.NewFaultFS(vfs.OS)
	var seen int
	inj, err := NewChaosInjector(ChaosConfig{
		Store: st, Detector: det, Seed: 17,
		Rate:       500,       // mean gap 2ms: plenty of firings in the window
		RepairMean: time.Hour, // repairs never land: cancellation must clear
		FaultFS:    ffs,
		OnFault:    func(string) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	inj.Run(ctx) // blocks until the timeout
	if inj.Fired() == 0 || seen == 0 {
		t.Fatalf("no catastrophes in 200ms at rate 500/s (fired=%d seen=%d)", inj.Fired(), seen)
	}
	if int64(seen) != inj.Fired() {
		t.Fatalf("observer saw %d, injector fired %d", seen, inj.Fired())
	}
	// Whatever disk fault was armed when the context fell, Run's exit
	// path repaired it.
	dir := t.TempDir()
	if _, err := ffs.Create(filepath.Join(dir, "post")); err != nil {
		t.Fatalf("disk fault survived Run's shutdown: %v", err)
	}
}
