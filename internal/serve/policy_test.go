package serve

import (
	"testing"

	"dynalloc/internal/rng"
	"dynalloc/internal/rules"
)

// predictProbes replays the probe stream a policy will see: rng streams
// are deterministic, so a second generator with the same (seed, stream)
// yields exactly the draws Pick consumes.
func predictProbes(seed uint64, n, k int) []int {
	r := rng.NewStream(seed, 0)
	out := make([]int, k)
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}

func TestABKUPolicyPicksLeastLoadedProbe(t *testing.T) {
	const n, d = 32, 3
	st := NewStoreShards(n, 4)
	for b := 0; b < n; b++ {
		st.Crash(b, b) // distinct loads: bin index == load
	}
	for seed := uint64(0); seed < 20; seed++ {
		probes := predictProbes(seed, n, d)
		want := probes[0]
		for _, b := range probes[1:] {
			if st.Load(b) < st.Load(want) {
				want = b
			}
		}
		p := NewABKUPolicy(d)
		bin, used := pickOne(p, st, rng.NewStream(seed, 0))
		if used != d {
			t.Fatalf("seed %d: ABKU[%d] used %d probes", seed, d, used)
		}
		if bin != want {
			t.Fatalf("seed %d: picked bin %d (load %d), want %d (load %d) among probes %v",
				seed, bin, st.Load(bin), want, st.Load(want), probes)
		}
	}
}

func TestADAPPolicyStopsByThreshold(t *testing.T) {
	const n = 16
	st := NewStoreShards(n, 4)
	for b := 0; b < n; b++ {
		st.Crash(b, 2) // uniform load 2 everywhere
	}
	// x_2 = 3: with every bin at load 2 the rule must probe exactly 3
	// times and keep the first probe (ties never displace the minimum).
	p := NewADAPPolicy(rules.SliceThresholds{1, 2, 3})
	for seed := uint64(0); seed < 10; seed++ {
		probes := predictProbes(seed, n, 3)
		bin, used := pickOne(p, st, rng.NewStream(seed, 0))
		if used != 3 {
			t.Fatalf("seed %d: used %d probes, want 3", seed, used)
		}
		if bin != probes[0] {
			t.Fatalf("seed %d: picked %d, want first probe %d", seed, bin, probes[0])
		}
	}
	// A load-0 bin satisfies x_0 = 1 immediately: one probe.
	st0 := NewStoreShards(n, 4)
	if _, used := pickOne(p, st0, rng.New(3)); used != 1 {
		t.Fatalf("on an empty store ADAP used %d probes, want 1", used)
	}
}

func TestMixedPolicyProbeCounts(t *testing.T) {
	st := NewStoreShards(8, 2)
	st.Crash(0, 5)
	always := NewMixedPolicy(1.0)
	never := NewMixedPolicy(0.0)
	for seed := uint64(0); seed < 10; seed++ {
		if _, used := pickOne(always, st, rng.NewStream(seed, 0)); used != 2 {
			t.Fatalf("beta=1 used %d probes, want 2", used)
		}
		if _, used := pickOne(never, st, rng.NewStream(seed, 0)); used != 1 {
			t.Fatalf("beta=0 used %d probes, want 1", used)
		}
	}
	// The coin is drawn before any probe, matching rules.Mixed's draw
	// order: the picked bin is the draw *after* the coin.
	r1 := rng.New(9)
	r1.Float64() // the coin
	wantBin := r1.Intn(8)
	bin, _ := pickOne(never, st, rng.New(9))
	if bin != wantBin {
		t.Fatalf("coin/probe draw order differs from rules.Mixed: got bin %d, want %d", bin, wantBin)
	}
}

func TestPolicyCloneIndependence(t *testing.T) {
	xs := rules.SliceThresholds{1, 2, 2}
	p := NewADAPPolicy(xs)
	xs[1] = 99 // caller mutates its slice after construction
	clone := p.Clone()
	if p.Name() != clone.Name() {
		t.Fatalf("clone renamed the policy: %q vs %q", p.Name(), clone.Name())
	}
	// Both the original and the clone must still see the original
	// thresholds (defensive copies at construction and at Clone).
	ap := p.(*adapPolicy)
	cp := clone.(*adapPolicy)
	if ap.x.X(1) != 2 || cp.x.X(1) != 2 {
		t.Fatalf("threshold mutation leaked: orig x_1=%d clone x_1=%d", ap.x.X(1), cp.x.X(1))
	}
}

func TestParsePolicy(t *testing.T) {
	good := map[string]string{
		"abku:2":     "ABKU[2]",
		"abku":       "ABKU[2]",
		"abku3":      "ABKU[3]",
		"abku:1":     "Uniform",
		"uniform":    "Uniform",
		"adap:1,2,2": "ADAP(1,2,2,...)",
		"mixed:0.25": "Mixed(0.25)",
		"mixed":      "Mixed(0.50)",
	}
	for spec, want := range good {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		if p.Name() != want {
			t.Fatalf("ParsePolicy(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	bad := []string{"", "abku:0", "adap:", "adap:2,1", "adap:0", "mixed:1.5", "mixed:x", "rr", "abku:x"}
	for _, spec := range bad {
		if _, err := ParsePolicy(spec); err == nil {
			t.Fatalf("ParsePolicy(%q) succeeded, want error", spec)
		}
	}
}

func TestPolicyNamesMatchRules(t *testing.T) {
	// The service and the simulator must report identical rule names,
	// so tables and dashboards line up.
	pairs := []struct {
		p Policy
		r rules.Rule
	}{
		{NewABKUPolicy(2), rules.NewABKU(2)},
		{NewABKUPolicy(1), rules.NewUniform()},
		{NewADAPPolicy(rules.SliceThresholds{1, 2, 2}), rules.NewAdaptive(rules.SliceThresholds{1, 2, 2})},
		{NewMixedPolicy(0.5), rules.NewMixed(0.5)},
	}
	for _, pair := range pairs {
		if pair.p.Name() != pair.r.Name() {
			t.Fatalf("policy %q != rule %q", pair.p.Name(), pair.r.Name())
		}
	}
}
