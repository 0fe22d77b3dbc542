package serve

import (
	"fmt"
	"math"
	"strings"

	"dynalloc/internal/fluid"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/rules"
)

// Policy is the online admission counterpart of rules.Rule: where a
// Rule picks a *position* of a normalized load vector, a Policy picks
// an actual *bin* of a live Store by probing loads lock-free. The
// shipped policies realize exactly the paper's insertion rules —
// ABKU[d], ADAP(x) and the (1+beta)-choice mixture — and share their
// parameter types (rules.Thresholds) with the offline code, so one
// threshold sequence configures the simulator, the fluid baseline and
// the service identically.
//
// Implementations must be immutable after construction; workers obtain
// an independent copy through Clone (the serve-side mirror of
// rules.CloneForWorker), so no mutable rule state is ever shared.
type Policy interface {
	// Name identifies the policy, matching the rules package naming
	// ("ABKU[2]", "ADAP(1,2,...)", "Mixed(0.50)").
	Name() string
	// PickBatch fills bins with one destination per entry — a pass of
	// len(bins) balls; a pass of one is the paper's single insertion —
	// drawing probe positions (and, for mixtures, coins) from r and
	// reading live loads from st, and returns the total probe count.
	// Entries are picked in order from the one stream, so a pass of k
	// consumes exactly the randomness of k passes of one; within a pass,
	// later entries do not see earlier entries' admissions — the bounded
	// staleness every concurrent d-choice deployment already has.
	// Implementations must not allocate: PickBatch sits on the
	// zero-alloc admission path gated by the TestAllocBudget tier.
	PickBatch(st *Store, r *rng.RNG, bins []int) (probes int)
	// Clone returns an independent copy for a new worker.
	Clone() Policy
	// FluidModel returns the fluid-limit model of this insertion rule
	// under the given departure scenario, used by the recovery detector
	// to predict the typical (stationary) maximum load.
	FluidModel(sc process.Scenario, cap int) *fluid.Model
}

// BatchPolicy is Policy. The frozen benchmark harness, which asserts
// shipped policies to this name, is its only reason.
type BatchPolicy = Policy

// maxAdmissionProbes caps a single admission's probe loop, mirroring
// rules.maxAdaptiveProbes: a defense against mis-specified thresholds,
// not a semantic limit.
const maxAdmissionProbes = 1 << 20

// adapPolicy is ADAP(x) on live bins: probe uniform bins, track the
// least loaded bin seen, place the ball at probe M once x_l <= M where
// l is that bin's load. With x ≡ d this is ABKU[d].
type adapPolicy struct {
	x    rules.Thresholds
	name string
}

// NewADAPPolicy returns the online ADAP(x) admission policy. The
// threshold sequence is cloned per worker via rules.CloneThresholds.
func NewADAPPolicy(x rules.Thresholds) Policy {
	return &adapPolicy{x: rules.CloneThresholds(x), name: fmt.Sprintf("ADAP(%s)", x.String())}
}

// NewABKUPolicy returns the online ABKU[d] admission policy: probe d
// uniform bins and place the ball in the least loaded.
func NewABKUPolicy(d int) Policy {
	if d < 1 {
		panic("serve: ABKU needs d >= 1")
	}
	name := fmt.Sprintf("ABKU[%d]", d)
	if d == 1 {
		name = "Uniform"
	}
	return &adapPolicy{x: rules.ConstThresholds(d), name: name}
}

func (p *adapPolicy) Name() string { return p.name }

// pick places one ball.
func (p *adapPolicy) pick(st *Store, r *rng.RNG) (bin, probes int) {
	best, bestLoad := -1, 0
	for m := 1; m <= maxAdmissionProbes; m++ {
		b := r.Intn(st.n)
		if l := st.Load(b); best < 0 || l < bestLoad {
			best, bestLoad = b, l
		}
		if p.x.X(bestLoad) <= m {
			return best, m
		}
	}
	panic(fmt.Sprintf("serve: %s did not place a ball within %d probes (thresholds too large?)", p.name, maxAdmissionProbes))
}

// PickBatch implements Policy: one pick per entry, a direct method
// call, so no interface dispatch or allocation per ball.
func (p *adapPolicy) PickBatch(st *Store, r *rng.RNG, bins []int) int {
	probes := 0
	for i := range bins {
		b, m := p.pick(st, r)
		bins[i] = b
		probes += m
	}
	return probes
}

func (p *adapPolicy) Clone() Policy {
	return &adapPolicy{x: rules.CloneThresholds(p.x), name: p.name}
}

func (p *adapPolicy) FluidModel(sc process.Scenario, cap int) *fluid.Model {
	return fluid.NewModel(rules.CloneThresholds(p.x), sc, cap)
}

// mixedPolicy is the (1+beta)-choice rule on live bins: with
// probability beta place with two probes (ABKU[2]), otherwise with one.
// The coin is drawn before any probe, matching the draw order of
// rules.Mixed so single-worker runs consume randomness identically.
type mixedPolicy struct {
	beta float64
	name string
}

// NewMixedPolicy returns the online (1+beta)-choice admission policy.
// It panics unless beta is in [0, 1].
func NewMixedPolicy(beta float64) Policy {
	if beta < 0 || beta > 1 || math.IsNaN(beta) {
		panic("serve: Mixed beta out of [0,1]")
	}
	return &mixedPolicy{beta: beta, name: fmt.Sprintf("Mixed(%.2f)", beta)}
}

func (p *mixedPolicy) Name() string { return p.name }

// pick places one ball.
func (p *mixedPolicy) pick(st *Store, r *rng.RNG) (bin, probes int) {
	two := r.Float64() < p.beta
	b1 := r.Intn(st.n)
	if !two {
		return b1, 1
	}
	b2 := r.Intn(st.n)
	if st.Load(b2) < st.Load(b1) {
		return b2, 2
	}
	return b1, 2
}

// PickBatch implements Policy; see adapPolicy.PickBatch.
func (p *mixedPolicy) PickBatch(st *Store, r *rng.RNG, bins []int) int {
	probes := 0
	for i := range bins {
		b, m := p.pick(st, r)
		bins[i] = b
		probes += m
	}
	return probes
}

func (p *mixedPolicy) Clone() Policy { c := *p; return &c }

func (p *mixedPolicy) FluidModel(sc process.Scenario, cap int) *fluid.Model {
	return fluid.NewMixedModel(p.beta, sc, cap)
}

// ParsePolicy builds a policy from a compact spec string, as used by
// CLI flags and the bench suite:
//
//	"abku:2"            ABKU[2]  (also "abku2"; "uniform" == "abku:1")
//	"adap:1,2,2,3"      ADAP with the given threshold prefix
//	"mixed:0.5"         (1+beta)-choice with beta = 0.5
func ParsePolicy(spec string) (Policy, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "uniform":
		return NewABKUPolicy(1), nil
	case "abku":
		d := 2
		if arg != "" {
			if _, err := fmt.Sscanf(arg, "%d", &d); err != nil {
				return nil, fmt.Errorf("serve: bad abku spec %q: %v", spec, err)
			}
		}
		if d < 1 {
			return nil, fmt.Errorf("serve: abku needs d >= 1, got %d", d)
		}
		return NewABKUPolicy(d), nil
	case "adap":
		if arg == "" {
			return nil, fmt.Errorf("serve: adap spec needs thresholds, e.g. adap:1,2,2")
		}
		var xs rules.SliceThresholds
		for _, f := range strings.Split(arg, ",") {
			var x int
			if _, err := fmt.Sscanf(f, "%d", &x); err != nil {
				return nil, fmt.Errorf("serve: bad adap threshold %q in %q", f, spec)
			}
			if x < 1 {
				return nil, fmt.Errorf("serve: adap thresholds must be >= 1, got %d", x)
			}
			xs = append(xs, x)
		}
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				return nil, fmt.Errorf("serve: adap thresholds must be nondecreasing in %q", spec)
			}
		}
		return NewADAPPolicy(xs), nil
	case "mixed":
		beta := 0.5
		if arg != "" {
			if _, err := fmt.Sscanf(arg, "%g", &beta); err != nil {
				return nil, fmt.Errorf("serve: bad mixed spec %q: %v", spec, err)
			}
		}
		if beta < 0 || beta > 1 {
			return nil, fmt.Errorf("serve: mixed beta must be in [0,1], got %g", beta)
		}
		return NewMixedPolicy(beta), nil
	}
	// Bare "abku2"-style shorthand.
	var d int
	if n, err := fmt.Sscanf(spec, "abku%d", &d); n == 1 && err == nil && d >= 1 {
		return NewABKUPolicy(d), nil
	}
	return nil, fmt.Errorf("serve: unknown policy spec %q (want abku:<d>, adap:<x1,x2,...>, mixed:<beta>, uniform)", spec)
}
