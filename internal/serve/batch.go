package serve

import (
	"fmt"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// Batcher is one worker's admission lane through the engine — the only
// one: each Pass drives up to `batch` remove-then-insert phases as one
// critical section of the store (see the package comment): it takes
// the store's mutex once, draws k departures through the scenario
// exactly as a quiescent store would, picks k destinations through the
// policy's batch path, admits all k in entry order, and publishes the
// counters once. A pass of size 1 is exactly one phase of the paper's
// closed process: free draw, then pick, then admit, from one stream.
// All pass state (the departed and destination bins, pre-resolved
// metric counters) lives in the Batcher, so a steady stream of passes
// performs zero heap allocations on the non-durable path; the
// TestAllocBudget tier and the serve/admit-batch bench workload gate
// exactly that.
//
// Within one pass of size b > 1 the policy's probes do not see the
// pass's own admissions — the same bounded staleness any concurrent
// d-choice deployment has (and precisely what the cluster router's
// pipelined dgram AdmitBatch already accepts shard-to-router); the
// departure draws of the next pass see every prior admission. Because
// the policy picks inside the section, PickBatch must only read the
// store. A Batcher is single-caller state: give each worker its own.
type Batcher struct {
	st    *Store
	pol   Policy
	sc    process.Scenario
	freed []int
	bins  []int

	// Counters are resolved once here: the registry lookup takes a
	// read lock and hashes the name, which has no place in the hot loop.
	balls  *metrics.Counter
	passes *metrics.Counter
}

// NewBatcher returns a batch lane over st driving phases of the given
// scenario with its own clone of pol. batch (>= 1) is the pass
// capacity — the largest k a single Pass will drive.
func NewBatcher(st *Store, pol Policy, sc process.Scenario, batch int) *Batcher {
	if st == nil || pol == nil {
		panic("serve: batcher needs a store and a policy")
	}
	if batch < 1 {
		panic("serve: batcher needs batch >= 1")
	}
	if sc != process.ScenarioA && sc != process.ScenarioB {
		panic(fmt.Sprintf("serve: unknown scenario %v", sc))
	}
	reg := metrics.Default()
	return &Batcher{
		st:     st,
		pol:    pol.Clone(),
		sc:     sc,
		freed:  make([]int, batch),
		bins:   make([]int, batch),
		balls:  reg.Counter("serve.admit.batch.balls"),
		passes: reg.Counter("serve.admit.batch.passes"),
	}
}

// Pass drives one super-phase of k phases (clamped to the pass
// capacity): k scenario departures, then k admissions picked through
// the policy's batch path, in one critical section. It returns the
// number of phases completed. A short count with a non-nil error
// (always ErrEmpty) means the store drained mid-pass; the balls freed
// before the drain are still re-admitted, so a Pass never loses mass.
// A pass frees before it admits, so it never grows the store's total
// and needs no overflow check.
func (b *Batcher) Pass(r *rng.RNG, k int) (int, error) {
	k = min(k, len(b.bins))
	st := b.st
	var t tally
	st.mu.Lock()
	freed := st.drawFrees(r, b.sc, b.freed[:k], nil, &t)
	bins := b.bins[:freed]
	if freed > 0 {
		b.pol.PickBatch(st, r, bins)
		for _, bin := range bins {
			st.add(bin, &t)
		}
	}
	st.release(&t, b.freed[:freed], bins)
	var err error
	if freed < k {
		err = ErrEmpty
	}
	if freed > 0 && metrics.Enabled() {
		b.balls.Add(int64(freed))
		b.passes.Inc()
	}
	return freed, err
}
