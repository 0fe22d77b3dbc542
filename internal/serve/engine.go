package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// Config describes a traffic drive: workers replaying the paper's
// remove-then-insert phases against a live Store.
type Config struct {
	Store    *Store
	Policy   Policy
	Scenario process.Scenario

	// Workers is the number of concurrent drive goroutines (default 1).
	// Each worker draws from its own deterministic rng stream
	// (rng.NewStream(Seed, worker)), so a single-worker run is exactly
	// reproducible; multi-worker runs are reproducible per worker but
	// interleave nondeterministically at the store.
	Workers int
	Seed    uint64

	// Rate, when positive, paces the drive as an open loop: phases are
	// issued at `Rate` per second in aggregate, with exponential
	// interarrival times drawn from a separate pacing stream (so pacing
	// does not perturb the allocation decisions). Rate == 0 is a closed
	// loop: each worker issues its next phase immediately.
	Rate float64

	// MaxSteps stops the drive after this many phases in total
	// (0 = unlimited; stop via ctx or StopOnRecovery instead).
	MaxSteps int64

	// Detector, when set, is checked every CheckEvery phases (default:
	// max(1024, n)) by whichever worker crosses the cadence.
	Detector   *Detector
	CheckEvery int64

	// StopOnRecovery stops the drive at the first detector check that
	// observes the typical state.
	StopOnRecovery bool

	// Batch is the pass size b of every worker's admission lane (see
	// Batcher): each pass removes up to b balls through the scenario,
	// picks b destinations against the loads as they stand, and admits
	// them with one Store.AdmitBatch. 0 or 1 (the default) is a pass of
	// one — the paper's remove-then-insert phase, bit for bit; b > 1 is
	// the b-batched variant whose picks do not see the pass's own
	// admissions, paid back in lock acquisitions and, with a Journal
	// installed, in whole runs handed to the group-commit writer.
	// Detector checks fire on the CheckEvery cadence (at the pass that
	// crosses it), and the final pass is clamped to the steps MaxSteps
	// still allows; the stop is cooperative, so concurrent workers can
	// overshoot MaxSteps by at most one pass each.
	Batch int
}

// Result summarizes one Engine.Run.
type Result struct {
	Steps     int64         // phases executed
	Wall      time.Duration // wall-clock duration of the run
	Recovered bool          // detector state at the end (false without a detector)
	Episode   Episode       // last completed recovery episode
	Episodes  int64         // completed episodes
}

// Engine drives traffic through a Store: each phase removes one ball
// per the departure scenario and admits one through the policy — the
// online form of the closed processes of Section 2. It is the
// subsystem's load generator for benchmarks, the -drive mode of
// cmd/dynallocd, and the harness the recovery integration tests run.
type Engine struct {
	cfg   Config
	steps atomic.Int64
	halt  atomic.Bool
}

// NewEngine validates cfg, fills in defaults, and returns an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Store == nil || cfg.Policy == nil {
		panic("serve: engine needs a store and a policy")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = int64(cfg.Store.N())
		if cfg.CheckEvery < 1024 {
			cfg.CheckEvery = 1024
		}
	}
	return &Engine{cfg: cfg}
}

// Run drives traffic until ctx is done, MaxSteps phases have executed,
// the store runs out of balls to depart, or (with StopOnRecovery) the
// detector observes the typical state. It blocks until every worker has
// exited and returns the run summary. Per-worker phase latency
// histograms (a pass's wall time — departures, picks and admissions —
// divided by its phases) are merged into the "serve.alloc.latency_ns"
// metric, and the phase counters are flushed to "serve.engine.phases",
// when collection is enabled.
func (e *Engine) Run(ctx context.Context) Result {
	cfg := e.cfg
	start := time.Now()
	hists := make([]*metrics.Histogram, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		hists[w] = &metrics.Histogram{}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			e.drive(ctx, worker, hists[worker])
		}(w)
	}
	wg.Wait()

	res := Result{Steps: e.steps.Load(), Wall: time.Since(start)}
	if cfg.Detector != nil {
		res.Recovered = cfg.Detector.Recovered()
		res.Episode, res.Episodes = cfg.Detector.LastEpisode()
	}
	if metrics.Enabled() {
		agg := metrics.Default().Histogram("serve.alloc.latency_ns")
		for _, h := range hists {
			agg.Merge(h)
		}
		metrics.AddCounter("serve.engine.phases", res.Steps)
	}
	return res
}

// drive is one worker's loop: Batcher passes of up to Config.Batch
// phases under the engine's control surface — halt flag, ctx polls,
// open-loop pacing, MaxSteps, detector cadence. Pacing draws one
// exponential wait per pass, scaled by the pass size, so the aggregate
// phase rate does not depend on the pass size.
func (e *Engine) drive(ctx context.Context, worker int, lat *metrics.Histogram) {
	cfg := e.cfg
	bt := NewBatcher(cfg.Store, cfg.Policy, cfg.Scenario, cfg.Batch)
	r := rng.NewStream(cfg.Seed, uint64(worker))
	var pace *rng.RNG
	var perWorkerRate float64
	if cfg.Rate > 0 {
		pace = rng.NewStream(cfg.Seed, uint64(worker)+PacingStream)
		perWorkerRate = cfg.Rate / float64(cfg.Workers)
	}
	done := ctx.Done()
	record := metrics.Enabled()

	for i := 0; ; i++ {
		if e.halt.Load() {
			return
		}
		if i&15 == 0 {
			select {
			case <-done:
				return
			default:
			}
		}
		k := cfg.Batch
		if cfg.MaxSteps > 0 {
			rem := cfg.MaxSteps - e.steps.Load()
			if rem <= 0 {
				e.halt.Store(true)
				return
			}
			if int64(k) > rem {
				k = int(rem)
			}
		}
		if pace != nil {
			sleep := time.Duration(pace.Exp() / perWorkerRate * float64(k) * float64(time.Second))
			select {
			case <-done:
				return
			case <-time.After(sleep):
			}
		}

		var phases int
		var err error
		if record {
			t0 := time.Now()
			phases, err = bt.Pass(r, k)
			if phases > 0 {
				lat.Observe(time.Since(t0).Nanoseconds() / int64(phases))
			}
		} else {
			phases, err = bt.Pass(r, k)
		}
		if phases == 0 {
			if err != nil {
				// Only ErrEmpty can surface here: something beside the drive
				// drained the store (closed-loop passes re-insert what they
				// remove). Stop rather than spin.
				e.halt.Store(true)
			}
			return
		}

		t := e.steps.Add(int64(phases))
		if err != nil || (cfg.MaxSteps > 0 && t >= cfg.MaxSteps) {
			e.halt.Store(true)
			return
		}
		if cfg.Detector != nil && t/cfg.CheckEvery != (t-int64(phases))/cfg.CheckEvery {
			s := cfg.Detector.Check()
			if cfg.StopOnRecovery && s.Recovered {
				e.halt.Store(true)
				return
			}
		}
	}
}
