package serve

import (
	"context"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// Config describes a traffic drive: the paper's remove-then-insert
// phases replayed against a live Store.
type Config struct {
	Store    *Store
	Policy   Policy
	Scenario process.Scenario

	// Seed selects the drive's rng: stream (Seed, 0), so a drive is
	// exactly reproducible from its seed.
	Seed uint64

	// MaxSteps stops the drive after exactly this many phases
	// (0 = unlimited; stop via ctx or StopOnRecovery instead).
	MaxSteps int64

	// Detector, when set, is checked every CheckEvery phases (default:
	// max(1024, n)), at the pass that crosses the cadence.
	Detector   *Detector
	CheckEvery int64

	// StopOnRecovery stops the drive at the first detector check that
	// observes the typical state.
	StopOnRecovery bool

	// Batch is the pass size b of the drive's admission lane (see
	// Batcher): each pass removes up to b balls through the scenario,
	// picks b destinations against the loads as they stand, and admits
	// them with one Store.AdmitBatch. 0 or 1 (the default) is a pass of
	// one — the paper's remove-then-insert phase, bit for bit; b > 1 is
	// the b-batched variant whose picks do not see the pass's own
	// admissions, paid back in lock acquisitions and, with a Journal
	// installed, in whole runs handed to the group-commit writer. The
	// final pass is clamped to the steps MaxSteps still allows.
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
// online form of the closed processes of Section 2, as one sequential
// chain. It is the subsystem's load generator for benchmarks, the
// -drive mode of cmd/dynallocd, and the harness the recovery
// integration tests run.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg, fills in defaults, and returns an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Store == nil || cfg.Policy == nil {
		panic("serve: engine needs a store and a policy")
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

// Run drives traffic in the calling goroutine until ctx is done,
// MaxSteps phases have executed, the store runs out of balls to
// depart, or (with StopOnRecovery) the detector observes the typical
// state, and returns the run summary. When collection is enabled, each
// pass's wall time — departures, picks and admissions — divided by its
// phases is observed in the "serve.alloc.latency_ns" histogram, and
// the phases are added to "serve.engine.phases".
func (e *Engine) Run(ctx context.Context) Result {
	cfg := e.cfg
	start := time.Now()
	res := Result{Steps: e.drive(ctx), Wall: time.Since(start)}
	if cfg.Detector != nil {
		res.Recovered = cfg.Detector.Recovered()
		res.Episode, res.Episodes = cfg.Detector.LastEpisode()
	}
	if metrics.Enabled() {
		metrics.AddCounter("serve.engine.phases", res.Steps)
	}
	return res
}

// drive is the loop: Batcher passes of up to Config.Batch phases under
// the engine's control surface — ctx polls, MaxSteps, detector
// cadence. It returns the phases executed.
func (e *Engine) drive(ctx context.Context) int64 {
	cfg := e.cfg
	bt := NewBatcher(cfg.Store, cfg.Policy, cfg.Scenario, cfg.Batch)
	r := rng.NewStream(cfg.Seed, 0)
	done := ctx.Done()
	var lat *metrics.Histogram
	if metrics.Enabled() {
		lat = metrics.Default().Histogram("serve.alloc.latency_ns")
	}

	var steps int64
	for i := 0; ; i++ {
		if i&15 == 0 {
			select {
			case <-done:
				return steps
			default:
			}
		}
		k := cfg.Batch
		if cfg.MaxSteps > 0 {
			k = int(min(int64(k), cfg.MaxSteps-steps))
		}

		var phases int
		var err error
		if lat != nil {
			t0 := time.Now()
			phases, err = bt.Pass(r, k)
			if phases > 0 {
				lat.Observe(time.Since(t0).Nanoseconds() / int64(phases))
			}
		} else {
			phases, err = bt.Pass(r, k)
		}
		// A short pass means something beside the drive drained the
		// store (closed-loop passes re-insert what they remove): stop
		// rather than spin.
		steps += int64(phases)
		if err != nil || (cfg.MaxSteps > 0 && steps >= cfg.MaxSteps) {
			return steps
		}
		if cfg.Detector != nil && steps/cfg.CheckEvery != (steps-int64(phases))/cfg.CheckEvery {
			s := cfg.Detector.Check()
			if cfg.StopOnRecovery && s.Recovered {
				return steps
			}
		}
	}
}
