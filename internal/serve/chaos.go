package serve

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/rng"
	"dynalloc/internal/vfs"
)

// chaosStreamOffset keeps the injector's rng stream disjoint from the
// drive's decision stream (0) and from the dgram connections' streams,
// which start at DgramStream + 1.
const chaosStreamOffset = 1 << 34

// Chaos catastrophe kinds. Each is one fault family the injector can
// draw when a catastrophe fires; docs/CHAOS.md has the full taxonomy.
const (
	// ChaosCrash relocates a fraction of the store's balls into one
	// random bin — the paper's adversarial "all the mass in one place"
	// state, arriving at a Poisson time instead of at boot. It is
	// mass-preserving (balls are freed uniformly first, then dumped),
	// so the recovery target computed at boot stays valid no matter how
	// many catastrophes land.
	ChaosCrash = "crash"
	// ChaosStall arms a sync delay on the WAL filesystem: every fsync
	// sleeps, as on a hung device. Repaired after an exponential window.
	ChaosStall = "stall"
	// ChaosNoSpace arms a write fault on the WAL filesystem: creates
	// and writes fail as on a full disk. Repaired after an exponential
	// window; the WAL heals onto a fresh segment (wal.segment.aborts).
	ChaosNoSpace = "enospc"
	// ChaosPowerCut severs a simulated filesystem a few operations from
	// now — a power event landing mid-write (often mid-checkpoint).
	// Test mode only: it needs a PowerCutter (simfs implements it) and
	// is never armed against a real disk.
	ChaosPowerCut = "powercut"
)

// PowerCutter is the test-mode power-event hook; *simfs.FS implements
// it. Kept as a local interface so serve does not depend on simfs.
type PowerCutter interface {
	CrashAfterOps(k int)
}

// ChaosConfig configures a ChaosInjector.
type ChaosConfig struct {
	Store    *Store    // required: the store catastrophes land on
	Detector *Detector // required: every catastrophe is a NoteFault here

	Rate float64 // catastrophes per second (Poisson); default 0.5
	Seed uint64  // rng seed; the injector uses a derived stream

	// Faults is the catastrophe menu, drawn uniformly per firing. Empty
	// means everything available: ChaosCrash always, ChaosStall and
	// ChaosNoSpace when FaultFS is set, ChaosPowerCut when PowerCut is.
	Faults []string

	CrashFrac  float64       // fraction of balls a crash relocates; default 1/16
	RepairMean time.Duration // mean exponential repair window for disk faults; default 250ms
	StallDelay time.Duration // per-fsync sleep while stalled; default 5ms

	FaultFS     *vfs.FaultFS // WAL-directory fault seam; nil disables stall/enospc
	PowerCut    PowerCutter  // test-mode power events; nil disables powercut
	PowerCutOps int          // max ops ahead a power cut is scheduled; default 32

	OnFault func(kind string) // optional observer, called after each catastrophe
}

// ChaosInjector fires Poisson-timed catastrophes at a live store — the
// continuous-fault regime the self-stabilization results describe,
// in the style of the classic catastrophe simulators: exponential
// interarrivals at Rate, a uniformly drawn catastrophe kind per
// firing, and exponential repair windows for the faults that persist
// (disk stall, ENOSPC). Every catastrophe is reported to the Detector
// via NoteFault, so the detector attributes episodes to fault
// kinds and measures each recovery from the first fault of its outage.
//
// Counters: serve.chaos.catastrophes (total) and serve.chaos.<kind>
// per kind; the serve.chaos.disk_faulted gauge is 1 while a disk fault
// is armed. Run blocks until ctx is done and clears any armed faults
// on the way out.
type ChaosInjector struct {
	cfg   ChaosConfig
	kinds []string
	r     *rng.RNG

	fired   atomic.Int64
	repairs atomic.Int64 // outstanding disk-fault repairs
}

// NewChaosInjector validates cfg, fills defaults, and returns an
// injector ready to Run.
func NewChaosInjector(cfg ChaosConfig) (*ChaosInjector, error) {
	if cfg.Store == nil || cfg.Detector == nil {
		return nil, fmt.Errorf("serve: chaos needs a Store and a Detector")
	}
	if cfg.Rate == 0 {
		cfg.Rate = 0.5
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("serve: chaos rate must be > 0, got %g", cfg.Rate)
	}
	if cfg.CrashFrac == 0 {
		cfg.CrashFrac = 1.0 / 16
	}
	if cfg.CrashFrac < 0 || cfg.CrashFrac > 1 {
		return nil, fmt.Errorf("serve: chaos crash fraction must be in (0,1], got %g", cfg.CrashFrac)
	}
	if cfg.RepairMean <= 0 {
		cfg.RepairMean = 250 * time.Millisecond
	}
	if cfg.StallDelay <= 0 {
		cfg.StallDelay = 5 * time.Millisecond
	}
	if cfg.PowerCutOps <= 0 {
		cfg.PowerCutOps = 32
	}

	kinds := cfg.Faults
	if len(kinds) == 0 {
		kinds = []string{ChaosCrash}
		if cfg.FaultFS != nil {
			kinds = append(kinds, ChaosStall, ChaosNoSpace)
		}
		if cfg.PowerCut != nil {
			kinds = append(kinds, ChaosPowerCut)
		}
	}
	seen := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		if seen[k] {
			return nil, fmt.Errorf("serve: duplicate chaos fault %q", k)
		}
		seen[k] = true
		switch k {
		case ChaosCrash:
		case ChaosStall, ChaosNoSpace:
			if cfg.FaultFS == nil {
				return nil, fmt.Errorf("serve: chaos fault %q needs a FaultFS (run with a WAL directory)", k)
			}
		case ChaosPowerCut:
			if cfg.PowerCut == nil {
				return nil, fmt.Errorf("serve: chaos fault %q needs a PowerCutter (test mode only)", k)
			}
		default:
			return nil, fmt.Errorf("serve: unknown chaos fault %q (want %s, %s, %s or %s)",
				k, ChaosCrash, ChaosStall, ChaosNoSpace, ChaosPowerCut)
		}
	}
	sort.Strings(kinds)
	return &ChaosInjector{
		cfg:   cfg,
		kinds: kinds,
		r:     rng.NewStream(cfg.Seed, chaosStreamOffset),
	}, nil
}

// Kinds returns the catastrophe menu the injector draws from.
func (c *ChaosInjector) Kinds() []string { return append([]string(nil), c.kinds...) }

// Fired returns how many catastrophes have fired.
func (c *ChaosInjector) Fired() int64 { return c.fired.Load() }

// Run fires catastrophes until ctx is done: exponential interarrival
// at cfg.Rate, one uniformly drawn catastrophe per arrival. It blocks;
// run it in a goroutine. Any armed disk fault is cleared on return.
func (c *ChaosInjector) Run(ctx context.Context) {
	metrics.SetGauge("serve.chaos.rate", c.cfg.Rate)
	defer func() {
		if c.cfg.FaultFS != nil {
			c.cfg.FaultFS.ClearFaults()
			metrics.SetGauge("serve.chaos.disk_faulted", 0)
		}
	}()
	timer := time.NewTimer(c.interarrival())
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
			c.fire()
			timer.Reset(c.interarrival())
		}
	}
}

// interarrival draws the next Poisson gap.
func (c *ChaosInjector) interarrival() time.Duration {
	return time.Duration(c.r.Exp() / c.cfg.Rate * float64(time.Second))
}

// fire executes one catastrophe.
func (c *ChaosInjector) fire() {
	kind := c.kinds[c.r.Intn(len(c.kinds))]
	switch kind {
	case ChaosCrash:
		if !c.fireCrash() {
			return // nothing to relocate; not a catastrophe
		}
	case ChaosStall:
		c.cfg.FaultFS.SetSyncDelay(c.cfg.StallDelay)
		c.scheduleRepair(func() { c.cfg.FaultFS.SetSyncDelay(0) })
	case ChaosNoSpace:
		c.cfg.FaultFS.SetWriteError(vfs.ErrInjectedNoSpace)
		c.scheduleRepair(func() { c.cfg.FaultFS.SetWriteError(nil) })
	case ChaosPowerCut:
		c.cfg.PowerCut.CrashAfterOps(1 + c.r.Intn(c.cfg.PowerCutOps))
	}
	c.fired.Add(1)
	c.cfg.Detector.NoteFault(kind)
	metrics.AddCounter("serve.chaos.catastrophes", 1)
	metrics.AddCounter("serve.chaos."+kind, 1)
	if c.cfg.OnFault != nil {
		c.cfg.OnFault(kind)
	}
}

// fireCrash relocates CrashFrac of the store's balls into one random
// bin: balls leave uniformly (scenario-A departures) and land as one
// overload, manufacturing the adversarial state without changing the
// total mass. Returns false when the store had nothing to move.
func (c *ChaosInjector) fireCrash() bool {
	st := c.cfg.Store
	k := int(c.cfg.CrashFrac * float64(st.Total()))
	if k < 1 {
		k = 1
	}
	freed := 0
	for i := 0; i < k; i++ {
		if _, err := st.FreeBall(c.r); err != nil {
			break
		}
		freed++
	}
	if freed == 0 {
		return false
	}
	bin := c.r.Intn(st.N())
	st.Crash(bin, freed)
	metrics.ObserveHistogram("serve.chaos.crash_balls", int64(freed))
	return true
}

// scheduleRepair clears a disk fault after an exponentially
// distributed window (drawn here, on the injector's rng stream, so
// firing order stays deterministic for a fixed seed).
func (c *ChaosInjector) scheduleRepair(repair func()) {
	window := time.Duration(c.r.Exp() * float64(c.cfg.RepairMean))
	if c.repairs.Add(1) == 1 {
		metrics.SetGauge("serve.chaos.disk_faulted", 1)
	}
	time.AfterFunc(window, func() {
		repair()
		if c.repairs.Add(-1) == 0 {
			metrics.SetGauge("serve.chaos.disk_faulted", 0)
		}
	})
}
