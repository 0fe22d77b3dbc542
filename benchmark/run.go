package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
)

// One end-to-end run of one workload against real shard processes:
// repeated set-up, the serve act, the fail-and-recover act, and the
// correctness checks that ride along with each.

// metricValue is one reported number.
type metricValue struct {
	value   float64
	unit    string
	samples int    // how many measurements stand behind it (0: a count or a ratio of totals)
	note    string // e.g. which tail percentile a p99 slot really holds
}

// runResult is everything one run reports.
type runResult struct {
	workload  string
	seed      uint64
	traced    bool                   // a traced run: it reports the per-layer metrics only
	metrics   map[string]metricValue // end-to-end metrics by name
	layer     map[string]metricValue // per-layer metrics by name
	attempted int64
	failed    int64
	reasons   []string // why checks failed
}

func (r *runResult) correct() bool { return r.failed == 0 }

// setupReps is how many times a run sets the workload up; setup_s is
// the median, which keeps one slow process start from moving it.
const setupReps = 5

// runner carries one run's accumulating state.
type runner struct {
	e    env
	w    workload
	seed uint64
	k    checks

	clientPhases int64 // acknowledged closed- and open-loop phases
	serveCPU     float64
	serveWall    float64
	genCPU       float64
	opsAttempted int64
	opsFailed    int64

	closed, openLo, openHi stageResult
	late                   summary   // open stages: send time − due time, µs
	restore, mttr          latencies // per recovery cycle, ns
	budgetRatio            []float64 // per cycle: steps to recover ÷ m·ln(4m)
	recoverySteps          int64     // admissions replayed or driven by the recovery cycles
	driveSteps             int64     // the driven ones alone
	cycles                 int
	lostOnKill             int64     // balls by which restored totals missed the last acknowledged state (the journal's unflushed tail)
	clockRegressions       int64     // restarts whose admission clock came back behind the last acknowledged one
	rssMiB                 []float64 // resident memory of all shards, sampled through the serve act
}

// theoremBudget is Theorem 1's recovery bound m·ln(m/ε) at ε = 1/4.
func theoremBudget(m int64) float64 { return float64(m) * math.Log(float64(m)/epsilon) }

func runWorkload(e env, w workload, seed uint64, seconds float64) (*runResult, error) {
	// A directory of the run's own: a shard booted on the durability
	// directory of an earlier run would restore that run's state.
	dir, err := os.MkdirTemp(e.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.work = dir
	r := &runner{e: e, w: w, seed: seed}
	total := time.Duration(seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }

	var setups []float64
	var c *cluster
	var fx *fixture
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		tag := fmt.Sprintf("setup%d", rep)
		if w.fixtureRecords > 0 {
			var err error
			fx, err = buildFixture(filepath.Join(e.work, tag, "fixture"), w.n, w.fixtureRecords, w.crashK, seed)
			if err != nil {
				return nil, fmt.Errorf("fixture: %w", err)
			}
			c = &cluster{w: w, dir: filepath.Join(e.work, tag, "run"), procs: make([]*shardProc, 1), rssKiB: make([]int64, 1)}
			if err := r.primeRestart(c, fx); err != nil {
				return nil, err
			}
		} else {
			if c != nil {
				c.close()
			}
			var err error
			if c, err = boot(e, w, seed, tag); err != nil {
				return nil, err
			}
			if err := warmUp(c, seed); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if w.fixtureRecords > 0 {
		if err := r.recoverAct(c, fx, share(w.recoverShare)); err != nil {
			return nil, err
		}
		if err := c.connect(); err != nil {
			return nil, err
		}
		if err := warmUp(c, seed); err != nil {
			return nil, err
		}
		if err := r.serveAct(c, share); err != nil {
			return nil, err
		}
	} else {
		if err := r.serveAct(c, share); err != nil {
			return nil, err
		}
		if err := r.recoverAct(c, nil, share(w.recoverShare)); err != nil {
			return nil, err
		}
	}

	walBytes := c.walBytes()
	c.close()
	use, peakRSSMiB := c.usage()

	res := &runResult{
		workload:  w.name,
		seed:      seed,
		metrics:   make(map[string]metricValue),
		layer:     make(map[string]metricValue),
		attempted: r.opsAttempted + r.k.made,
		failed:    r.opsFailed + r.k.failed,
		reasons:   r.k.reasons,
	}
	put := func(name, unit string, v float64, samples int, note string) {
		res.metrics[name] = metricValue{value: v, unit: unit, samples: samples, note: note}
	}
	tailNote := func(s summary) string {
		if s.tailP == 99 {
			return ""
		}
		return fmt.Sprintf("p%g: too few samples for p99", s.tailP)
	}
	put("setup_s", "s", median(setups), len(setups), "")
	put("phases_per_s", "1/s", float64(r.closed.phases)/r.closed.wall.Seconds(), int(r.closed.phases), "")
	adm, fre := r.closed.admit.summarize(1e3), r.closed.free.summarize(1e3)
	put("admit_p50_us", "us", adm.p50, adm.n, "")
	put("free_p50_us", "us", fre.p50, fre.n, "")
	lo, hi := r.openLo.phase.summarize(1e3), r.openHi.phase.summarize(1e3)
	put("restore_p50_ms", "ms", r.restore.summarize(1e6).p50, r.restore.count(), "")
	put("mttr_p50_ms", "ms", r.mttr.summarize(1e6).p50, r.mttr.count(), "")
	put("cpu_s_per_mphase", "s", (r.serveCPU+r.genCPU)/float64(r.clientPhases)*1e6, int(r.clientPhases), "")
	if len(r.rssMiB) == 0 {
		r.rssMiB = []float64{peakRSSMiB} // no /proc/<pid>/statm to sample: the peak is what there is
	}
	put("rss_mb", "MiB", median(r.rssMiB), len(r.rssMiB), "")

	out := func(name, unit string, v float64) { res.layer[name] = metricValue{value: v, unit: unit} }
	tail := func(name string, s summary) {
		res.layer[name] = metricValue{value: s.tail, unit: "us", samples: s.n, note: tailNote(s)}
	}
	tail("admit_p99_us", adm)
	tail("free_p99_us", fre)
	res.layer["open_lo_p50_us"] = metricValue{value: lo.p50, unit: "us", samples: lo.n}
	tail("open_lo_p99_us", lo)
	res.layer["open_hi_p50_us"] = metricValue{value: hi.p50, unit: "us", samples: hi.n}
	tail("open_hi_p99_us", hi)
	out("proc.peak_rss_mb", "MiB", peakRSSMiB)
	work := float64(r.clientPhases + r.recoverySteps)
	out("proc.syscalls_per_phase", "count", float64(use.syscr+use.syscw)/work)
	out("proc.sys_cpu_frac", "ratio", safeDiv(use.sysS, use.userS+use.sysS))
	out("proc.write_bytes_per_phase", "B", float64(use.writeBytes)/work)
	out("proc.wal_dir_bytes", "B", float64(walBytes))
	out("loadgen.cpu_frac", "ratio", safeDiv(r.genCPU, r.serveWall))
	out("loadgen.late_p99_us", "us", r.late.tail)
	out("recover.cycles", "count", float64(r.cycles))
	out("recover.budget_ratio", "ratio", median(r.budgetRatio))
	out("recover.steps_per_s", "1/s", safeDiv(float64(r.recoverySteps), r.mttr.sum()/1e9))
	out("recover.lost_on_kill", "count", float64(r.lostOnKill))
	out("recover.clock_regressions", "count", float64(r.clockRegressions))
	out("detector.checks_per_episode", "count", float64(r.driveSteps)/float64(r.cycles)/float64(w.checkEvery))
	return res, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// primeRestart is the restart workload's share of set-up: one untimed
// restart from the fixture, up to the first reply, so that the cycles
// measured afterwards find the binary and the fixture in the page cache
// the way every later cycle does.
func (r *runner) primeRestart(c *cluster, fx *fixture) error {
	if err := fx.copyTo(c.walDir(0)); err != nil {
		return err
	}
	p, err := startShard(r.e.bin, c.dir, "shard0", c.shardArgs(0, r.seed, true))
	if err != nil {
		return err
	}
	c.procs[0] = p
	defer c.killShard(0)
	addr, err := p.waitAddr(bootTimeout)
	if err != nil {
		return err
	}
	mon, err := newMonitor(addr)
	if err != nil {
		return err
	}
	defer mon.close()
	return mon.rt.WaitReady(bootTimeout)
}

// warmUp runs the closed loop for the workload's warm-up count; it is
// part of set-up.
func warmUp(c *cluster, seed uint64) error {
	warm := closedLoop(c.clients(seed), batchOp, 0, c.w.warmOps)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d calls failed", warm.failed, warm.attempted)
	}
	return nil
}

// serveAct runs the closed stage and the two open stages against a
// connected cluster, reading the ledger around each. The CPU the
// shards and the generator use between its first and last call is what
// cpu_s_per_mphase divides by the phases served.
func (r *runner) serveAct(c *cluster, share func(float64) time.Duration) error {
	w := r.w
	clients := c.clients(r.seed)
	stages := []struct {
		name string
		dst  *stageResult
		run  func() stageResult
	}{
		{"closed", &r.closed, func() stageResult {
			return closedLoop(clients, batchOp, share(w.closedShare), 0)
		}},
		{"open-lo", &r.openLo, func() stageResult {
			return openLoop(clients, openBatch, w.openLo, share(w.openLoShare), r.seed, 1)
		}},
		{"open-hi", &r.openHi, func() stageResult {
			return openLoop(clients, openBatch, w.openHi, share(w.openHiShare), r.seed, 2)
		}},
	}
	before, err := c.readLedger()
	if err != nil {
		return err
	}
	gen0, shard0, wall0 := selfCPU(), c.cpuSoFar(), time.Now()
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() {
		var samples []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRSS:
				rssDone <- samples
				return
			case <-tick.C:
				if kib := c.rssNow(); kib > 0 {
					samples = append(samples, float64(kib)/1024)
				}
			}
		}
	}()
	defer func() {
		close(stopRSS)
		r.rssMiB = <-rssDone
	}()
	for _, st := range stages {
		*st.dst = st.run()
		after, err := c.readLedger()
		if err != nil {
			return err
		}
		r.k.conserved(w.name+"/"+st.name, before, after, *st.dst, 0)
		before = after
		r.clientPhases += st.dst.phases
		r.opsAttempted += st.dst.attempted
		r.opsFailed += st.dst.failed
	}
	r.genCPU = selfCPU() - gen0
	r.serveCPU = c.cpuSoFar() - shard0
	r.serveWall = time.Since(wall0).Seconds()

	late := r.openLo.late
	late.merge(&r.openHi.late)
	r.late = late.summarize(1e3)
	r.k.that(r.late.n == 0 || r.late.tail <= lateLimitUs, "%s: generator ran late: p%g of send-minus-due is %.0f us (limit %d)",
		w.name, r.late.tailP, r.late.tail, lateLimitUs)
	return nil
}

// minBinsForEpisodeLimit: below this many bins the maximum load hovers
// around the detector's threshold and an episode can take many budgets
// to be declared over; the per-episode limit is for the real sizes.
const minBinsForEpisodeLimit = 1 << 12

// journalQueue is the most records a kill -9 may cost a durable shard:
// the journal's bounded queue (serve.JournalOptions.Buffer's default)
// plus the writer's batch in flight. Each is worth one ball, except a
// crash record, which is worth crashK.
const journalQueue = 4096 + 512

// settle waits until a durable shard that has stopped receiving
// mutations has written its journal queue out: the interval policy's
// flush lag first (the longest of any policy), then until the durability directory has not grown for 50 ms.
// A kill -9 keeps the page cache, so written is as good as synced here.
// It is best effort — a write stalled for longer than that looks
// settled — which is why the check after the restart allows for the
// queue.
func settle(walDir string) {
	time.Sleep(120 * time.Millisecond) // -fsync-interval's 100 ms and a margin
	size, since := dirBytes(walDir), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if now := dirBytes(walDir); now != size {
			size, since = now, time.Now()
		}
	}
}

// lateLimitUs is how late the generator may run (tail of send time
// minus due time) before the open stages are declared invalid.
const lateLimitUs = 20_000

// rssEvery is the sampling period of rss_mb.
const rssEvery = 100 * time.Millisecond

// monitor is a single-shard router used to watch one shard come back.
type monitor struct {
	rt *router.Router
	s  *router.Session
}

func newMonitor(addr string) (*monitor, error) {
	rt, err := router.New(router.Options{Shards: []string{addr}, D: 1})
	if err != nil {
		return nil, err
	}
	return &monitor{rt: rt, s: rt.NewSession()}, nil
}

func (m *monitor) close() {
	if m != nil {
		m.s.Close()
		m.rt.Close()
	}
}

const (
	// recoverTimeout ends a recovery that is not going to happen.
	recoverTimeout = 60 * time.Second
	// restPolls is how many polls in a row must read the same clocks
	// before a recovered shard counts as at rest.
	restPolls = 20
	// probeEvery is the recovery poll period: the resolution of
	// restore_p50_ms and mttr_p50_ms. Each poll costs the recovering
	// shard a request, so it is not made finer than it has to be.
	probeEvery = time.Millisecond
)

// recoverAct kills and restarts shard 0 for the given time (and at
// least twice), measuring each restart. With a fixture every cycle
// starts from a fresh copy of it; without one, a durable shard is first
// hit with crashK balls in one bin, so that what is restored is a
// disrupted state, and after recovery the same number of balls is
// freed again so that every cycle recovers the same mass.
func (r *runner) recoverAct(c *cluster, fx *fixture, dur time.Duration) error {
	w := r.w
	c.disconnect()
	var mon *monitor
	defer func() { mon.close() }()
	pick := rng.NewStream(r.seed, 3)
	if fx == nil {
		var err error
		if mon, err = newMonitor(c.procs[0].addr); err != nil {
			return err
		}
	}
	// While the drive runs, each of its workers holds up to one pass of
	// balls out of the store between its departures and its admissions.
	inFlight := int64(runtime.NumCPU() * driveBatch)

	deadline := time.Now().Add(dur)
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		// What the restarted shard must come back with. A generated
		// directory and a memory-only boot are known exactly. A live
		// durable shard is known as of the last reply, and the journal
		// is asynchronous: what the kill may cost is the unflushed tail
		// of its queue, never more.
		var wantBalls, clock, replayed, mayLose int64
		switch {
		case fx != nil:
			c.killShard(0) // before its directory is replaced under it
			if err := fx.copyTo(c.walDir(0)); err != nil {
				return err
			}
			wantBalls, clock, replayed = fx.balls, fx.allocs, fx.suffixAllocs
		case w.durable:
			if _, err := mon.s.Crash(0, uint32(pick.Intn(w.n)), uint32(w.crashK)); err != nil {
				return fmt.Errorf("crash: %w", err)
			}
			settle(c.walDir(0))
			sr, err := mon.s.State(0, nil)
			if err != nil {
				return fmt.Errorf("state before kill: %w", err)
			}
			for _, x := range sr.Loads {
				wantBalls += int64(x)
			}
			clock, mayLose = sr.Allocs, journalQueue+int64(w.crashK)
		default:
			wantBalls = int64(w.n) // nothing survives: the shard seeds itself afresh
		}
		mon.close()
		mon = nil
		c.killShard(0)

		p, err := startShard(r.e.bin, c.dir, "shard0", c.shardArgs(0, r.seed+uint64(cycle), true))
		if err != nil {
			return err
		}
		c.procs[0] = p
		addr, err := p.waitAddr(bootTimeout)
		if err != nil {
			return err
		}
		if mon, err = newMonitor(addr); err != nil {
			return err
		}
		// Poll until the shard answers (restore), until it reports the
		// typical state (MTTR), and then until it is at rest: the drive
		// stops on recovery, but its other worker may still be inside
		// its last pass — held up, at worst, behind a stalled fsync — so
		// both clocks must stand still for restPolls polls, and again
		// across the STATE read that follows.
		var first, rest dgram.Summary
		var atRest dgram.StateReply
		var restoreNs, mttrNs int64
		for still := 0; ; {
			sum, err := mon.s.Probe(0)
			now := time.Since(p.started)
			if err == nil {
				if restoreNs == 0 {
					restoreNs, first = now.Nanoseconds(), sum
				}
				if sum.Recovered && mttrNs == 0 {
					mttrNs = now.Nanoseconds()
				}
				if sum.Allocs == rest.Allocs && sum.Frees == rest.Frees && sum.Total == rest.Total {
					still++
				} else {
					still = 0
				}
				rest = sum
				if mttrNs != 0 && still >= restPolls {
					if atRest, err = mon.s.State(0, atRest.Loads[:0]); err != nil {
						return fmt.Errorf("state after recovery: %w", err)
					}
					pause(restPolls * probeEvery)
					again, err := mon.s.Probe(0)
					if err == nil && again.Allocs == rest.Allocs && again.Frees == rest.Frees && again.Total == rest.Total {
						break
					}
					still = 0
				}
			}
			if now > recoverTimeout {
				return fmt.Errorf("cycle %d: not recovered and at rest after %v: %s", cycle, recoverTimeout, p.logTail())
			}
			pause(probeEvery)
		}
		r.cycles++
		r.restore.add(restoreNs)
		r.mttr.add(mttrNs)
		budget := theoremBudget(rest.Total)
		// A lost departure leaves its ball in place, a lost crash takes
		// its balls away: the tail can move the total either way.
		lost := wantBalls - rest.Total
		if lost < 0 {
			lost = -lost
		}
		r.lostOnKill += lost

		r.k.that(lost <= mayLose,
			"%s cycle %d: %d balls after the restart, want %d give or take %d unflushed", w.name, cycle, rest.Total, wantBalls, mayLose)
		r.k.that(first.Total <= rest.Total && first.Total >= rest.Total-inFlight,
			"%s cycle %d: %d balls at the first probe, %d at rest: more than %d in flight", w.name, cycle, first.Total, rest.Total, inFlight)
		if mayLose == 0 {
			r.k.that(first.Allocs >= clock, "%s cycle %d: admission clock %d after restart, was %d", w.name, cycle, first.Allocs, clock)
		} else if first.Allocs < clock-mayLose {
			// Seen about once in 300 restarts of a shard that takes
			// periodic checkpoints: the ball mass comes back exact and
			// the clock tens of thousands of admissions short. Counted,
			// not failed — see README.md, "Readings".
			r.clockRegressions++
			clock = first.Allocs
		}
		steps := rest.Allocs - clock
		if steps < 0 {
			steps = 0
		}
		r.budgetRatio = append(r.budgetRatio, float64(steps)/budget)
		r.recoverySteps += replayed + steps
		r.driveSteps += steps
		if w.n >= minBinsForEpisodeLimit {
			r.k.that(float64(steps) <= episodeLimit*budget, "%s cycle %d: %d steps to recover, over %dx the budget %.0f", w.name, cycle, steps, episodeLimit, budget)
		}
		var balls int64
		for _, x := range atRest.Loads {
			balls += int64(x)
		}
		r.k.that(balls == rest.Total && atRest.Allocs == rest.Allocs, "%s cycle %d: STATE holds %d balls at clock %d, PROBE said %d at %d",
			w.name, cycle, balls, atRest.Allocs, rest.Total, rest.Allocs)

		if fx == nil && w.durable {
			// Give back the injected mass, one uniform departure at a
			// time, so the next cycle disrupts the same m.
			for i := rest.Total - int64(w.n); i > 0; i-- {
				if _, err := mon.s.Free(pick); err != nil {
					return fmt.Errorf("draining the injected balls: %w", err)
				}
			}
		}
	}
	if w.crashK > 0 {
		med := median(r.budgetRatio)
		r.k.that(med >= w.budgetLo && med <= w.budgetHi,
			"%s: median recovery took %.3f of the Theorem 1 budget, outside [%.2f, %.2f]",
			w.name, med, w.budgetLo, w.budgetHi)
	}
	return nil
}
