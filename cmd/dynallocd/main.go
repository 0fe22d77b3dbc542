// Command dynallocd serves a live dynamic-allocation store: bins that
// clients allocate into through a d-choice admission policy, with the
// paper's departure scenarios available as a built-in traffic driver
// and an online recovery detector watching the store converge back to
// its typical state after a fault.
//
// Usage:
//
//	dynallocd -n 4096 -dgram-addr :9000        # admin HTTP on :8080, data plane on :9000
//	dynallocd -drive -n 65536 -d 2 -crash 4096 # crash/recover drill, report recovery
//	dynallocd -drive -crash 4096 -stay         # drill, then keep serving (CI smoke)
//	dynallocd -rule adap:1,2,2 -scenario B     # ADAP(x) admissions, Scenario B frees
//
// The data plane is the dgram listener (-dgram-addr): ADMIT, FREE and
// CRASH frames, each a codec over serve.Service, whose refusals are the
// "Verbs, refusals and errors" table in docs/SERVING.md. scripts/dgramc
// is the command-line client. HTTP is the admin plane only:
//
//	GET  /state        store + detector + target state (?summary=1: small form)
//	GET  /healthz      liveness + {"recovered": true|false}
//	POST /checkpoint   force a durability checkpoint (409 if -wal-dir unset)
//	POST /promote      promote a hot standby (see Replication below)
//
// Chaos mode (-chaos, see docs/CHAOS.md): a Poisson catastrophe
// process fires mass-relocating bin overloads — plus WAL sync stalls
// and injected ENOSPC when -wal-dir is set — while traffic runs; the
// detector segments the timeline into recovery episodes and
// publishes MTTR, downtime, and budget-normalized recovery histograms
// (serve.episodes.*), with the aggregate on /state?summary=1. With
// -drive, -chaos-min-episodes and -chaos-budget-mult turn the run
// into a self-checking drill.
//
// Replication (see docs/REPLICATION.md): with -replica-listen the
// daemon also serves its WAL directory as a replication stream that a
// hot standby — a second dynallocd started with -replicate-from ADDR —
// subscribes to, persists, and continuously replays into a warm store.
// A standby serves the read-only endpoints plus POST /promote (409 while
// the primary still heartbeats, unless force=1 fences it through the
// stream); promotion re-arms a journal and detector on the standby's
// own directory and, when -dgram-addr is set, binds the shard listener
// so a router revives the shard at the same address.
//
// Durability (-wal-dir DIR, see docs/SERVING.md): every mutation is
// appended to a write-ahead log, checkpoints are taken at boot, on
// -checkpoint-every ticks, on POST /checkpoint, and at shutdown; a
// restart restores the latest checkpoint plus the WAL suffix, so the
// load vector — and therefore the recovery drill — survives kill -9.
// During shutdown every mutating frame is refused with ERR draining so
// the final checkpoint is exact.
//
// Observability: the standard -metrics/-pprof/-cpuprofile/-memprofile
// flags (docs/OBSERVABILITY.md); the detector publishes the
// serve.recovered gauge and the recovery-time histograms; the WAL adds
// wal.* and checkpoint.* series.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"dynalloc/internal/daemon"
	"dynalloc/internal/metrics"
	"dynalloc/internal/replica"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", ":8080", "HTTP listen address (empty: no server, drive only; port 0: ephemeral, see -port-file)")
	flag.StringVar(&opt.portFile, "port-file", "", "write the resolved HTTP listen address to this file once listening (for ephemeral ports)")
	flag.StringVar(&opt.dgramAddr, "dgram-addr", "", "binary shard-protocol listen address (empty: off; port 0: ephemeral)")
	flag.StringVar(&opt.dgramPortFile, "dgram-port-file", "", "write the resolved dgram listen address to this file once listening")
	flag.IntVar(&opt.n, "n", 1<<16, "number of bins")
	flag.IntVar(&opt.m, "m", 0, "initial balls, seeded balanced (0: same as -n)")
	flag.StringVar(&opt.ruleSpec, "rule", "", "admission rule spec: abku:D | adap:x1,x2,... | mixed:BETA | uniform (empty: abku:<-d>)")
	flag.IntVar(&opt.d, "d", 2, "shorthand for -rule abku:D")
	flag.StringVar(&opt.scenario, "scenario", "A", "departure scenario: A (uniform ball) or B (uniform nonempty bin)")
	flag.Uint64Var(&opt.seed, "seed", 1998, "rng seed (workers use derived streams)")
	flag.IntVar(&opt.workers, "workers", runtime.GOMAXPROCS(0), "drive worker goroutines (1 = deterministic)")
	flag.IntVar(&opt.slack, "slack", 1, "recovery threshold slack above the fluid-limit prediction")

	flag.BoolVar(&opt.drive, "drive", false, "run the built-in traffic driver")
	flag.IntVar(&opt.batch, "batch", 0, "drive pass size b: phases per admission pass (0 or 1: the paper's one-ball phase; see docs/SERVING.md)")
	flag.Float64Var(&opt.rate, "rate", 0, "drive arrival rate per second, 0 = closed loop")
	flag.IntVar(&opt.crashK, "crash", 0, "fault injection: add this many balls to one bin before driving")
	flag.IntVar(&opt.crashBin, "crash-bin", 0, "bin the -crash balls land in")
	flag.Int64Var(&opt.maxSteps, "max-steps", 0, "stop the drive after this many phases (0: 100x the Theorem 1 budget)")
	flag.BoolVar(&opt.stay, "stay", false, "after the drive finishes, keep serving HTTP until interrupted")
	flag.Int64Var(&opt.checkEvery, "check-every", 0, "drive phases between detector checks: the resolution of the measured recovery time; a check does not read the bins, so small values are cheap (0: max(n, 1024))")
	flag.DurationVar(&opt.checkInterval, "check-interval", time.Second, "wall-clock detector check cadence while serving")

	flag.StringVar(&opt.walDir, "wal-dir", "", "durability directory for the WAL + checkpoints (empty: durability off)")
	flag.DurationVar(&opt.ckptEvery, "checkpoint-every", 0, "periodic checkpoint cadence (0: only boot/shutdown/POST; needs -wal-dir)")
	flag.StringVar(&opt.fsync, "fsync", "interval", "WAL fsync policy: always | interval | never")
	flag.DurationVar(&opt.fsyncInterval, "fsync-interval", 100*time.Millisecond, "max fsync lag under -fsync interval")
	flag.DurationVar(&opt.walStall, "wal-stall-timeout", 0, "drop a mutation's WAL record after waiting this long on a stalled writer (0: block, full backpressure)")
	flag.IntVar(&opt.walMaxBatch, "wal-max-batch", 0, "max records per group-commit WAL batch (0: default 512)")

	flag.StringVar(&opt.replicaListen, "replica-listen", "", "serve the WAL as a replication stream on this address (needs -wal-dir; port 0: ephemeral)")
	flag.StringVar(&opt.replicaPortFile, "replica-port-file", "", "write the resolved replication listen address to this file once listening")
	flag.StringVar(&opt.replicateFrom, "replicate-from", "", "run as a hot standby of the primary's -replica-listen address (needs -wal-dir)")

	flag.BoolVar(&opt.chaos, "chaos", false, "fire Poisson-timed catastrophes while serving/driving (docs/CHAOS.md)")
	flag.Float64Var(&opt.chaosRate, "chaos-rate", 0.5, "mean catastrophes per second under -chaos")
	flag.StringVar(&opt.chaosFaults, "chaos-faults", "", "comma-separated catastrophe kinds under -chaos: crash,stall,enospc (empty: all available; stall/enospc need -wal-dir)")
	flag.Int64Var(&opt.chaosMinEpisodes, "chaos-min-episodes", 0, "with -chaos -drive: exit nonzero unless at least this many recovery episodes completed")
	flag.Float64Var(&opt.chaosBudgetMult, "chaos-budget-mult", 8, "with -chaos -drive: exit nonzero when any recovery exceeded this multiple of the Theorem 1 budget (0: no gate)")

	prof := metrics.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := run(opt)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

type options struct {
	addr          string
	portFile      string
	dgramAddr     string
	dgramPortFile string
	n, m          int
	ruleSpec      string
	d             int
	scenario      string
	seed          uint64
	workers       int
	slack         int
	drive         bool
	batch         int
	rate          float64
	crashK        int
	crashBin      int
	maxSteps      int64
	stay          bool
	checkEvery    int64
	checkInterval time.Duration
	walDir        string
	ckptEvery     time.Duration
	fsync         string
	fp            wal.FsyncPolicy // -fsync parsed; set by run when -wal-dir is given
	fsyncInterval time.Duration
	walStall      time.Duration
	walMaxBatch   int

	replicaListen   string
	replicaPortFile string
	replicateFrom   string

	chaos            bool
	chaosRate        float64
	chaosFaults      string
	chaosMinEpisodes int64
	chaosBudgetMult  float64
}

// parseChaosFaults splits the -chaos-faults list; empty means "all
// available" (the injector decides from what seams exist).
func parseChaosFaults(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.ToLower(strings.TrimSpace(f)); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// fail reports a boot error; 2 is the exit code of a daemon that never
// served.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "dynallocd:", err)
	return 2
}

func run(opt options) int {
	boot := time.Now()
	sc, err := daemon.ParseScenario(opt.scenario)
	if err != nil {
		return fail(err)
	}
	pol, err := serve.ParsePolicy(resolveRuleSpec(opt.ruleSpec, opt.d))
	if err != nil {
		return fail(err)
	}
	if opt.n < 1 {
		return fail(fmt.Errorf("-n must be >= 1, got %d", opt.n))
	}
	if opt.m == 0 {
		opt.m = opt.n
	}
	if opt.m < 1 || opt.m > math.MaxInt32 {
		return fail(fmt.Errorf("-m must be in [1, %d] (the store's ball bound), got %d", math.MaxInt32, opt.m))
	}
	if opt.walDir != "" {
		if opt.fp, err = wal.ParseFsyncPolicy(opt.fsync); err != nil {
			return fail(err)
		}
	} else if opt.replicaListen != "" {
		return fail(fmt.Errorf("-replica-listen needs -wal-dir (the stream ships the WAL)"))
	}

	st := serve.NewStore(opt.n)
	// The one Service the dgram listener is a codec over and the admin
	// plane reads.
	svc := serve.NewService(st, pol, sc, opt.seed)

	// A hot standby is a different daemon shape: no seeding, no driver —
	// just the follower replaying the primary's stream until promoted.
	if opt.replicateFrom != "" {
		return runReplica(svc, opt)
	}

	// Durability: restore the store from -wal-dir if it holds state,
	// seed it balanced otherwise; arm then attaches the journal, so every
	// mutation from there on is logged, and its boot checkpoint makes the
	// seeded (or freshly compacted) state durable before traffic starts —
	// without it a fresh boot's balls would exist nowhere on disk.
	var faultFS *vfs.FaultFS // chaos mode's disk-fault seam on the WAL dir
	walFS := vfs.FS(vfs.OS)  // the FS the WAL dir is reached through (replication reads it too)
	var res serve.RestoreResult
	if opt.walDir != "" {
		if res, err = serve.RestoreFSOpts(st, vfs.OS, opt.walDir, serve.RestoreOptions{}); err != nil {
			return fail(err)
		}
		if res.Restored {
			fmt.Printf("dynallocd: restored %d balls from %s (checkpoint seq %d, %d WAL records replayed, torn=%v)\n",
				st.Total(), opt.walDir, res.CheckpointSeq, res.Replayed, res.Torn)
			printRestoreBreakdown(res)
		}
		if opt.chaos {
			// The WAL (and the checkpoint writer, which shares the log's
			// FS) runs behind the fault seam so the injector can arm
			// stalls and ENOSPC against a live daemon.
			faultFS = vfs.NewFaultFS(vfs.OS)
			walFS = faultFS
		}
	}
	if !res.Restored {
		t0 := time.Now()
		st.FillBalanced(opt.m)
		fmt.Printf("dynallocd: seeded %d balls into %d bins in %v\n", opt.m, opt.n, time.Since(t0))
	}

	fmt.Printf("dynallocd: n=%d m=%d rule=%s scenario=%s workers=%d shards=%d seed=%d\n",
		opt.n, opt.m, pol.Name(), sc, opt.workers, st.Shards(), opt.seed)
	// Signals are the daemon's from before its listeners open: one that
	// arrives as soon as a port file appears is a shutdown, not a kill.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	p := &primary{svc: svc, opt: opt}
	if opt.addr == "" && opt.dgramAddr == "" {
		boot = time.Time{} // no listener: no reply to wait for
	}
	target, err := p.arm(walFS, res.LastSeq, int(st.Total())+opt.crashK, "", boot)
	if err != nil {
		return fail(err)
	}
	// From here on a failed boot step still shuts the primary down.
	bail := func(err error) int {
		fail(err)
		return p.shutdown(2)
	}

	srv := newServer(svc)
	var httpDone chan error
	if opt.addr != "" {
		// On shutdown: close the gate before draining in-flight admin
		// requests, so no promotion or mutation starts behind it.
		httpDone, err = daemon.ServeHTTP(ctx, "dynallocd", opt.addr, opt.portFile, srv.routes(), svc.SetDraining)
		if err != nil {
			return bail(err)
		}
	}

	// The replication stream: followers subscribe here and tail the same
	// WAL directory the journal writes. OnPromote is the fence a forced
	// promotion pulls — stop admitting, flush the journal, and hand the
	// final durable seq to the streamer to acknowledge with.
	var repStr *replica.Streamer
	var repDone chan error
	if opt.replicaListen != "" {
		j := svc.Journal()
		repStr, err = replica.NewStreamer(replica.StreamerConfig{
			FS: walFS, Dir: opt.walDir, LastSeq: j.LastSeq,
			OnPromote: func(force bool) (uint64, error) {
				svc.SetDraining()
				j.Drain()
				fmt.Println("dynallocd: fenced by a promoting follower; refusing mutations")
				return j.LastSeq(), nil
			},
		})
		if err != nil {
			return bail(err)
		}
		ln, err := daemon.Listen("replica", opt.replicaListen, opt.replicaPortFile)
		if err != nil {
			return bail(err)
		}
		repDone = make(chan error, 1)
		go func() { repDone <- repStr.Serve(ln) }()
		fmt.Printf("dynallocd: replication stream listening on %s\n", ln.Addr())
	}

	var ckptWG sync.WaitGroup
	if j := svc.Journal(); j != nil && opt.ckptEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			daemon.Every(ctx, opt.ckptEvery, func() {
				if _, _, err := j.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "dynallocd: checkpoint:", err)
				}
				warnMaint(j, "checkpoint")
			})
		}()
	}

	var chaosWG sync.WaitGroup
	if opt.chaos {
		inj, err := serve.NewChaosInjector(serve.ChaosConfig{
			Store: st, Detector: svc.Detector(),
			Rate: opt.chaosRate, Seed: opt.seed,
			Faults:  parseChaosFaults(opt.chaosFaults),
			FaultFS: faultFS,
			OnFault: func(kind string) { fmt.Printf("dynallocd: chaos: %s catastrophe\n", kind) },
		})
		if err != nil {
			return bail(err)
		}
		fmt.Printf("dynallocd: chaos on: rate=%g/s faults=%s\n",
			opt.chaosRate, strings.Join(inj.Kinds(), ","))
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			inj.Run(ctx)
		}()
	}

	code := 0
	if opt.drive {
		code = runDrive(ctx, svc, opt, target)
		if !opt.stay {
			cancel()
		}
	}

	if httpDone != nil {
		// Serve until interrupted (or, after a non-stay drive, until the
		// cancel above unblocks the shutdown).
		srv.watch(ctx, opt.checkInterval)
		if err := <-httpDone; err != nil {
			failed(&code, "http", err)
		}
	} else if p.dgram != nil {
		// No admin plane (a shard daemon): keep the detector ticking
		// until interrupted, same as with one.
		srv.watch(ctx, opt.checkInterval)
	}

	// Before the final checkpoint: stop the replication stream (a
	// follower mid-pump holds segment handles, and the final truncation
	// should not race a tail read), the injector (its shutdown path
	// clears any armed disk fault, so the checkpoint lands on a healthy
	// filesystem) and the checkpoint ticker.
	if repStr != nil {
		repStr.Close()
		if err := <-repDone; err != nil {
			failed(&code, "replica stream", err)
		}
	}
	cancel()
	chaosWG.Wait()
	ckptWG.Wait()
	return p.shutdown(code)
}

// failed reports a teardown error and turns a clean exit code into 1.
func failed(code *int, what string, err error) {
	fmt.Fprintf(os.Stderr, "dynallocd: %s: %v\n", what, err)
	if *code == 0 {
		*code = 1
	}
}

// primary is the serving-primary role of a daemon: what arm sets up
// and shutdown tears down, for a boot and for a promoted standby alike.
type primary struct {
	svc *serve.Service
	opt options

	dgram     *router.Server // nil without -dgram-addr
	dgramDone chan error
	quit      chan struct{} // closed by shutdown: the deferred chores are off
}

// arm makes the daemon a serving primary over the store as it stands:
// with -wal-dir, open the WAL after lastSeq, attach the journal and
// checkpoint (durable before any listener opens); compute the recovery
// target for m balls and build the detector, noting
// `fault`, if any, so the episode is measured from it; bind the dgram
// listener dynrouter probes and admits through (a promoted standby
// binds the -dgram-addr the dead primary held, so a router's health
// loop revives the shard there); then install journal and detector in
// the Service, which ends the standby refusal. On error nothing is
// installed and the WAL is closed again, so a promotion can be retried.
//
// Two chores wait for the first request a listener answers after
// `since` (zero: none to wait for; see afterFirstReply), so neither
// delays it. The checkpoint made the
// replayed segments garbage; unlinking them reads the log's tail once
// more (see Journal.Maintain). What the replay allocated is garbage by
// now and the serving path allocates nothing, so no later collection
// would hand it back: without FreeOSMemory a shard's resident set
// depends on whether a GC cycle happened to follow its boot.
func (p *primary) arm(walFS vfs.FS, lastSeq uint64, m int, fault string, since time.Time) (serve.Target, error) {
	svc, opt := p.svc, p.opt
	st := svc.Store()
	p.quit = make(chan struct{})
	what := "boot"
	if fault != "" {
		what = fault
	}
	var j *serve.Journal
	fail := func(err error) (serve.Target, error) {
		if j != nil {
			j.Close()
		}
		return serve.Target{}, err
	}
	if opt.walDir != "" {
		log, err := wal.Open(wal.Options{Dir: opt.walDir, Fsync: opt.fp, FsyncInterval: opt.fsyncInterval, FS: walFS})
		if err != nil {
			return fail(err)
		}
		jo := serve.JournalOptions{StallTimeout: opt.walStall, MaxBatch: opt.walMaxBatch}
		if opt.fp == wal.FsyncInterval {
			jo.SyncEvery = opt.fsyncInterval
		}
		j = serve.NewJournal(st, log, lastSeq, jo)
		// Durable before the listeners open; its maintenance waits for the first reply.
		if _, _, err := j.CheckpointDeferMaint(); err != nil {
			return fail(fmt.Errorf("%s checkpoint: %w", what, err))
		}
		fmt.Printf("dynallocd: durability on: wal-dir=%s fsync=%s checkpoint-every=%v\n",
			opt.walDir, opt.fsync, opt.ckptEvery)
	}

	target, err := serve.NewTarget(svc.Policy(), svc.Scenario(), opt.n, m, opt.slack)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("dynallocd: recovery target max load %d (fluid prediction %d + slack %d), budget %.0f steps\n",
		target.MaxLoad(), target.PredictedMax, target.Slack, target.BudgetSteps)
	det := serve.NewDetector(st, target)
	if fault != "" {
		det.NoteFault(fault)
	}

	var ln net.Listener
	if opt.dgramAddr != "" {
		if ln, err = daemon.Listen("dgram", opt.dgramAddr, opt.dgramPortFile); err != nil {
			return fail(err)
		}
	}
	svc.Arm(j, det)
	if ln != nil {
		p.dgram, p.dgramDone = router.NewServiceServer(svc), make(chan error, 1)
		go func() { p.dgramDone <- p.dgram.Serve(ln) }()
		fmt.Printf("dynallocd: dgram listening on %s\n", ln.Addr())
	}

	go p.afterFirstReply(j, what, since)
	return target, nil
}

// afterFirstReply waits for the first request either listener answers
// and reports how long after since it came, then runs the chores arm
// deferred: the checkpoint's maintenance and handing the restore's heap
// back. With a zero since — no listener, or a promotion, whose admin
// plane has long been answering — they run at once. A shutdown that
// comes first leaves them to the final checkpoint, which maintains on
// its own: a node that answers nothing keeps its replayed segments
// until its next checkpoint, which costs disk space, not state.
func (p *primary) afterFirstReply(j *serve.Journal, what string, since time.Time) {
	when := "at once"
	if !since.IsZero() {
		select {
		case <-p.svc.FirstReply():
			fmt.Printf("dynallocd: first reply after %v\n", time.Since(since))
			when = "behind the first reply"
		case <-p.quit:
			return
		}
	}
	if j == nil {
		return
	}
	t := time.Now()
	removed := j.Maintain()
	fmt.Printf("dynallocd: %s checkpoint maintenance (%s): %v, %d WAL segments removed\n", what, when, time.Since(t), removed)
	warnMaint(j, what+" checkpoint")
	debug.FreeOSMemory()
}

// shutdown quiesces an armed primary and persists it: refuse mutations
// (the Service's one gate), stop the dgram listener — Close waits for
// in-flight handlers, so the checkpoint sees a quiesced store — take
// the final checkpoint, and close the WAL so a clean shutdown restarts
// from the checkpoint alone. It returns code,
// or 1 when code was 0 and a step failed.
func (p *primary) shutdown(code int) int {
	close(p.quit)
	p.svc.SetDraining()
	if p.dgram != nil {
		p.dgram.Close()
		if err := <-p.dgramDone; err != nil {
			failed(&code, "dgram", err)
		}
	}
	j := p.svc.Journal()
	if j == nil {
		return code
	}
	snap, _, ckErr := j.Checkpoint()
	if ckErr != nil {
		failed(&code, "final checkpoint", ckErr)
	} else {
		fmt.Printf("dynallocd: final checkpoint at seq %d (%d balls)\n", snap.Seq, p.svc.Store().Total())
	}
	warnMaint(j, "final checkpoint")
	if err := j.Close(); err != nil {
		// Close resurfaces the journal's first append error. Under chaos
		// that is the injected disk fault doing its job; once the final
		// checkpoint has durably captured the full state, the dropped
		// WAL records are covered and the run is sound.
		if p.opt.chaos && ckErr == nil {
			fmt.Fprintf(os.Stderr, "dynallocd: wal close: %v (chaos-injected; the final checkpoint covers it)\n", err)
		} else {
			failed(&code, "wal close", err)
		}
	}
	return code
}

// runReplica is the hot-standby daemon shape: a Follower subscribed to
// the primary's replication stream, replaying into the warm store and
// persisting its own log copy, with HTTP serving the replication view
// and POST /promote. Promotion arms a primary on the follower's own
// directory — from then on the daemon is an ordinary primary.
func runReplica(svc *serve.Service, opt options) int {
	if opt.walDir == "" {
		return fail(fmt.Errorf("-replicate-from needs -wal-dir (the replica persists its own log copy)"))
	}
	if opt.drive || opt.chaos || opt.crashK > 0 || opt.replicaListen != "" {
		return fail(fmt.Errorf("-replicate-from excludes -drive/-chaos/-crash/-replica-listen until promotion"))
	}
	st := svc.Store()
	f, res, err := replica.NewFollower(replica.FollowerConfig{
		Store: st, Dir: opt.walDir, Fsync: opt.fp,
		CheckpointEvery: 4096,
	})
	if err != nil {
		return fail(err)
	}
	if res.Restored {
		fmt.Printf("dynallocd: replica restored %d balls from %s (seq %d)\n",
			st.Total(), opt.walDir, f.AppliedSeq())
		printRestoreBreakdown(*res)
	}
	fmt.Printf("dynallocd: replica of %s: n=%d rule=%s scenario=%s wal-dir=%s\n",
		opt.replicateFrom, opt.n, svc.Policy().Name(), svc.Scenario(), opt.walDir)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	svc.SetStandby() // the stream is the only writer until promotion
	srv := newServer(svc)
	srv.fol = f

	// Promotion: stop the stream (fencing a live primary if forced),
	// then arm a primary on the follower's directory. The fail-over IS a
	// disruption episode, so the detector starts with a "promote" fault.
	var promoteMu sync.Mutex // guards p across promote and shutdown
	p := &primary{svc: svc, opt: opt}
	srv.promote = func(force bool) (replica.PromoteResult, error) {
		promoteMu.Lock()
		defer promoteMu.Unlock()
		pres, err := f.Promote(force)
		if err != nil || svc.Detector() != nil {
			return pres, err // refused, or an idempotent re-promote
		}
		if _, err := p.arm(vfs.OS, pres.LastSeq, int(st.Total()), "promote", time.Time{}); err != nil {
			return pres, err
		}
		fmt.Printf("dynallocd: promoted at seq %d (forced=%v, %d frees skipped in replay)\n",
			pres.LastSeq, pres.Forced, pres.SkippedFrees)
		return pres, nil
	}

	var httpDone chan error
	if opt.addr != "" {
		httpDone, err = daemon.ServeHTTP(ctx, "dynallocd", opt.addr, opt.portFile, srv.routes(), svc.SetDraining)
		if err != nil {
			f.Close()
			return fail(err)
		}
	}

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		f.Run(ctx, opt.replicateFrom)
	}()

	code := 0
	if httpDone != nil {
		srv.watch(ctx, opt.checkInterval)
		if err := <-httpDone; err != nil {
			failed(&code, "http", err)
		}
	} else {
		<-ctx.Done()
	}
	cancel()
	<-runDone

	promoteMu.Lock()
	defer promoteMu.Unlock()
	if svc.Detector() != nil {
		return p.shutdown(code) // promoted: shut down exactly like a primary
	}
	if err := f.Close(); err != nil {
		failed(&code, "replica close", err)
	}
	return code
}

// printRestoreBreakdown prints the restore phases the drills assert on,
// then the replay's stage totals (summed over each stage's goroutines:
// they overlap, and can exceed the replay's wall time), the bytes of
// its chunk pool, and its WAL segments by path (skipped, summarized
// from footers, decoded).
func printRestoreBreakdown(res serve.RestoreResult) {
	fmt.Printf("dynallocd: restore breakdown: checkpoint %v, replay %v, fence %v, workers %d, read %v, decode %v, apply %v, pool %.1f MiB, segments %d skipped / %d summarized / %d decoded\n",
		time.Duration(res.CheckpointNs), time.Duration(res.ReplayNs), time.Duration(res.FenceNs), res.Workers,
		time.Duration(res.ReadNs), time.Duration(res.DecodeNs), time.Duration(res.ApplyNs), float64(res.PoolBytes)/(1<<20),
		res.SegmentsSkipped, res.SegmentsSummarized, res.SegmentsDecoded)
}

// warnMaint surfaces a checkpoint's non-fatal maintenance failure
// (prune/truncate after a durably-written snapshot) on stderr.
func warnMaint(j *serve.Journal, what string) {
	if err := j.MaintErr(); err != nil {
		fmt.Fprintf(os.Stderr, "dynallocd: %s: maintenance (snapshot is durable): %v\n", what, err)
	}
}

// runDrive executes the crash/recover drill: optionally injects the
// fault, then drives scenario traffic until the detector sees the
// typical state (or the step budget runs out) and reports the outcome.
func runDrive(ctx context.Context, svc *serve.Service, opt options, target serve.Target) int {
	st, det := svc.Store(), svc.Detector()
	if opt.crashK > 0 {
		load, err := st.Crash(opt.crashBin, opt.crashK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: -crash:", err)
			return 2
		}
		det.MarkDisrupted()
		fmt.Printf("dynallocd: crashed bin %d to load %d (+%d balls)\n", opt.crashBin, load, opt.crashK)
	}
	maxSteps := opt.maxSteps
	if maxSteps == 0 {
		maxSteps = int64(100 * target.BudgetSteps)
	}
	eng := serve.NewEngine(serve.Config{
		Store: st, Policy: svc.Policy(), Scenario: svc.Scenario(),
		Workers: opt.workers, Seed: opt.seed, Rate: opt.rate,
		Batch:    opt.batch,
		MaxSteps: maxSteps, Detector: det, CheckEvery: opt.checkEvery,
		// Under chaos the drive is the traffic the store self-stabilizes
		// through: it must keep running across every episode, not stop
		// at the first recovery.
		StopOnRecovery: !opt.chaos,
	})
	res := eng.Run(ctx)
	if opt.chaos {
		return reportChaos(det, target, opt, res)
	}
	if !res.Recovered {
		fmt.Printf("dynallocd: NOT recovered after %d steps (budget %.0f) in %v\n",
			res.Steps, target.BudgetSteps, res.Wall.Round(time.Millisecond))
		return 1
	}
	fmt.Printf("dynallocd: recovered in %d steps (%.2fx the m·ln(m/eps) budget of %.0f) — wall clock %v\n",
		res.Episode.Steps, float64(res.Episode.Steps)/target.BudgetSteps,
		target.BudgetSteps, res.Episode.Wall.Round(time.Microsecond))
	s := det.Check()
	fmt.Printf("dynallocd: max load %d (target %d), gap %d, delta to balanced %d\n",
		s.MaxLoad, s.TargetMax, s.Gap, s.DeltaTypical)
	return 0
}

// reportChaos summarizes a chaos drive's recovery episodes and applies
// the -chaos-min-episodes / -chaos-budget-mult gates — the acceptance
// bar the chaos-drill CI job exercises.
func reportChaos(det *serve.Detector, target serve.Target, opt options, res serve.Result) int {
	det.Check() // close an episode the last in-drive check may have missed
	sum := det.Summary()
	fmt.Printf("dynallocd: chaos drive done: %d steps in %v\n", res.Steps, res.Wall.Round(time.Millisecond))
	fmt.Printf("dynallocd: episodes: %d completed, %d faults (%d merged), open=%v\n",
		sum.Completed, sum.Faults, sum.MergedFaults, sum.Open)
	if sum.Completed > 0 {
		fmt.Printf("dynallocd: MTTR %v (%.0f steps), total downtime %v, worst recovery %.2fx the %.0f-step budget\n",
			sum.MTTR.Round(time.Microsecond), sum.MTTRSteps,
			sum.TotalDowntime.Round(time.Microsecond), sum.WorstBudgetRatio, target.BudgetSteps)
	}
	code := 0
	if opt.chaosMinEpisodes > 0 && sum.Completed < opt.chaosMinEpisodes {
		fmt.Printf("dynallocd: FAIL: %d completed episodes < required %d\n", sum.Completed, opt.chaosMinEpisodes)
		code = 1
	}
	if opt.chaosBudgetMult > 0 && sum.WorstBudgetRatio > opt.chaosBudgetMult {
		fmt.Printf("dynallocd: FAIL: worst recovery %.2fx budget exceeds the %gx gate\n",
			sum.WorstBudgetRatio, opt.chaosBudgetMult)
		code = 1
	}
	return code
}

// server is the admin plane over the daemon's serve.Service: it reads
// the store, the detector and the journal the Service holds, forces a
// checkpoint and promotes a standby. It carries no verb; those are
// dgram's. In replica mode (fol != nil) detector and journal start nil
// and promotion installs them.
type server struct {
	svc *serve.Service

	fol     *replica.Follower // non-nil in replica mode
	promote func(force bool) (replica.PromoteResult, error)
}

func newServer(svc *serve.Service) *server { return &server{svc: svc} }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		s.svc.Answered()
	})
}

// watch runs periodic detector checks until ctx is done, so the
// recovered gauge stays fresh even when no driver is stepping the
// store. An un-promoted replica has no detector yet; the tick resumes
// checking the moment promotion installs one.
func (s *server) watch(ctx context.Context, every time.Duration) {
	daemon.Every(ctx, every, func() {
		if det := s.svc.Detector(); det != nil {
			det.Check()
		}
	})
}

// writeVerbErr answers a refusal of the Service's gate in HTTP's
// vocabulary: 503 while draining, 409 for an un-promoted standby.
func writeVerbErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrStandby):
		code = http.StatusConflict
	}
	daemon.WriteErr(w, code, err)
}

// handleCheckpoint forces a durability checkpoint. 409 when the daemon
// runs without -wal-dir: there is nothing to checkpoint into.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !daemon.PostOnly(w, r) {
		return
	}
	if s.svc.Detector() == nil {
		writeVerbErr(w, serve.ErrStandby) // an un-promoted replica: the follower owns the log
		return
	}
	j := s.svc.Journal()
	if j == nil {
		daemon.WriteErr(w, http.StatusConflict, fmt.Errorf("durability disabled (-wal-dir not set)"))
		return
	}
	snap, path, err := j.Checkpoint()
	if err != nil {
		daemon.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := map[string]any{
		"seq": snap.Seq, "path": path, "balls": s.svc.Store().Total(),
	}
	// The snapshot above is durable even when post-write maintenance
	// (pruning, truncation) failed; report that as a warning, not a 500.
	if merr := j.MaintErr(); merr != nil {
		resp["maintenance_error"] = merr.Error()
	}
	daemon.WriteJSON(w, http.StatusOK, resp)
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st, det := s.svc.Store(), s.svc.Detector()
	if det == nil {
		// An un-promoted replica has no detector: report the replication
		// view instead, with the same store-shape fields the drill diffs.
		rs := s.fol.Status()
		if r.URL.Query().Get("summary") != "" {
			daemon.WriteJSON(w, http.StatusOK, map[string]any{
				"n": st.N(), "m": st.Total(), "role": "replica", "replica": rs,
			})
			return
		}
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"n":        st.N(),
			"shards":   st.Shards(),
			"role":     "replica",
			"scenario": s.svc.Scenario().String(),
			"replica":  rs,
			"stats":    st.Stats(),
			"loads":    st.LoadsCopy(),
		})
		return
	}
	status := det.Check()
	if r.URL.Query().Get("summary") != "" {
		// The cheap polling form: no load vector — but with the episode
		// aggregate, which is how the chaos drills watch MTTR accrue.
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"n":         st.N(),
			"m":         st.Total(),
			"max_load":  status.MaxLoad,
			"gap":       status.Gap,
			"recovered": status.Recovered,
			"episodes":  det.Summary(),
		})
		return
	}
	ep, episodes := det.LastEpisode()
	target := det.Target()
	state := map[string]any{
		"n":               st.N(),
		"shards":          st.Shards(),
		"rule":            s.svc.Policy().Name(),
		"scenario":        s.svc.Scenario().String(),
		"stats":           st.Stats(),
		"status":          status,
		"target":          target,
		"episodes":        episodes,
		"last_episode":    ep,
		"episode_summary": det.Summary(),
		"loads":           st.LoadsCopy(),
	}
	if j := s.svc.Journal(); j != nil {
		state["wal_last_seq"] = j.LastSeq()
	}
	if s.fol != nil {
		state["replica"] = s.fol.Status() // promoted standby: shows its lineage
	}
	daemon.WriteJSON(w, http.StatusOK, state)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	det := s.svc.Detector()
	if det == nil {
		rs := s.fol.Status()
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"ok": true, "role": "replica",
			"connected": rs.Connected, "lag_seq": rs.LagSeq,
		})
		return
	}
	status := det.Check()
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"recovered": status.Recovered,
		"max_load":  status.MaxLoad,
		"steps":     status.Steps,
	})
}

// handlePromote turns a hot standby into the serving primary. Refused
// with 409 while the primary still heartbeats unless force=1, which
// fences the primary through the stream first (docs/REPLICATION.md).
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !daemon.PostOnly(w, r) {
		return
	}
	if s.svc.Draining() {
		writeVerbErr(w, serve.ErrDraining)
		return
	}
	if s.fol == nil {
		daemon.WriteErr(w, http.StatusConflict, fmt.Errorf("not a replica (-replicate-from not set)"))
		return
	}
	res, err := s.promote(r.URL.Query().Get("force") != "")
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, replica.ErrPrimaryAlive) {
			code = http.StatusConflict
		}
		daemon.WriteErr(w, code, err)
		return
	}
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"last_seq": res.LastSeq, "forced": res.Forced, "skipped_frees": res.SkippedFrees,
	})
}

// resolveRuleSpec is the ParsePolicy spec: -rule if set, else the -d
// shorthand.
func resolveRuleSpec(rule string, d int) string {
	if rule != "" {
		return rule
	}
	return fmt.Sprintf("abku:%d", d)
}
