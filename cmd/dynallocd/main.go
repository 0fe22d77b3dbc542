// Command dynallocd serves a live dynamic-allocation store: bins that
// clients allocate into through a d-choice admission policy, with the
// paper's departure scenarios available as a built-in traffic driver
// and an online recovery detector watching the store converge back to
// its typical state after a fault.
//
// Usage:
//
//	dynallocd -n 4096                          # serve HTTP on :8080
//	dynallocd -drive -n 65536 -d 2 -crash 4096 # crash/recover drill, report recovery
//	dynallocd -drive -crash 4096 -stay         # drill, then keep serving (CI smoke)
//	dynallocd -rule adap:1,2,2 -scenario B     # ADAP(x) admissions, Scenario B frees
//
// Endpoints (see docs/SERVING.md):
//
//	POST /alloc        admit one ball, returns {bin, load, probes}
//	POST /free?bin=B   free from bin B (no bin: scenario departure)
//	POST /crash?bin=B&k=K  fault injector: add K balls to bin B
//	POST /checkpoint   force a durability checkpoint (409 if -wal-dir unset)
//	GET  /state        store + detector + target state (?summary=1: small form)
//	GET  /healthz      liveness + {"recovered": true|false}
//
// Chaos mode (-chaos, see docs/CHAOS.md): a Poisson catastrophe
// process fires mass-relocating bin overloads — plus WAL sync stalls
// and injected ENOSPC when -wal-dir is set — while traffic runs; the
// episode tracker segments the timeline into recovery episodes and
// publishes MTTR, downtime, and budget-normalized recovery histograms
// (serve.episodes.*), with the aggregate on /state?summary=1. With
// -drive, -chaos-min-episodes and -chaos-budget-mult turn the run
// into a self-checking drill.
//
// Replication (see docs/REPLICATION.md): with -replica-listen the
// daemon also serves its WAL directory as a replication stream that a
// hot standby — a second dynallocd started with -replicate-from ADDR —
// subscribes to, persists, and continuously replays into a warm store.
// A standby serves read-only endpoints plus POST /promote (409 while
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
// During shutdown the mutation endpoints return 503 so the final
// checkpoint is exact.
//
// Observability: the standard -metrics/-pprof/-cpuprofile/-memprofile
// flags (docs/OBSERVABILITY.md); the detector publishes the
// serve.recovered gauge and the recovery-time histograms; the WAL adds
// wal.* and checkpoint.* series.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/replica"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address (empty: no server, drive only; port 0: ephemeral, see -port-file)")
		portFile = flag.String("port-file", "", "write the resolved HTTP listen address to this file once listening (for ephemeral ports)")
		dgAddr   = flag.String("dgram-addr", "", "binary shard-protocol listen address (empty: off; port 0: ephemeral)")
		dgFile   = flag.String("dgram-port-file", "", "write the resolved dgram listen address to this file once listening")
		n        = flag.Int("n", 1<<16, "number of bins")
		m        = flag.Int("m", 0, "initial balls, seeded balanced (0: same as -n)")
		ruleSpec = flag.String("rule", "", "admission rule spec: abku:D | adap:x1,x2,... | mixed:BETA | uniform")
		d        = flag.Int("d", 2, "shorthand for -rule abku:D")
		x        = flag.String("x", "", "shorthand for -rule adap:x1,x2,...")
		beta     = flag.Float64("beta", -1, "shorthand for -rule mixed:BETA")
		scen     = flag.String("scenario", "A", "departure scenario: A (uniform ball) or B (uniform nonempty bin)")
		seed     = flag.Uint64("seed", 1998, "rng seed (workers use derived streams)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "drive worker goroutines (1 = deterministic)")
		shards   = flag.Int("shards", 0, "store shard count, power of two (0: auto)")
		slack    = flag.Int("slack", 1, "recovery threshold slack above the fluid-limit prediction")

		drive      = flag.Bool("drive", false, "run the built-in traffic driver")
		batch      = flag.Int("batch", 0, "drive phases per batched admission pass (0 or 1: per-phase lane; see docs/SERVING.md)")
		rate       = flag.Float64("rate", 0, "drive arrival rate per second, 0 = closed loop")
		crashK     = flag.Int("crash", 0, "fault injection: add this many balls to one bin before driving")
		crashBin   = flag.Int("crash-bin", 0, "bin the -crash balls land in")
		maxSteps   = flag.Int64("max-steps", 0, "stop the drive after this many phases (0: 100x the Theorem 1 budget)")
		stay       = flag.Bool("stay", false, "after the drive finishes, keep serving HTTP until interrupted")
		checkEvery = flag.Int64("check-every", 0, "drive phases between detector checks: the resolution of the measured recovery time; a check does not read the bins, so small values are cheap (0: max(n, 1024))")
		checkIntvl = flag.Duration("check-interval", time.Second, "wall-clock detector check cadence while serving")

		walDir     = flag.String("wal-dir", "", "durability directory for the WAL + checkpoints (empty: durability off)")
		ckptEvery  = flag.Duration("checkpoint-every", 0, "periodic checkpoint cadence (0: only boot/shutdown/POST; needs -wal-dir)")
		fsyncPol   = flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
		fsyncIntvl = flag.Duration("fsync-interval", 100*time.Millisecond, "max fsync lag under -fsync interval")
		walStall   = flag.Duration("wal-stall-timeout", 0, "drop a mutation's WAL record after waiting this long on a stalled writer (0: block, full backpressure)")
		walBatch   = flag.Int("wal-max-batch", 0, "max records per group-commit WAL batch (0: default 512)")

		repListen = flag.String("replica-listen", "", "serve the WAL as a replication stream on this address (needs -wal-dir; port 0: ephemeral)")
		repFile   = flag.String("replica-port-file", "", "write the resolved replication listen address to this file once listening")
		repFrom   = flag.String("replicate-from", "", "run as a hot standby of the primary's -replica-listen address (needs -wal-dir)")

		chaos       = flag.Bool("chaos", false, "fire Poisson-timed catastrophes while serving/driving (docs/CHAOS.md)")
		chaosRate   = flag.Float64("chaos-rate", 0.5, "mean catastrophes per second under -chaos")
		chaosFaults = flag.String("chaos-faults", "", "comma-separated catastrophe kinds under -chaos: crash,stall,enospc (empty: all available; stall/enospc need -wal-dir)")
		chaosMinEp  = flag.Int64("chaos-min-episodes", 0, "with -chaos -drive: exit nonzero unless at least this many recovery episodes completed")
		chaosMult   = flag.Float64("chaos-budget-mult", 8, "with -chaos -drive: exit nonzero when any recovery exceeded this multiple of the Theorem 1 budget (0: no gate)")

		prof = metrics.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := run(options{
		addr: *addr, portFile: *portFile,
		dgramAddr: *dgAddr, dgramPortFile: *dgFile,
		n: *n, m: *m,
		ruleSpec: *ruleSpec, d: *d, x: *x, beta: *beta, scenario: *scen,
		seed: *seed, workers: *workers, shards: *shards, slack: *slack,
		drive: *drive, batch: *batch, rate: *rate, crashK: *crashK, crashBin: *crashBin,
		maxSteps: *maxSteps, stay: *stay, checkEvery: *checkEvery,
		checkInterval: *checkIntvl,
		walDir:        *walDir, ckptEvery: *ckptEvery,
		fsync: *fsyncPol, fsyncInterval: *fsyncIntvl, walStall: *walStall,
		walMaxBatch:   *walBatch,
		replicaListen: *repListen, replicaPortFile: *repFile,
		replicateFrom: *repFrom,
		chaos:         *chaos, chaosRate: *chaosRate, chaosFaults: *chaosFaults,
		chaosMinEpisodes: *chaosMinEp, chaosBudgetMult: *chaosMult,
	})
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
	x             string
	beta          float64
	scenario      string
	seed          uint64
	workers       int
	shards        int
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

func run(opt options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dynallocd:", err)
		return 2
	}

	sc, err := parseScenario(opt.scenario)
	if err != nil {
		return fail(err)
	}
	spec, err := resolveRuleSpec(opt.ruleSpec, opt.d, opt.x, opt.beta)
	if err != nil {
		return fail(err)
	}
	pol, err := serve.ParsePolicy(spec)
	if err != nil {
		return fail(err)
	}
	if opt.n < 1 {
		return fail(fmt.Errorf("-n must be >= 1, got %d", opt.n))
	}
	if opt.m == 0 {
		opt.m = opt.n
	}
	if opt.m < 1 {
		return fail(fmt.Errorf("-m must be >= 1, got %d", opt.m))
	}

	var st *serve.Store
	if opt.shards > 0 {
		st = serve.NewStoreShards(opt.n, opt.shards)
	} else {
		st = serve.NewStore(opt.n)
	}

	// A hot standby is a different daemon shape: no seeding, no driver —
	// just the follower replaying the primary's stream until promoted.
	if opt.replicateFrom != "" {
		return runReplica(st, pol, sc, opt)
	}

	// Durability: restore the store from -wal-dir if it holds state,
	// seed it balanced otherwise, then attach the journal so every
	// mutation from here on is logged. The boot checkpoint makes the
	// seeded (or freshly compacted) state durable before traffic starts;
	// without it a fresh boot's balls would exist nowhere on disk.
	var j *serve.Journal
	var faultFS *vfs.FaultFS // chaos mode's disk-fault seam on the WAL dir
	walFS := vfs.FS(vfs.OS)  // the FS the WAL dir is reached through (replication reads it too)
	if opt.walDir != "" {
		fp, err := wal.ParseFsyncPolicy(opt.fsync)
		if err != nil {
			return fail(err)
		}
		res, err := serve.RestoreFSOpts(st, vfs.OS, opt.walDir, serve.RestoreOptions{})
		if err != nil {
			return fail(err)
		}
		if res.Restored {
			fmt.Printf("dynallocd: restored %d balls from %s (checkpoint seq %d, %d WAL records replayed, torn=%v)\n",
				st.Total(), opt.walDir, res.CheckpointSeq, res.Replayed, res.Torn)
			printRestoreBreakdown(res)
		} else {
			st.FillBalanced(opt.m)
		}
		walOpts := wal.Options{Dir: opt.walDir, Fsync: fp, FsyncInterval: opt.fsyncInterval}
		if opt.chaos {
			// The WAL (and the checkpoint writer, which shares the log's
			// FS) runs behind the fault seam so the injector can arm
			// stalls and ENOSPC against a live daemon.
			faultFS = vfs.NewFaultFS(vfs.OS)
			walFS = faultFS
			walOpts.FS = walFS
		}
		log, err := wal.Open(walOpts)
		if err != nil {
			return fail(err)
		}
		jo := serve.JournalOptions{StallTimeout: opt.walStall, MaxBatch: opt.walMaxBatch}
		if fp == wal.FsyncInterval {
			jo.SyncEvery = opt.fsyncInterval
		}
		j = serve.NewJournal(st, log, res.LastSeq, jo)
		// Durable before the listeners open; its maintenance runs behind them.
		if _, _, err := j.CheckpointDeferMaint(); err != nil {
			j.Close()
			return fail(fmt.Errorf("boot checkpoint: %w", err))
		}
		fmt.Printf("dynallocd: durability on: wal-dir=%s fsync=%s checkpoint-every=%v\n",
			opt.walDir, opt.fsync, opt.ckptEvery)
	} else {
		st.FillBalanced(opt.m)
	}

	totalM := int(st.Total()) + opt.crashK
	target, err := serve.NewTarget(pol, sc, opt.n, totalM, opt.slack)
	if err != nil {
		return fail(err)
	}
	det := serve.NewDetector(st, target)
	det.AttachEpisodes(serve.NewEpisodeTracker(target.BudgetSteps))

	fmt.Printf("dynallocd: n=%d m=%d rule=%s scenario=%s workers=%d shards=%d seed=%d\n",
		opt.n, opt.m, pol.Name(), sc, opt.workers, st.Shards(), opt.seed)
	fmt.Printf("dynallocd: recovery target max load %d (fluid prediction %d + slack %d), budget %.0f steps\n",
		target.MaxLoad(), target.PredictedMax, target.Slack, target.BudgetSteps)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	srv := newServer(st, det, pol, sc, opt.seed)
	if j != nil {
		srv.jp.Store(j)
	}
	var httpDone chan error
	if opt.addr != "" {
		httpDone, err = srv.serve(ctx, opt.addr, opt.portFile)
		if err != nil {
			if j != nil {
				j.Close()
			}
			return fail(err)
		}
	}

	// The binary shard protocol: the listener dynrouter probes and
	// admits through. It shares the store, detector, and journal hooks
	// with the HTTP surface, so dgram mutations are checkpointed and
	// WAL-journaled exactly like HTTP ones.
	var dgramSrv *router.Server
	var dgramDone chan error
	if opt.dgramAddr != "" {
		var dgAddr net.Addr
		dgramSrv, dgAddr, dgramDone, err = startDgram(opt.dgramAddr, opt.dgramPortFile, router.ServerConfig{
			Store: st, Policy: pol, Scenario: sc, Seed: opt.seed, Detector: det,
		})
		if err != nil {
			if j != nil {
				j.Close()
			}
			return fail(err)
		}
		fmt.Printf("dynallocd: dgram listening on %s\n", dgAddr)
	}

	// Two chores run once here, beside listeners that already answer, so
	// neither delays the first PROBE reply. The boot checkpoint made the
	// replayed segments garbage; unlinking them scans the log once more,
	// and nothing waits for that (see Journal.Maintain). What the replay
	// and that scan allocated is garbage by now, and the serving path
	// allocates nothing, so no later collection would hand it back:
	// without FreeOSMemory a shard's resident set depends on whether a GC
	// cycle happened to follow its boot.
	if j != nil {
		go func() {
			t0 := time.Now()
			removed := j.Maintain()
			fmt.Printf("dynallocd: boot checkpoint maintenance: %v, %d WAL segments removed\n", time.Since(t0), removed)
			warnMaint(j, "boot checkpoint")
			debug.FreeOSMemory()
		}()
	}

	// The replication stream: followers subscribe here and tail the same
	// WAL directory the journal writes. OnPromote is the fence a forced
	// promotion pulls — stop admitting, flush the journal, and hand the
	// final durable seq to the streamer to acknowledge with.
	var repStr *replica.Streamer
	var repDone chan error
	if opt.replicaListen != "" {
		if j == nil {
			return fail(fmt.Errorf("-replica-listen needs -wal-dir (the stream ships the WAL)"))
		}
		repStr, err = replica.NewStreamer(replica.StreamerConfig{
			FS: walFS, Dir: opt.walDir, LastSeq: j.LastSeq,
			OnPromote: func(force bool) (uint64, error) {
				srv.draining.Store(true)
				if dgramSrv != nil {
					dgramSrv.SetDraining(true)
				}
				j.Drain()
				fmt.Println("dynallocd: fenced by a promoting follower; refusing mutations")
				return j.LastSeq(), nil
			},
		})
		if err != nil {
			j.Close()
			return fail(err)
		}
		ln, lerr := net.Listen("tcp", opt.replicaListen)
		if lerr != nil {
			j.Close()
			return fail(fmt.Errorf("replica listen: %w", lerr))
		}
		if opt.replicaPortFile != "" {
			if werr := writePortFile(opt.replicaPortFile, ln.Addr().String()); werr != nil {
				ln.Close()
				j.Close()
				return fail(werr)
			}
		}
		repDone = make(chan error, 1)
		go func() { repDone <- repStr.Serve(ln) }()
		fmt.Printf("dynallocd: replication stream listening on %s\n", ln.Addr())
	}

	var ckptWG sync.WaitGroup
	if j != nil && opt.ckptEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			t := time.NewTicker(opt.ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, _, err := j.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "dynallocd: checkpoint:", err)
					}
					warnMaint(j, "checkpoint")
				}
			}
		}()
	}

	var chaosWG sync.WaitGroup
	if opt.chaos {
		inj, err := serve.NewChaosInjector(serve.ChaosConfig{
			Store: st, Detector: det,
			Rate: opt.chaosRate, Seed: opt.seed,
			Faults:  parseChaosFaults(opt.chaosFaults),
			FaultFS: faultFS,
			OnFault: func(kind string) { fmt.Printf("dynallocd: chaos: %s catastrophe\n", kind) },
		})
		if err != nil {
			if j != nil {
				j.Close()
			}
			return fail(err)
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
		code = runDrive(ctx, st, det, pol, sc, opt, target)
		if !opt.stay {
			cancel()
		}
	}

	if httpDone != nil {
		// Serve until interrupted (or, after a non-stay drive, until the
		// cancel above unblocks the shutdown).
		srv.watch(ctx, opt.checkInterval)
		if err := <-httpDone; err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd:", err)
			if code == 0 {
				code = 1
			}
		}
	} else if dgramDone != nil {
		// dgram is the only surface (a shard daemon): keep the detector
		// ticking until interrupted, same as the HTTP path.
		srv.watch(ctx, opt.checkInterval)
	}

	// Stop the dgram listener before the final checkpoint: SetDraining
	// refuses new mutations and Close waits for in-flight handlers, so
	// the checkpoint sees a quiesced store.
	if dgramSrv != nil {
		dgramSrv.SetDraining(true)
		dgramSrv.Close()
		if err := <-dgramDone; err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: dgram:", err)
			if code == 0 {
				code = 1
			}
		}
	}

	// Stop the replication stream before the final checkpoint: a
	// follower mid-pump holds segment handles, and the final truncation
	// should not race a tail read.
	if repStr != nil {
		repStr.Close()
		if err := <-repDone; err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: replica stream:", err)
			if code == 0 {
				code = 1
			}
		}
	}

	// Stop the injector before the final checkpoint: its shutdown path
	// clears any armed disk fault, so the checkpoint lands on a healthy
	// filesystem.
	cancel()
	chaosWG.Wait()

	// Traffic has quiesced (HTTP shut down, drive finished): take the
	// final checkpoint and close the WAL so a clean shutdown restarts
	// from the checkpoint alone.
	if j != nil {
		ckptWG.Wait()
		finalCkptOK := false
		if snap, _, err := j.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: final checkpoint:", err)
			if code == 0 {
				code = 1
			}
		} else {
			finalCkptOK = true
			fmt.Printf("dynallocd: final checkpoint at seq %d (%d balls)\n", snap.Seq, st.Total())
		}
		warnMaint(j, "final checkpoint")
		if err := j.Close(); err != nil {
			// Close resurfaces the journal's first append error. Under
			// chaos that is the injected disk fault doing its job; once
			// the final checkpoint has durably captured the full state,
			// the dropped WAL records are covered and the run is sound.
			if opt.chaos && finalCkptOK {
				fmt.Fprintf(os.Stderr, "dynallocd: wal close: %v (chaos-injected; the final checkpoint covers it)\n", err)
			} else {
				fmt.Fprintln(os.Stderr, "dynallocd: wal close:", err)
				if code == 0 {
					code = 1
				}
			}
		}
	}
	return code
}

// startDgram binds the binary shard-protocol listener, publishes its
// resolved address, and serves it. Shared between boot and the
// promotion path (a promoted standby binds the same -dgram-addr the
// dead primary held, so a router's health loop revives the shard
// there).
func startDgram(addr, portFile string, cfg router.ServerConfig) (*router.Server, net.Addr, chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dgram listen: %w", err)
	}
	if portFile != "" {
		if err := writePortFile(portFile, ln.Addr().String()); err != nil {
			ln.Close()
			return nil, nil, nil, err
		}
	}
	srv := router.NewServer(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr(), done, nil
}

// runReplica is the hot-standby daemon shape: a Follower subscribed to
// the primary's replication stream, replaying into the warm store and
// persisting its own log copy, with HTTP serving the replication view
// and POST /promote. Promotion re-arms a journal + detector on the
// follower's own directory and (when -dgram-addr is set) binds the
// shard listener — from then on the daemon is an ordinary primary.
func runReplica(st *serve.Store, pol serve.Policy, sc process.Scenario, opt options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dynallocd:", err)
		return 2
	}
	if opt.walDir == "" {
		return fail(fmt.Errorf("-replicate-from needs -wal-dir (the replica persists its own log copy)"))
	}
	if opt.drive || opt.chaos || opt.crashK > 0 || opt.replicaListen != "" {
		return fail(fmt.Errorf("-replicate-from excludes -drive/-chaos/-crash/-replica-listen until promotion"))
	}
	fp, err := wal.ParseFsyncPolicy(opt.fsync)
	if err != nil {
		return fail(err)
	}
	f, res, err := replica.NewFollower(replica.FollowerConfig{
		Store: st, Dir: opt.walDir, Fsync: fp,
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
		opt.replicateFrom, opt.n, pol.Name(), sc, opt.walDir)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	srv := newServer(st, nil, pol, sc, opt.seed)
	srv.fol = f

	// Promotion: stop the stream (fencing a live primary if forced),
	// then re-arm everything a primary boot sets up — journal with a
	// fresh checkpoint, detector with a promotion fault noted, and the
	// shard listener the router revives this address through. The
	// detector is installed last: its presence flips the mutation gate.
	var promoteMu sync.Mutex
	var pDgram *router.Server
	var pDgramDone chan error
	srv.promote = func(force bool) (replica.PromoteResult, error) {
		promoteMu.Lock()
		defer promoteMu.Unlock()
		pres, err := f.Promote(force)
		if err != nil || srv.detector() != nil {
			return pres, err // refused, or an idempotent re-promote
		}
		log, err := wal.Open(wal.Options{Dir: opt.walDir, Fsync: fp, FsyncInterval: opt.fsyncInterval})
		if err != nil {
			return pres, fmt.Errorf("re-arm wal: %w", err)
		}
		jo := serve.JournalOptions{StallTimeout: opt.walStall, MaxBatch: opt.walMaxBatch}
		if fp == wal.FsyncInterval {
			jo.SyncEvery = opt.fsyncInterval
		}
		j := serve.NewJournal(st, log, pres.LastSeq, jo)
		if _, _, err := j.Checkpoint(); err != nil {
			j.Close()
			return pres, fmt.Errorf("promotion checkpoint: %w", err)
		}
		warnMaint(j, "promotion checkpoint")
		target, err := serve.NewTarget(pol, sc, opt.n, int(st.Total()), opt.slack)
		if err != nil {
			j.Close()
			return pres, err
		}
		det := serve.NewDetector(st, target)
		det.AttachEpisodes(serve.NewEpisodeTracker(target.BudgetSteps))
		det.NoteFault("promote") // the fail-over IS a disruption episode
		srv.jp.Store(j)
		srv.det.Store(det)
		if opt.dgramAddr != "" {
			dg, dgAddr, done, derr := startDgram(opt.dgramAddr, opt.dgramPortFile, router.ServerConfig{
				Store: st, Policy: pol, Scenario: sc, Seed: opt.seed, Detector: det,
			})
			if derr != nil {
				fmt.Fprintln(os.Stderr, "dynallocd: promote:", derr)
			} else {
				pDgram, pDgramDone = dg, done
				fmt.Printf("dynallocd: dgram listening on %s\n", dgAddr)
			}
		}
		fmt.Printf("dynallocd: promoted at seq %d (forced=%v, %d frees skipped in replay)\n",
			pres.LastSeq, pres.Forced, pres.SkippedFrees)
		return pres, nil
	}

	var httpDone chan error
	if opt.addr != "" {
		httpDone, err = srv.serve(ctx, opt.addr, opt.portFile)
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
			fmt.Fprintln(os.Stderr, "dynallocd:", err)
			code = 1
		}
	} else {
		<-ctx.Done()
	}
	cancel()
	<-runDone

	promoteMu.Lock()
	defer promoteMu.Unlock()
	if pDgram != nil {
		pDgram.SetDraining(true)
		pDgram.Close()
		if err := <-pDgramDone; err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: dgram:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	if j := srv.journal(); j != nil {
		// Promoted: shut down exactly like a primary — final checkpoint,
		// then close the WAL.
		if snap, _, err := j.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: final checkpoint:", err)
			if code == 0 {
				code = 1
			}
		} else {
			fmt.Printf("dynallocd: final checkpoint at seq %d (%d balls)\n", snap.Seq, st.Total())
		}
		warnMaint(j, "final checkpoint")
		if err := j.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dynallocd: wal close:", err)
			if code == 0 {
				code = 1
			}
		}
	} else if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dynallocd: replica close:", err)
		if code == 0 {
			code = 1
		}
	}
	return code
}

// printRestoreBreakdown prints the restore phases the drills assert on,
// then the replay's stage totals (summed over each stage's goroutines:
// they overlap, and can exceed the replay's wall time).
func printRestoreBreakdown(res serve.RestoreResult) {
	fmt.Printf("dynallocd: restore breakdown: checkpoint %v, replay %v, fence %v, workers %d, read %v, decode %v, apply %v\n",
		time.Duration(res.CheckpointNs), time.Duration(res.ReplayNs), time.Duration(res.FenceNs), res.Workers,
		time.Duration(res.ReadNs), time.Duration(res.DecodeNs), time.Duration(res.ApplyNs))
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
func runDrive(ctx context.Context, st *serve.Store, det *serve.Detector, pol serve.Policy, sc process.Scenario, opt options, target serve.Target) int {
	if opt.crashK > 0 {
		load := st.Crash(opt.crashBin, opt.crashK)
		det.MarkDisrupted()
		fmt.Printf("dynallocd: crashed bin %d to load %d (+%d balls)\n", opt.crashBin, load, opt.crashK)
	}
	maxSteps := opt.maxSteps
	if maxSteps == 0 {
		maxSteps = int64(100 * target.BudgetSteps)
	}
	eng := serve.NewEngine(serve.Config{
		Store: st, Policy: pol, Scenario: sc,
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
	sum := det.Episodes().Summary()
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

// server is the HTTP face of the store: admissions, frees, fault
// injection, and the detector's view of the state. In replica mode
// (fol != nil) the detector and journal start nil and are installed
// atomically by promotion — their presence IS the "promoted" state the
// mutation gate checks.
type server struct {
	st  *serve.Store
	det atomic.Pointer[serve.Detector]
	sc  process.Scenario
	jp  atomic.Pointer[serve.Journal] // nil when durability is off

	fol     *replica.Follower // non-nil in replica mode
	promote func(force bool) (replica.PromoteResult, error)

	// draining flips on when shutdown starts: mutation endpoints refuse
	// with 503 so the final checkpoint captures a quiesced store.
	draining atomic.Bool

	mu  sync.Mutex // guards pol, r and the batch scratch below
	pol serve.Policy
	r   *rng.RNG

	// Batch-lane scratch for /alloc?count=N: picks and admissions go
	// through serve.BatchPolicy + Store.AdmitBatch in one pass, reusing
	// these across requests (under mu).
	bpol       serve.BatchPolicy // nil when pol has no batch path
	admitBins  []int
	admitLoads []int32
	admitSc    serve.AdmitScratch
}

func (s *server) detector() *serve.Detector { return s.det.Load() }
func (s *server) journal() *serve.Journal   { return s.jp.Load() }

// httpStreamOffset keeps the HTTP admission rng stream disjoint from
// the drive workers' decision streams (streams 0..W-1) and their pacing
// streams (offset 1<<32).
const httpStreamOffset = 1 << 33

func newServer(st *serve.Store, det *serve.Detector, pol serve.Policy, sc process.Scenario, seed uint64) *server {
	s := &server{
		st: st, sc: sc,
		pol: pol.Clone(),
		r:   rng.NewStream(seed, httpStreamOffset),
	}
	s.bpol, _ = s.pol.(serve.BatchPolicy)
	if det != nil {
		s.det.Store(det)
	}
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/alloc", s.handleAlloc)
	mux.HandleFunc("/free", s.handleFree)
	mux.HandleFunc("/crash", s.handleCrash)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// serve binds addr (resolving an ephemeral :0 port), optionally writes
// the resolved address to portFile, and returns a channel that yields
// the server's terminal error after ctx is cancelled and shutdown
// completes. Binding synchronously means a port collision fails boot
// instead of surfacing minutes later.
func (s *server) serve(ctx context.Context, addr, portFile string) (chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("http listen: %w", err)
	}
	if portFile != "" {
		if err := writePortFile(portFile, ln.Addr().String()); err != nil {
			ln.Close()
			return nil, err
		}
	}
	hs := &http.Server{Handler: s.routes()}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		// Refuse new mutations before draining in-flight requests, so
		// the state the final checkpoint sees is the state clients saw.
		s.draining.Store(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
	}()
	go func() {
		fmt.Printf("dynallocd: listening on %s\n", ln.Addr())
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			done <- err
			return
		}
		done <- nil
	}()
	return done, nil
}

// writePortFile publishes a resolved listen address for scripts that
// started the daemon with an ephemeral port. Written to a temp name
// and renamed so a poller never reads a half-written file.
func writePortFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return fmt.Errorf("port file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("port file: %w", err)
	}
	return nil
}

// watch runs periodic detector checks until ctx is done, so the
// recovered gauge stays fresh even when no driver is stepping the
// store. An un-promoted replica has no detector yet; the tick resumes
// checking the moment promotion installs one.
func (s *server) watch(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if det := s.detector(); det != nil {
				det.Check()
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// refuseDraining rejects mutations once shutdown has started. Returns
// true when the request was already answered.
func (s *server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("shutting down"))
	return true
}

// refuseReplica rejects mutations on an un-promoted replica: the
// stream is the only writer until POST /promote installs a detector.
func (s *server) refuseReplica(w http.ResponseWriter) bool {
	if s.fol == nil || s.detector() != nil {
		return false
	}
	writeErr(w, http.StatusConflict, fmt.Errorf("replica: not promoted (POST /promote to take over)"))
	return true
}

func (s *server) handleAlloc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseDraining(w) || s.refuseReplica(w) {
		return
	}
	count := 1
	if q := r.URL.Query().Get("count"); q != "" {
		var err error
		count, err = strconv.Atoi(q)
		if err != nil || count < 1 || count > 1<<20 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad count %q (want 1..%d)", q, 1<<20))
			return
		}
	}
	if count == 1 {
		s.mu.Lock()
		bin, probes := s.pol.Pick(s.st, s.r)
		s.mu.Unlock()
		load := s.st.Alloc(bin)
		writeJSON(w, http.StatusOK, map[string]int{"bin": bin, "load": load, "probes": probes})
		return
	}
	// count > 1: the batch lane — picks drawn in one PickBatch pass,
	// admissions applied by one Store.AdmitBatch (the choices within
	// the batch do not see the batch's own admissions, as everywhere
	// on the batch lane).
	s.mu.Lock()
	if cap(s.admitBins) < count {
		s.admitBins = make([]int, count)
		s.admitLoads = make([]int32, count)
	}
	bins := s.admitBins[:count]
	loads := s.admitLoads[:count]
	probes := 0
	if s.bpol != nil {
		probes = s.bpol.PickBatch(s.st, s.r, bins)
	} else {
		for i := range bins {
			var m int
			bins[i], m = s.pol.Pick(s.st, s.r)
			probes += m
		}
	}
	s.st.AdmitBatch(bins, loads, &s.admitSc)
	// Copy out of the scratch before releasing mu; this surface is
	// JSON (it allocates regardless — the zero-alloc lane is dgram),
	// and a slow client must not hold up the admission stream.
	respBins := append([]int(nil), bins...)
	respLoads := append([]int32(nil), loads...)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Count  int     `json:"count"`
		Probes int     `json:"probes"`
		Bins   []int   `json:"bins"`
		Loads  []int32 `json:"loads"`
	}{count, probes, respBins, respLoads})
}

func (s *server) handleFree(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseDraining(w) || s.refuseReplica(w) {
		return
	}
	var bin, load int
	var err error
	if q := r.URL.Query().Get("bin"); q != "" {
		bin, err = strconv.Atoi(q)
		if err != nil || bin < 0 || bin >= s.st.N() {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad bin %q", q))
			return
		}
		load, err = s.st.FreeBin(bin)
	} else {
		// No bin: a departure drawn per the configured scenario.
		s.mu.Lock()
		switch s.sc {
		case process.ScenarioB:
			bin, err = s.st.FreeNonEmpty(s.r)
		default:
			bin, err = s.st.FreeBall(s.r)
		}
		s.mu.Unlock()
		if err == nil {
			load = s.st.Load(bin)
		}
	}
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"bin": bin, "load": load})
}

func (s *server) handleCrash(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseDraining(w) || s.refuseReplica(w) {
		return
	}
	q := r.URL.Query()
	bin, err := strconv.Atoi(q.Get("bin"))
	if err != nil || bin < 0 || bin >= s.st.N() {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad bin %q", q.Get("bin")))
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k %q", q.Get("k")))
		return
	}
	load := s.st.Crash(bin, k)
	if det := s.detector(); det != nil {
		det.MarkDisrupted()
	}
	writeJSON(w, http.StatusOK, map[string]int{"bin": bin, "load": load, "added": k})
}

// handleCheckpoint forces a durability checkpoint. 409 when the daemon
// runs without -wal-dir: there is nothing to checkpoint into.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseReplica(w) {
		return
	}
	j := s.journal()
	if j == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("durability disabled (-wal-dir not set)"))
		return
	}
	snap, path, err := j.Checkpoint()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := map[string]any{
		"seq": snap.Seq, "path": path, "balls": s.st.Total(),
	}
	// The snapshot above is durable even when post-write maintenance
	// (pruning, truncation) failed; report that as a warning, not a 500.
	if merr := j.MaintErr(); merr != nil {
		resp["maintenance_error"] = merr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	det := s.detector()
	if det == nil {
		// An un-promoted replica has no detector: report the replication
		// view instead, with the same store-shape fields the drill diffs.
		rs := s.fol.Status()
		if r.URL.Query().Get("summary") != "" {
			writeJSON(w, http.StatusOK, map[string]any{
				"n": s.st.N(), "m": s.st.Total(), "role": "replica", "replica": rs,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"n":        s.st.N(),
			"shards":   s.st.Shards(),
			"role":     "replica",
			"scenario": s.sc.String(),
			"replica":  rs,
			"stats":    s.st.Stats(),
			"loads":    s.st.LoadsCopy(),
		})
		return
	}
	status := det.Check()
	if r.URL.Query().Get("summary") != "" {
		// The cheap polling form: no load vector — but with the episode
		// aggregate, which is how the chaos drills watch MTTR accrue.
		out := map[string]any{
			"n":         s.st.N(),
			"m":         s.st.Total(),
			"max_load":  status.MaxLoad,
			"gap":       status.Gap,
			"recovered": status.Recovered,
		}
		if tr := det.Episodes(); tr != nil {
			out["episodes"] = tr.Summary()
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	ep, episodes := det.LastEpisode()
	target := det.Target()
	s.mu.Lock()
	name := s.pol.Name()
	s.mu.Unlock()
	state := map[string]any{
		"n":            s.st.N(),
		"shards":       s.st.Shards(),
		"rule":         name,
		"scenario":     s.sc.String(),
		"stats":        s.st.Stats(),
		"status":       status,
		"target":       target,
		"episodes":     episodes,
		"last_episode": ep,
		"loads":        s.st.LoadsCopy(),
	}
	if tr := det.Episodes(); tr != nil {
		state["episode_summary"] = tr.Summary()
	}
	if j := s.journal(); j != nil {
		state["wal_last_seq"] = j.LastSeq()
	}
	if s.fol != nil {
		state["replica"] = s.fol.Status() // promoted standby: shows its lineage
	}
	writeJSON(w, http.StatusOK, state)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	det := s.detector()
	if det == nil {
		rs := s.fol.Status()
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "role": "replica",
			"connected": rs.Connected, "lag_seq": rs.LagSeq,
		})
		return
	}
	status := det.Check()
	writeJSON(w, http.StatusOK, map[string]any{
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.refuseDraining(w) {
		return
	}
	if s.fol == nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("not a replica (-replicate-from not set)"))
		return
	}
	res, err := s.promote(r.URL.Query().Get("force") != "")
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, replica.ErrPrimaryAlive) {
			code = http.StatusConflict
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"last_seq": res.LastSeq, "forced": res.Forced, "skipped_frees": res.SkippedFrees,
	})
}

func parseScenario(s string) (process.Scenario, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "A":
		return process.ScenarioA, nil
	case "B":
		return process.ScenarioB, nil
	}
	return 0, fmt.Errorf("unknown scenario %q (want A or B)", s)
}

// resolveRuleSpec folds the -d/-x/-beta shorthands into one ParsePolicy
// spec. An explicit -rule wins; the shorthands are mutually exclusive.
func resolveRuleSpec(rule string, d int, x string, beta float64) (string, error) {
	if rule != "" {
		if x != "" || beta >= 0 {
			return "", fmt.Errorf("-rule conflicts with -x/-beta")
		}
		return rule, nil
	}
	if x != "" && beta >= 0 {
		return "", fmt.Errorf("-x conflicts with -beta")
	}
	if x != "" {
		return "adap:" + x, nil
	}
	if beta >= 0 {
		return fmt.Sprintf("mixed:%g", beta), nil
	}
	return fmt.Sprintf("abku:%d", d), nil
}
