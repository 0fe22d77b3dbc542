// Command dynrouter fronts a fleet of dynallocd shards with the
// cluster-level d-choice rule: every admission probes d shards over
// the binary dgram protocol and lands at the least loaded, so the
// two-level structure (router balances shards, each shard's policy
// balances its bins) reproduces the paper's power-of-d behaviour at
// fleet scale. A cluster-wide recovery detector aggregates per-shard
// load digests and fires against the Theorem 1 budget, exactly like a
// single dynallocd's detector does for one store.
//
// Usage:
//
//	dynrouter -shards host1:9000,host2:9000,host3:9000          # admin HTTP on :8090
//	dynrouter -shards ... -traffic 8                            # plus continuous traffic workers
//	dynrouter -shards ... -drive -crash 4096                    # cluster recovery drill, report vs budget
//	dynrouter -shards host:9000 -addr "" -drive -crash 0        # drive one shard until it recovers
//
// Clients admit and free through a router.Session in their own process
// (scripts/dgramc is the command-line one). HTTP is the admin plane:
//
//	GET  /state                    cluster detector + per-shard state (?summary=1: small form)
//	GET  /healthz                  liveness + {"recovered", "degraded"}
//
// Fault tolerance: a shard that fails a call is marked down and
// health-checked in the background; while it is out, admissions probe
// the surviving shards (d-1 degraded mode) and departures re-weight,
// so client-visible errors require losing the whole fleet. The
// cluster detector refuses to report recovery while any shard is
// unreachable. See docs/CLUSTER.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynalloc/internal/daemon"
	"dynalloc/internal/metrics"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
)

func main() {
	var opt options
	flag.StringVar(&opt.shards, "shards", "", "comma-separated dgram addresses of the shard fleet (required)")
	flag.IntVar(&opt.d, "d", 2, "cluster probe fan-out: admit at the least loaded of d probed shards")
	flag.StringVar(&opt.addr, "addr", ":8090", "HTTP listen address (empty: no server; port 0: ephemeral, see -port-file)")
	flag.StringVar(&opt.portFile, "port-file", "", "write the resolved HTTP listen address to this file once listening")
	flag.StringVar(&opt.ruleSpec, "rule", "abku:2", "the shards' local admission rule (for the aggregate fluid target)")
	flag.StringVar(&opt.scenario, "scenario", "A", "the shards' departure scenario: A or B")
	flag.Uint64Var(&opt.seed, "seed", 1998, "rng seed (workers use derived streams)")
	flag.IntVar(&opt.slack, "slack", 2, "recovery threshold slack above the aggregate fluid prediction")
	flag.DurationVar(&opt.waitFor, "wait", 15*time.Second, "max time to wait for every shard to answer at boot")

	flag.IntVar(&opt.traffic, "traffic", 0, "continuous closed-loop traffic workers (0: none)")
	flag.DurationVar(&opt.checkInterval, "check-interval", time.Second, "cluster detector sweep cadence while serving")

	flag.BoolVar(&opt.drive, "drive", false, "run the cluster recovery drill, then exit (unless -stay)")
	flag.IntVar(&opt.workers, "workers", runtime.GOMAXPROCS(0), "drive worker goroutines")
	flag.IntVar(&opt.crashK, "crash", 4096, "drill fault: add this many balls to one bin of -crash-shard")
	flag.IntVar(&opt.crashShard, "crash-shard", 0, "shard index the drill fault lands on")
	flag.IntVar(&opt.crashBin, "crash-bin", 0, "bin the drill fault lands in")
	flag.Float64Var(&opt.budgetMult, "budget-mult", 8, "with -drive: exit nonzero when recovery exceeds this multiple of the Theorem 1 budget (0: no gate)")
	flag.BoolVar(&opt.stay, "stay", false, "after the drill, keep serving until interrupted")

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
	shards        string
	d             int
	addr          string
	portFile      string
	ruleSpec      string
	scenario      string
	seed          uint64
	slack         int
	waitFor       time.Duration
	traffic       int
	checkInterval time.Duration
	drive         bool
	workers       int
	crashK        int
	crashShard    int
	crashBin      int
	budgetMult    float64
	stay          bool
}

func run(opt options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "dynrouter:", err)
		return 2
	}

	var addrs []string
	for _, a := range strings.Split(opt.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fail(fmt.Errorf("-shards is required (comma-separated dgram addresses)"))
	}
	sc, err := daemon.ParseScenario(opt.scenario)
	if err != nil {
		return fail(err)
	}
	pol, err := serve.ParsePolicy(opt.ruleSpec)
	if err != nil {
		return fail(err)
	}

	rt, err := router.New(router.Options{Shards: addrs, D: opt.d})
	if err != nil {
		return fail(err)
	}
	defer rt.Close()
	if err := rt.WaitReady(opt.waitFor); err != nil {
		return fail(err)
	}

	// The aggregate recovery target: the fleet's stationary max load is
	// approximated by one store of the combined geometry (total bins,
	// total balls) under the shards' local rule — the router's
	// least-loaded shard choice only tightens the balance across
	// shards, so this baseline is the conservative side. The drill's
	// crash mass counts into m, matching dynallocd's -drive.
	boot := rt.NewSession()
	var totalN, totalM int
	for i := 0; i < rt.NumShards(); i++ {
		sum, perr := boot.Probe(i)
		if perr != nil {
			boot.Close()
			return fail(fmt.Errorf("boot probe shard %d: %w", i, perr))
		}
		totalN += int(sum.N)
		totalM += int(sum.Total)
	}
	boot.Close()
	if opt.drive {
		totalM += opt.crashK
	}
	if totalM < 1 {
		totalM = totalN
	}
	target, err := serve.NewTarget(pol, sc, totalN, totalM, opt.slack)
	if err != nil {
		return fail(err)
	}
	det := router.NewDetector(rt, target)
	defer det.Close()

	fmt.Printf("dynrouter: %d shards, d=%d, aggregate n=%d m=%d rule=%s scenario=%s seed=%d\n",
		rt.NumShards(), rt.D(), totalN, totalM, pol.Name(), sc, opt.seed)
	fmt.Printf("dynrouter: recovery target max load %d (fluid prediction %d + slack %d), budget %.0f steps\n",
		target.MaxLoad(), target.PredictedMax, target.Slack, target.BudgetSteps)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	srv := newServer(rt, det)
	var httpDone chan error
	if opt.addr != "" {
		httpDone, err = daemon.ServeHTTP(ctx, "dynrouter", opt.addr, opt.portFile, srv.routes(), nil)
		if err != nil {
			return fail(err)
		}
	}

	// Continuous traffic: the live-fleet equivalent of the engine's
	// closed loop. Every client-visible error is counted — the drill's
	// "zero errors while degraded" assertion reads this counter off
	// /state.
	var twg sync.WaitGroup
	trafficStop := make(chan struct{})
	for w := 0; w < opt.traffic; w++ {
		twg.Add(1)
		go func(w int) {
			defer twg.Done()
			closedLoop(rt, opt.seed, w, trafficStop, &srv.trafficOps, &srv.trafficErrs)
		}(w)
	}
	if opt.traffic > 0 {
		fmt.Printf("dynrouter: %d traffic workers running\n", opt.traffic)
	}

	code := 0
	if opt.drive {
		code = runDrive(ctx, rt, det, opt, target)
		if !opt.stay {
			cancel()
		}
	}

	if httpDone != nil {
		daemon.Every(ctx, opt.checkInterval, func() { det.Check() })
		if err := <-httpDone; err != nil {
			fmt.Fprintln(os.Stderr, "dynrouter:", err)
			if code == 0 {
				code = 1
			}
		}
	} else if !opt.drive || opt.stay {
		<-ctx.Done()
	}

	close(trafficStop)
	twg.Wait()
	if opt.traffic > 0 {
		fmt.Printf("dynrouter: traffic done: %d ops, %d errors\n",
			srv.trafficOps.Load(), srv.trafficErrs.Load())
		if srv.trafficErrs.Load() > 0 && code == 0 {
			code = 1
		}
	}
	return code
}

// closedLoop is one traffic worker: admit/free pairs on its own session
// and rng stream (seed, w) until stop closes, counting every call in
// ops and every client-visible error in errs. Ball mass is conserved,
// which keeps the fluid target valid under -traffic and is what -drive
// recovers through.
func closedLoop(rt *router.Router, seed uint64, w int, stop <-chan struct{}, ops, errs *atomic.Int64) {
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(seed, uint64(w))
	for {
		select {
		case <-stop:
			return
		default:
		}
		if _, err := ses.Admit(r); err != nil {
			errs.Add(1)
		}
		if _, err := ses.Free(r); err != nil {
			errs.Add(1)
		}
		ops.Add(2)
	}
}

// runDrive is the cluster recovery drill: crash one shard's bin to a
// worst-case load, then run closed-loop traffic through the router
// until the cluster detector sees the typical state again, and gate
// the measured recovery against the Theorem 1 budget.
func runDrive(ctx context.Context, rt *router.Router, det *serve.Detector, opt options, target serve.Target) int {
	if opt.crashShard < 0 || opt.crashShard >= rt.NumShards() {
		fmt.Fprintf(os.Stderr, "dynrouter: -crash-shard %d out of range\n", opt.crashShard)
		return 2
	}
	ses := rt.NewSession()
	defer ses.Close()
	if opt.crashK > 0 {
		load, err := ses.Crash(opt.crashShard, uint32(opt.crashBin), uint32(opt.crashK))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynrouter: crash injection:", err)
			return 2
		}
		det.MarkDisrupted()
		fmt.Printf("dynrouter: crashed shard %d bin %d to load %d (+%d balls)\n",
			opt.crashShard, opt.crashBin, load, opt.crashK)
	}

	maxSteps := int64(100 * target.BudgetSteps)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var workerOps, workerErrs atomic.Int64
	for w := 0; w < opt.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			closedLoop(rt, opt.seed, w, stop, &workerOps, &workerErrs)
		}(w)
	}

	t0 := time.Now()
	var last serve.Status
	recovered := false
	for !recovered {
		select {
		case <-ctx.Done():
		case <-time.After(20 * time.Millisecond):
		}
		last = det.Check()
		recovered = last.Recovered
		if ctx.Err() != nil || (!recovered && last.Steps > maxSteps) {
			break
		}
	}
	close(stop)
	wg.Wait()

	if workerErrs.Load() > 0 {
		fmt.Printf("dynrouter: FAIL: %d client-visible errors during the drill\n", workerErrs.Load())
		return 1
	}
	if !recovered {
		fmt.Printf("dynrouter: NOT recovered after %d steps (budget %.0f) in %v\n",
			last.Steps, target.BudgetSteps, time.Since(t0).Round(time.Millisecond))
		return 1
	}
	ep, _ := det.LastEpisode()
	ratio := float64(ep.Steps) / target.BudgetSteps
	fmt.Printf("dynrouter: cluster recovered in %d steps (%.2fx the m·ln(m/eps) budget of %.0f) — wall clock %v\n",
		ep.Steps, ratio, target.BudgetSteps, ep.Wall.Round(time.Microsecond))
	fmt.Printf("dynrouter: max load %d (target %d), %d/%d shards live\n",
		last.MaxLoad, last.TargetMax, last.LiveShards, last.Shards)
	if opt.budgetMult > 0 && ratio > opt.budgetMult {
		fmt.Printf("dynrouter: FAIL: recovery %.2fx budget exceeds the %gx gate\n", ratio, opt.budgetMult)
		return 1
	}
	return 0
}

// server is the admin plane of the cluster: the detector's view of the
// fleet and the traffic workers' counters.
type server struct {
	rt  *router.Router
	det *serve.Detector

	trafficOps  atomic.Int64
	trafficErrs atomic.Int64
}

func newServer(rt *router.Router, det *serve.Detector) *server {
	return &server{rt: rt, det: det}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/state", s.handleState)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	status := s.det.Check()
	traffic := map[string]int64{
		"ops": s.trafficOps.Load(), "errors": s.trafficErrs.Load(),
	}
	if r.URL.Query().Get("summary") != "" {
		daemon.WriteJSON(w, http.StatusOK, map[string]any{
			"max_load":    status.MaxLoad,
			"recovered":   status.Recovered,
			"degraded":    status.Degraded,
			"live_shards": status.LiveShards,
			"traffic":     traffic,
		})
		return
	}
	type shardInfo struct {
		Addr  string `json:"addr"`
		Down  bool   `json:"down"`
		Total int64  `json:"total"`
		N     int    `json:"n"`
		Fails int64  `json:"fails"`
	}
	infos := make([]shardInfo, s.rt.NumShards())
	for i := range infos {
		infos[i] = shardInfo{
			Addr: s.rt.Addr(i), Down: s.rt.Down(i),
			Total: s.rt.CachedTotal(i), N: s.rt.CachedN(i), Fails: s.rt.Fails(i),
		}
	}
	ep, episodes := s.det.LastEpisode()
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"d":            s.rt.D(),
		"status":       status,
		"target":       s.det.Target(),
		"episodes":     episodes,
		"last_episode": ep,
		"shards":       infos,
		"traffic":      traffic,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := s.det.Check()
	daemon.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":          true,
		"recovered":   status.Recovered,
		"degraded":    status.Degraded,
		"live_shards": status.LiveShards,
	})
}
