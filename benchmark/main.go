// Command benchmark is the repository's end-to-end benchmark: it builds
// cmd/dynallocd, runs four workloads against real shard processes over
// the real wire protocol, checks that what the system did was correct,
// and prints every metric by name with its unit. README.md in this
// directory says what is measured and why.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload cluster --seed 7 --seconds 28 --trace 0
//	go run -C benchmark . -seed 1998                 # every workload, 35 s each
//	go run -C benchmark . -seed 1998 -trace 1        # the per-layer (traced) numbers
//	go run -C benchmark . -aa 2 -reps 5 -seconds 28  # same tree twice, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Uint64("seed", 1998, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", 35, "measured seconds per run")
		trace        = flag.Int("trace", 0, "1: the traced run, printing the per-layer metrics; 0: the end-to-end metrics")
		aa           = flag.Int("aa", 0, "run the whole suite this many times on the same tree and hold the medians against the bounds in BENCHMARK.json")
		reps         = flag.Int("reps", 1, "runs per workload per suite, on consecutive seeds; medians are reported")
		outPath      = flag.String("out", "", "also write the results as JSON to this file")
		root         = flag.String("root", "", "repository root (default: found from the working directory)")
		capacity     = flag.Bool("capacity", false, "measure each workload's batch-1 closed-loop capacity (what the open-loop rates are frozen from) and exit")
	)
	flag.Parse()
	code, err := realMain(options{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace != 0,
		aa: *aa, reps: *reps, out: *outPath, root: *root, capacity: *capacity,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	aa, reps int
	out      string
	root     string
	capacity bool
}

func realMain(opt options) (code int, err error) {
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if sessions > runtime.NumCPU() {
		return 2, fmt.Errorf("the generator runs %d sessions and this machine has %d CPUs: it would compete with itself", sessions, runtime.NumCPU())
	}
	if opt.seconds <= 0 || opt.reps < 1 || opt.aa < 0 || opt.aa == 1 {
		return 2, fmt.Errorf("need -seconds > 0, -reps >= 1 and -aa 0 or >= 2")
	}
	ws := workloads
	if opt.workload != "" {
		w, ok := findWorkload(opt.workload)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", opt.workload)
		}
		ws = []workload{w}
	}
	rootDir, err := findRoot(opt.root)
	if err != nil {
		return 2, err
	}

	// Every shard must be gone on every way out, including ^C.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllShards()
		os.Exit(130)
	}()
	defer killAllShards()

	e, buildS, cleanup, err := prepare(rootDir)
	if err != nil {
		return 2, err
	}
	defer cleanup()
	printHeader(rootDir, opt, buildS)

	if opt.capacity {
		return 0, printCapacity(e, ws, opt)
	}
	if opt.aa >= 2 {
		return runAA(e, rootDir, ws, opt)
	}
	suite, err := runSuite(e, ws, opt, buildS)
	if err != nil {
		return 1, err
	}
	if opt.out != "" {
		if err := writeJSONFile(opt.out, suite.export()); err != nil {
			return 1, err
		}
	}
	// The last line of standard output is the result of the last run,
	// in the form the acceptance driver reads.
	line, err := suite.runs[len(suite.runs)-1].resultLine()
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	if !suite.correct() {
		return 1, nil
	}
	return 0, nil
}

// findRoot returns the repository root: the directory whose go.mod
// declares module dynalloc, searched upward from the working directory.
func findRoot(given string) (string, error) {
	dir := given
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if line, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(line) == "module dynalloc" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module dynalloc at or above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildDir is where everything built or written by a run lives, inside
// the checkout and named in the root .gitignore.
const buildDir = ".bench_build"

// prepare builds cmd/dynallocd (a quarter of a second when the go
// tool's cache, kept inside the checkout with its temporaries, already
// holds it) and makes the run's scratch directory.
func prepare(rootDir string) (e env, buildS float64, cleanup func(), err error) {
	base := filepath.Join(rootDir, buildDir)
	for _, d := range []string{"bin", "tmp", "gocache"} {
		if err := os.MkdirAll(filepath.Join(base, d), 0o755); err != nil {
			return e, 0, nil, err
		}
	}
	e.bin = filepath.Join(base, "bin", "dynallocd")
	e.out = filepath.Join(rootDir, "benchmark", "out")
	e.scale = fullScale
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/dynallocd")
	cmd.Dir = rootDir
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(base, "gocache"),
		"GOTMPDIR="+filepath.Join(base, "tmp"),
		"XDG_CONFIG_HOME="+filepath.Join(base, "config"), // where the go tool keeps its telemetry counters
		"GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return e, 0, nil, fmt.Errorf("go build ./cmd/dynallocd: %v\n%s", err, out)
	}
	buildS = time.Since(t0).Seconds()
	e.work, err = os.MkdirTemp(filepath.Join(base, "tmp"), "run-")
	if err != nil {
		return e, 0, nil, err
	}
	return e, buildS, func() { os.RemoveAll(e.work) }, nil
}

func printHeader(rootDir string, opt options, buildS float64) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = rootDir
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# dynalloc benchmark: seed=%d seconds=%g trace=%v\n", opt.seed, opt.seconds, opt.trace)
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d (shards keep their default) %s %s/%s kernel %s commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel, commit)
	fmt.Printf("# generator: %d sessions (closed loop: %d frees + AdmitBatch(%d) per op; open loop: Poisson, batch %d, timed from the due time)\n",
		sessions, batchOp, batchOp, openBatch)
	fmt.Printf("# harness.build_s %.3f s (go build ./cmd/dynallocd, from the cache after the first run; not part of setup_s)\n", buildS)
	fmt.Println("# loopback TCP, not a link; fsync and write latencies are the sandbox's, not a disk's")
}

func describe(w workload) string {
	dur := "memory only (no WAL, no fsync)"
	if w.durable {
		dur = "fsync " + w.fsync
		if w.ckptEvery != "" {
			dur += ", checkpoint every " + w.ckptEvery
		} else {
			dur += ", checkpoints at boot only"
		}
		dur += "; recovery drive under fsync " + driveFsync
	}
	return fmt.Sprintf("%d shard(s), n=%d each, %s; open stages at %g and %g phases/s", w.shards, w.n, dur, w.openLo, w.openHi)
}

// suiteResult is one pass over the chosen workloads.
type suiteResult struct {
	runs []*runResult
}

func (s *suiteResult) correct() bool {
	for _, r := range s.runs {
		if !r.correct() {
			return false
		}
	}
	return true
}

// runSuite runs each workload reps times on consecutive seeds and
// prints every run.
func runSuite(e env, ws []workload, opt options, buildS float64) (*suiteResult, error) {
	s := &suiteResult{}
	for _, w := range ws {
		fmt.Printf("\n## workload %s: %s\n", w.name, describe(w))
		for rep := 0; rep < opt.reps; rep++ {
			seed := opt.seed + uint64(rep)
			var res *runResult
			var err error
			if opt.trace {
				res, err = runTraced(e, w, seed, opt.seconds, buildS)
			} else {
				res, err = runWorkload(e, w, seed, opt.seconds)
			}
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", w.name, seed, err)
			}
			res.print(os.Stdout)
			s.runs = append(s.runs, res)
		}
	}
	return s, nil
}

// print writes one run in the human-readable form: every metric by
// name, with its unit and the sample count behind it. An untraced run
// prints the end-to-end metrics and the counters it read from outside
// the processes; a traced run prints every per-layer metric.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "### %s seed=%d\n", r.workload, r.seed)
	line := func(name string, v metricValue) {
		extra := ""
		if v.samples > 0 {
			extra = fmt.Sprintf("  (n=%d)", v.samples)
		}
		if v.note != "" {
			extra += "  [" + v.note + "]"
		}
		fmt.Fprintf(w, "%-36s %16.4f %-6s%s\n", name, v.value, v.unit, extra)
	}
	if !r.traced {
		for _, d := range endToEnd {
			line(d.name, r.metrics[d.name])
		}
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			line(d.name, v)
		}
	}
	frac := float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(w, "%-36s %16.6f %-6s  (%d failed of %d calls and checks)\n", "failed_ops_frac", frac, "ratio", r.failed, r.attempted)
	for _, why := range r.reasons {
		fmt.Fprintln(w, "CHECK FAILED:", why)
	}
}

// resultLine is the machine-readable form of one run: with tracing off
// every end-to-end metric, with tracing on every per-layer one. A
// declared metric that was not measured, or is not a number, is an
// error: it must not pass for a result.
func (r *runResult) resultLine() (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	decls, src := endToEnd, r.metrics
	if r.traced {
		decls, src = perLayer, r.layer
	}
	for _, d := range decls {
		v, ok := src[d.name]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		out.Metrics[d.name] = mv{v.value, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// export is the -out form: every run, every metric.
func (s *suiteResult) export() any {
	type mv struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
		Note    string  `json:"note,omitempty"`
	}
	type run struct {
		Workload  string        `json:"workload"`
		Seed      uint64        `json:"seed"`
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Reasons   []string      `json:"failed_checks,omitempty"`
		EndToEnd  map[string]mv `json:"end_to_end,omitempty"`
		PerLayer  map[string]mv `json:"per_layer"`
	}
	conv := func(m map[string]metricValue) map[string]mv {
		out := make(map[string]mv, len(m))
		for k, v := range m {
			out[k] = mv{v.value, v.unit, v.samples, v.note}
		}
		return out
	}
	var runs []run
	for _, r := range s.runs {
		x := run{Workload: r.workload, Seed: r.seed, Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
			Reasons: r.reasons, PerLayer: conv(r.layer)}
		if !r.traced {
			x.EndToEnd = conv(r.metrics)
		}
		runs = append(runs, x)
	}
	return map[string]any{"schema": "dynalloc-benchmark/v1", "runs": runs}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printCapacity measures what the open-loop rates are fractions of: the
// phases per second the two sessions complete when each issues one
// Free + AdmitBatch(1) after another.
func printCapacity(e env, ws []workload, opt options) error {
	for _, w := range ws {
		c, err := boot(e, w, opt.seed, "capacity-"+w.name)
		if err != nil {
			return err
		}
		err = warmUp(c, opt.seed)
		if err == nil {
			res := closedLoop(c.clients(opt.seed), openBatch, time.Duration(opt.seconds*float64(time.Second)), 0)
			cap1 := float64(res.phases) / res.wall.Seconds()
			fmt.Printf("%-16s batch-1 capacity %8.0f phases/s  ->  open_lo %6.0f  open_hi %6.0f\n",
				w.name, cap1, roundTo(0.2*cap1, 100), roundTo(0.5*cap1, 100))
		}
		c.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func roundTo(x, step float64) float64 { return step * math.Round(x/step) }
