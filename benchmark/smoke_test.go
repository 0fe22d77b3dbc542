package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// small shrinks a workload to something a test can run in a second:
// 2^10 bins, a 20k-record fixture, open-loop rates a loaded CI machine
// keeps up with.
func small(w workload) workload {
	w.n = 1 << 10
	w.warmOps = 10
	w.openLo, w.openHi = 100, 300
	w.checkEvery = 256
	w.budgetLo, w.budgetHi = 0.02, 2 // the bands belong to the full sizes
	if w.crashK > 0 {
		w.crashK = 64
	}
	if w.fixtureRecords > 0 {
		w.fixtureRecords, w.crashK = 20_000, w.n/4
	}
	return w
}

var smallScale = scale{
	codecFrames: 2000, appendBatches: 8, checkpointBins: 1 << 12,
	fixtureBins: 1 << 10, fixtureRecords: 20_000, fixtureCrashK: 1 << 8,
	engineTime: 20 * time.Millisecond,
}

func testEnv(t *testing.T) (env, *benchSpec) {
	t.Helper()
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, _, cleanup, err := prepare(root)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever way the test ends — t.Fatal included — no shard outlives
	// it. (A SIGINT kills the shards through Pdeathsig.)
	t.Cleanup(func() {
		killAllShards()
		cleanup()
		if n := liveShards(); n != 0 {
			t.Errorf("%d shard processes left running", n)
		}
	})
	e.scale = smallScale
	e.out = t.TempDir()
	return e, spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must stay inside the acceptance driver's limits and
// say exactly what spec.go says.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", n, len(workloads))
	}
	seen := map[string]bool{}
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, spec.go has %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", n, len(endToEnd))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s], spec.go has %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s [s, lower is better] among the end-to-end metrics")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", n, len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s], spec.go has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// printedOnce checks the human-readable form: each declared metric on
// exactly one line, with its declared unit.
func printedOnce(t *testing.T, res *runResult, decls []metricDecl) {
	t.Helper()
	var buf bytes.Buffer
	res.print(&buf)
	lines := strings.Split(buf.String(), "\n")
	for _, d := range decls {
		count := 0
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) >= 3 && f[0] == d.name {
				count++
				if f[2] != d.unit {
					t.Errorf("%s: %s printed with unit %s, declared %s", res.workload, d.name, f[2], d.unit)
				}
			}
		}
		if count != 1 {
			t.Errorf("%s: %s printed %d times", res.workload, d.name, count)
		}
	}
	if _, err := res.resultLine(); err != nil {
		t.Error(err)
	}
}

// Every workload, shrunk, run end to end against real processes: all
// checks green, every end-to-end metric reported once.
func TestSmokeEndToEnd(t *testing.T) {
	e, _ := testEnv(t)
	for _, w := range workloads {
		res, err := runWorkload(e, small(w), 11, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.reasons)
		}
		printedOnce(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.metrics[d.name].value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, d.name, res.metrics[d.name].value)
			}
		}
		if w.fixtureRecords > 0 && res.layer["recover.cycles"].value < 3 {
			t.Errorf("%s: %g restart cycles, want at least 3", w.name, res.layer["recover.cycles"].value)
		}
	}
}

// The traced run, shrunk: every per-layer metric reported once, a span
// file written, and the layer split visible — a memory-only shard never
// fsyncs, a durable one does.
func TestSmokeTraced(t *testing.T) {
	e, _ := testEnv(t)
	ws := workloads
	if testing.Short() {
		ws = ws[:2] // one memory-only, one durable
	}
	for _, w := range ws {
		res, err := runTraced(e, small(w), 12, 1.0, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.failed, res.attempted, res.reasons)
		}
		printedOnce(t, res, perLayer)
		fsyncs := res.layer["vfs.fsyncs_per_s"].value
		if w.durable != (fsyncs > 0) {
			t.Errorf("%s: durable=%v but vfs.fsyncs_per_s = %g", w.name, w.durable, fsyncs)
		}
		if f := res.layer["router.frames_per_phase"].value; f <= 0 {
			t.Errorf("%s: router.frames_per_phase = %g", w.name, f)
		}
		fi, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".jsonl"))
		if err != nil || fi.Size() == 0 {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}

// killAllShards must leave no process behind: killed and reaped.
func TestKillAllShardsReaps(t *testing.T) {
	e, _ := testEnv(t)
	c, err := boot(e, small(workloads[2]), 13, "reap")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, p := range c.procs {
		pids = append(pids, p.cmd.Process.Pid)
	}
	c.disconnect()
	killAllShards()
	if n := liveShards(); n != 0 {
		t.Fatalf("%d shards still in the table", n)
	}
	for _, pid := range pids {
		// A reaped child's pid no longer names a process of ours.
		if err := syscall.Kill(pid, 0); err == nil {
			var ws syscall.WaitStatus
			if wpid, _ := syscall.Wait4(pid, &ws, syscall.WNOHANG, nil); wpid == 0 {
				t.Errorf("pid %d still running", pid)
			}
		}
	}
	c.close() // idempotent after the kill
}
