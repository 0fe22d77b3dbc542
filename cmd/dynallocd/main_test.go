package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynalloc/internal/daemon"
	"dynalloc/internal/process"
	"dynalloc/internal/serve"
	"dynalloc/internal/vfs"
)

func newTestServer(t *testing.T) (*server, *serve.Store) {
	t.Helper()
	st := serve.NewStoreShards(64, 8)
	st.FillBalanced(64)
	pol, err := serve.ParsePolicy("abku:2")
	if err != nil {
		t.Fatal(err)
	}
	target, err := serve.NewTarget(pol, process.ScenarioA, 64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(st, pol, process.ScenarioA, 7)
	svc.Arm(nil, serve.NewDetector(st, target))
	return newServer(svc), st
}

func do(t *testing.T, h http.Handler, method, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec.Code, body
}

func TestHandleAllocFree(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()

	code, body := do(t, h, http.MethodPost, "/alloc")
	if code != http.StatusOK {
		t.Fatalf("POST /alloc = %d, body %v", code, body)
	}
	bin := int(body["bin"].(float64))
	if bin < 0 || bin >= 64 || body["probes"].(float64) != 2 {
		t.Fatalf("alloc response %v", body)
	}
	if st.Total() != 65 || st.Allocs() != 1 {
		t.Fatalf("store after alloc: %+v", st.Stats())
	}

	// Free from the exact bin the alloc landed in.
	code, body = do(t, h, http.MethodPost, "/free?bin="+itoa(bin))
	if code != http.StatusOK || int(body["bin"].(float64)) != bin {
		t.Fatalf("POST /free?bin= = %d, body %v", code, body)
	}
	// Scenario departure (no bin parameter).
	code, body = do(t, h, http.MethodPost, "/free")
	if code != http.StatusOK {
		t.Fatalf("POST /free = %d, body %v", code, body)
	}
	if st.Total() != 63 || st.Frees() != 2 {
		t.Fatalf("store after frees: %+v", st.Stats())
	}

	for _, url := range []string{"/free?bin=-1", "/free?bin=64", "/free?bin=zz"} {
		if code, _ := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", url, code)
		}
	}
	if code, _ := do(t, h, http.MethodGet, "/alloc"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /alloc = %d, want 405", code)
	}
}

func TestHandleFreeEmptyBinConflicts(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	if _, err := st.FreeBin(3); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, h, http.MethodPost, "/free?bin=3"); code != http.StatusConflict {
		t.Fatalf("free of empty bin: want 409")
	}
}

func TestHandleCrashAndHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()

	// Healthy at startup: balanced 64/64 is within any sane target.
	code, body := do(t, h, http.MethodGet, "/healthz")
	if code != http.StatusOK || body["recovered"] != true {
		t.Fatalf("GET /healthz = %d, body %v", code, body)
	}

	code, body = do(t, h, http.MethodPost, "/crash?bin=9&k=50")
	if code != http.StatusOK || body["load"].(float64) != 51 {
		t.Fatalf("POST /crash = %d, body %v", code, body)
	}
	_, body = do(t, h, http.MethodGet, "/healthz")
	if body["recovered"] != false {
		t.Fatalf("healthz after crash: %v", body)
	}

	for _, url := range []string{"/crash?bin=9", "/crash?bin=9&k=-1", "/crash?bin=64&k=1", "/crash"} {
		if code, _ := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", url, code)
		}
	}
}

func TestHandleState(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()
	code, body := do(t, h, http.MethodGet, "/state")
	if code != http.StatusOK {
		t.Fatalf("GET /state = %d", code)
	}
	if body["rule"] != "ABKU[2]" || body["scenario"] != "A" || body["n"].(float64) != 64 {
		t.Fatalf("state identity fields: %v", body)
	}
	status := body["status"].(map[string]any)
	if status["recovered"] != true || status["max_load"].(float64) != 1 {
		t.Fatalf("state status: %v", status)
	}
	if body["episodes"].(float64) != 1 {
		t.Fatalf("startup episode missing: %v", body["episodes"])
	}
	if code, _ := do(t, h, http.MethodPost, "/state"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /state = %d, want 405", code)
	}
}

func TestParseScenario(t *testing.T) {
	for in, want := range map[string]process.Scenario{
		"A": process.ScenarioA, "a": process.ScenarioA,
		"B": process.ScenarioB, " b ": process.ScenarioB,
	} {
		got, err := daemon.ParseScenario(in)
		if err != nil || got != want {
			t.Fatalf("daemon.ParseScenario(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := daemon.ParseScenario("C"); err == nil {
		t.Fatal("parseScenario accepted C")
	}
}

func TestResolveRuleSpec(t *testing.T) {
	cases := []struct {
		rule string
		d    int
		x    string
		beta float64
		want string
		ok   bool
	}{
		{"", 2, "", -1, "abku:2", true},
		{"", 3, "", -1, "abku:3", true},
		{"", 2, "1,2,2", -1, "adap:1,2,2", true},
		{"", 2, "", 0.5, "mixed:0.5", true},
		{"", 2, "", 0, "mixed:0", true},
		{"uniform", 2, "", -1, "uniform", true},
		{"abku:4", 2, "1,2", -1, "", false}, // -rule vs -x
		{"", 2, "1,2", 0.5, "", false},      // -x vs -beta
	}
	for _, tc := range cases {
		got, err := resolveRuleSpec(tc.rule, tc.d, tc.x, tc.beta)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("resolveRuleSpec(%q,%d,%q,%g) = %q, %v", tc.rule, tc.d, tc.x, tc.beta, got, err)
		}
	}
}

// TestRunDriveRecovers is the end-to-end form of the acceptance command
// at test scale: crash a bin, drive Scenario A, expect a recovery
// report and exit code 0.
func TestRunDriveRecovers(t *testing.T) {
	code := run(options{
		addr: "", n: 256, m: 256,
		d: 2, beta: -1, scenario: "A",
		seed: 2024, workers: 1, shards: 8, slack: 1,
		drive: true, crashK: 128, crashBin: 0,
	})
	if code != 0 {
		t.Fatalf("drive run exited %d, want 0", code)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestDrainRefusesMutations is the graceful-drain regression: once
// shutdown starts, /alloc, /free and /crash answer 503 while reads
// keep working, so the final checkpoint sees a quiesced store.
func TestDrainRefusesMutations(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	s.svc.SetDraining()

	for _, url := range []string{"/alloc", "/free", "/free?bin=1", "/crash?bin=1&k=1"} {
		code, body := do(t, h, http.MethodPost, url)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s while draining = %d, body %v; want 503", url, code, body)
		}
	}
	if st.Allocs() != 0 || st.Frees() != 0 || st.Total() != 64 {
		t.Fatalf("draining mutated the store: %+v", st.Stats())
	}
	if code, _ := do(t, h, http.MethodGet, "/state"); code != http.StatusOK {
		t.Fatal("GET /state must keep working while draining")
	}
	if code, _ := do(t, h, http.MethodGet, "/healthz"); code != http.StatusOK {
		t.Fatal("GET /healthz must keep working while draining")
	}
}

func TestHandleStateSummary(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()
	code, body := do(t, h, http.MethodGet, "/state?summary=1")
	if code != http.StatusOK {
		t.Fatalf("GET /state?summary=1 = %d", code)
	}
	for _, k := range []string{"n", "m", "max_load", "gap", "recovered"} {
		if _, ok := body[k]; !ok {
			t.Fatalf("summary missing %q: %v", k, body)
		}
	}
	if body["n"].(float64) != 64 || body["m"].(float64) != 64 || body["recovered"] != true {
		t.Fatalf("summary values: %v", body)
	}
	if _, ok := body["loads"]; ok {
		t.Fatal("summary must not carry the load vector")
	}
	if _, ok := body["stats"]; ok {
		t.Fatal("summary must not carry full stats")
	}
}

func TestHandleStateCarriesLoads(t *testing.T) {
	s, _ := newTestServer(t)
	code, body := do(t, s.routes(), http.MethodGet, "/state")
	if code != http.StatusOK {
		t.Fatalf("GET /state = %d", code)
	}
	loads, ok := body["loads"].([]any)
	if !ok || len(loads) != 64 {
		t.Fatalf("state loads: %T %v", body["loads"], body["loads"])
	}
}

func TestHandleCheckpointWithoutDurability(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()
	if code, _ := do(t, h, http.MethodPost, "/checkpoint"); code != http.StatusConflict {
		t.Fatalf("POST /checkpoint without -wal-dir: want 409, got %d", code)
	}
	if code, _ := do(t, h, http.MethodGet, "/checkpoint"); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /checkpoint must be 405")
	}
}

// TestRunDurableBootRestoreDrill runs the full durability cycle at test
// scale: a first run seeds and checkpoints, a second run restores that
// state, survives a crash drill on top of it, and persists the result.
func TestRunDurableBootRestoreDrill(t *testing.T) {
	dir := t.TempDir()
	base := options{
		addr: "", n: 128, m: 128,
		d: 2, beta: -1, scenario: "A",
		seed: 11, workers: 1, shards: 4, slack: 1,
		walDir: dir, fsync: "never",
	}
	if code := run(base); code != 0 {
		t.Fatalf("seeding run exited %d", code)
	}
	st := serve.NewStoreShards(128, 4)
	res, err := serve.RestoreFSOpts(st, vfs.OS, dir, serve.RestoreOptions{})
	if err != nil || !res.Restored || st.Total() != 128 {
		t.Fatalf("after seeding run: res=%+v err=%v total=%d", res, err, st.Total())
	}

	drill := base
	drill.drive, drill.crashK, drill.crashBin = true, 64, 3
	if code := run(drill); code != 0 {
		t.Fatalf("drill run exited %d", code)
	}
	st2 := serve.NewStoreShards(128, 4)
	res2, err := serve.RestoreFSOpts(st2, vfs.OS, dir, serve.RestoreOptions{})
	if err != nil || !res2.Restored {
		t.Fatalf("after drill run: res=%+v err=%v", res2, err)
	}
	if st2.Total() != 128+64 {
		t.Fatalf("restored total %d, want %d", st2.Total(), 128+64)
	}
	if res2.LastSeq <= res.LastSeq {
		t.Fatalf("drill advanced no seqs: %d -> %d", res.LastSeq, res2.LastSeq)
	}
}

func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	code := run(options{
		addr: "", n: 8, m: 8, d: 2, beta: -1, scenario: "A",
		seed: 1, workers: 1, slack: 1,
		walDir: t.TempDir(), fsync: "sometimes",
	})
	if code != 2 {
		t.Fatalf("bad -fsync exited %d, want 2", code)
	}
}

// TestVerbErrStatusTable pins the HTTP codec's mapping of every Service
// refusal (docs/SERVING.md, "Verbs, refusals and errors").
func TestVerbErrStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{serve.ErrDraining, http.StatusServiceUnavailable},
		{serve.ErrStandby, http.StatusConflict},
		{serve.ErrEmpty, http.StatusConflict},
		{serve.ErrEmptyBin, http.StatusConflict},
		{fmt.Errorf("%w: count 0", serve.ErrBadRequest), http.StatusBadRequest},
		{fmt.Errorf("%w: %v", serve.ErrBadRequest, serve.ErrOverflow), http.StatusBadRequest},
		{errors.New("anything else"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeVerbErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeVerbErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}

// TestHandleAllocCount covers /alloc?count=N: the batch reply shape,
// count=1 keeping the single-ball shape, and the bound — the Service's,
// so HTTP and dgram refuse the same counts.
func TestHandleAllocCount(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	code, body := do(t, h, http.MethodPost, "/alloc?count=300")
	if code != http.StatusOK || body["count"].(float64) != 300 || body["probes"].(float64) != 600 {
		t.Fatalf("POST /alloc?count=300 = %d, body %v", code, body)
	}
	if bins, loads := body["bins"].([]any), body["loads"].([]any); len(bins) != 300 || len(loads) != 300 {
		t.Fatalf("batch reply carries %d bins, %d loads", len(bins), len(loads))
	}
	if code, body = do(t, h, http.MethodPost, "/alloc?count=1"); code != http.StatusOK || body["bin"] == nil || body["bins"] != nil {
		t.Fatalf("POST /alloc?count=1 = %d, body %v", code, body)
	}
	before := st.Stats()
	for _, url := range []string{"/alloc?count=0", "/alloc?count=-3", "/alloc?count=1048577", "/alloc?count=3145728", "/alloc?count=many"} {
		if code, _ := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", url, code)
		}
	}
	if st.Stats() != before {
		t.Fatalf("refused counts changed the store: %+v -> %+v", before, st.Stats())
	}
}

// TestHandleCrashOverflow is the HTTP face of the crash-overflow
// regression: a k the bin's int32 load cannot hold is a 400, not a
// panic with the stripe lock held.
func TestHandleCrashOverflow(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	before := st.Stats()
	for _, url := range []string{"/crash?bin=0&k=2147483648", "/crash?bin=0&k=2147483647", "/crash?bin=0&k=9223372036854775807"} {
		if code, body := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, body %v; want 400", url, code, body)
		}
	}
	if st.Stats() != before {
		t.Fatalf("refused crashes changed the store: %+v -> %+v", before, st.Stats())
	}
	if code, body := do(t, h, http.MethodPost, "/crash?bin=0&k=2147483646"); code != http.StatusOK || body["load"].(float64) != 2147483647 {
		t.Fatalf("crash to the brim = %d, body %v", code, body)
	}
}

// TestStandbyRefusesMutations: an un-promoted replica's Service answers
// the mutating endpoints 409, and Arm — what promotion ends with —
// lifts the refusal on the same server.
func TestStandbyRefusesMutations(t *testing.T) {
	st := serve.NewStoreShards(64, 8)
	st.FillBalanced(64)
	svc := serve.NewService(st, serve.NewABKUPolicy(2), process.ScenarioA, 7)
	svc.SetStandby()
	h := newServer(svc).routes()
	for _, url := range []string{"/alloc", "/alloc?count=9", "/free", "/free?bin=1", "/crash?bin=1&k=1"} {
		if code, body := do(t, h, http.MethodPost, url); code != http.StatusConflict {
			t.Fatalf("POST %s on a standby = %d, body %v; want 409", url, code, body)
		}
	}
	if st.Allocs() != 0 || st.Frees() != 0 || st.Total() != 64 {
		t.Fatalf("standby mutated the store: %+v", st.Stats())
	}
	svc.Arm(nil, serve.NewDetector(st, serve.Target{PredictedMax: 4}))
	if code, _ := do(t, h, http.MethodPost, "/alloc"); code != http.StatusOK {
		t.Fatalf("POST /alloc after Arm = %d", code)
	}
}
