package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
	return newServer(st, serve.NewDetector(st, target), pol, process.ScenarioA, 7), st
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
		got, err := parseScenario(in)
		if err != nil || got != want {
			t.Fatalf("parseScenario(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseScenario("C"); err == nil {
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
	s.draining.Store(true)

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
