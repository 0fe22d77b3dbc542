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

// TestHealthzAfterCrash: a crash through the Service's verb table (the
// one a dgram CRASH frame makes) flips /healthz to not recovered.
func TestHealthzAfterCrash(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()

	// Healthy at startup: balanced 64/64 is within any sane target.
	code, body := do(t, h, http.MethodGet, "/healthz")
	if code != http.StatusOK || body["recovered"] != true {
		t.Fatalf("GET /healthz = %d, body %v", code, body)
	}
	if load, err := s.svc.NewLane(serve.DgramStream).Crash(9, 50); err != nil || load != 51 {
		t.Fatalf("crash: load %d, %v", load, err)
	}
	_, body = do(t, h, http.MethodGet, "/healthz")
	if body["recovered"] != false {
		t.Fatalf("healthz after crash: %v", body)
	}
}

// TestAdminPlaneOnly pins HTTP as the admin plane: the data verbs are
// dgram's, so /alloc, /free and /crash are not routes, while /state,
// /healthz, /checkpoint and /promote answer.
func TestAdminPlaneOnly(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	for _, url := range []string{"/alloc", "/alloc?count=3", "/free", "/free?bin=1", "/crash?bin=1&k=1"} {
		for _, method := range []string{http.MethodPost, http.MethodGet} {
			if code, _ := do(t, h, method, url); code != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404", method, url, code)
			}
		}
	}
	if st.Allocs() != 0 || st.Frees() != 0 || st.Total() != 64 {
		t.Fatalf("a non-route mutated the store: %+v", st.Stats())
	}
	for _, tc := range []struct {
		method, url string
		want        int
	}{
		{http.MethodGet, "/state", http.StatusOK},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodPost, "/checkpoint", http.StatusConflict}, // no -wal-dir
		{http.MethodPost, "/promote", http.StatusConflict},    // not a replica
	} {
		if code, _ := do(t, h, tc.method, tc.url); code != tc.want {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.url, code, tc.want)
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
	for _, tc := range []struct {
		rule string
		d    int
		want string
	}{
		{"", 2, "abku:2"},
		{"", 3, "abku:3"},
		{"adap:1,2,2", 2, "adap:1,2,2"},
		{"mixed:0.5", 3, "mixed:0.5"}, // -rule wins over -d
		{"uniform", 2, "uniform"},
	} {
		if got := resolveRuleSpec(tc.rule, tc.d); got != tc.want {
			t.Fatalf("resolveRuleSpec(%q, %d) = %q, want %q", tc.rule, tc.d, got, tc.want)
		}
	}
}

// TestRunDriveRecovers is the end-to-end form of the acceptance command
// at test scale: crash a bin, drive Scenario A, expect a recovery
// report and exit code 0.
func TestRunDriveRecovers(t *testing.T) {
	code := run(options{
		addr: "", n: 256, m: 256,
		d: 2, scenario: "A",
		seed: 2024, workers: 1, slack: 1,
		drive: true, crashK: 128, crashBin: 0,
	})
	if code != 0 {
		t.Fatalf("drive run exited %d, want 0", code)
	}
}

// TestDrainRefusesMutations is the graceful-drain regression: once
// shutdown starts, POST /promote answers 503 while reads keep working.
// The verbs' draining refusal is TestServiceVerbTable's.
func TestDrainRefusesMutations(t *testing.T) {
	s, st := newTestServer(t)
	h := s.routes()
	s.svc.SetDraining()

	if code, body := do(t, h, http.MethodPost, "/promote"); code != http.StatusServiceUnavailable {
		t.Fatalf("POST /promote while draining = %d, body %v; want 503", code, body)
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
		d: 2, scenario: "A",
		seed: 11, workers: 1, slack: 1,
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
		addr: "", n: 8, m: 8, d: 2, scenario: "A",
		seed: 1, workers: 1, slack: 1,
		walDir: t.TempDir(), fsync: "sometimes",
	})
	if code != 2 {
		t.Fatalf("bad -fsync exited %d, want 2", code)
	}
}

// TestRunRejectsMPastTheBallBound: an -m the store cannot hold is a
// flag error, found before seeding: at n = 2 its fair share m/n does not
// even fit a bin's int32 load.
func TestRunRejectsMPastTheBallBound(t *testing.T) {
	code := run(options{
		addr: "", n: 2, m: 1<<32 + 4, d: 2, scenario: "A",
		seed: 1, workers: 1, slack: 1,
	})
	if code != 2 {
		t.Fatalf("-m 4294967300 exited %d, want 2", code)
	}
}

// TestVerbErrStatusTable pins the admin plane's mapping of the two gate
// refusals it can still meet (docs/SERVING.md, "Verbs, refusals and
// errors").
func TestVerbErrStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{serve.ErrDraining, http.StatusServiceUnavailable},
		{fmt.Errorf("promote: %w", serve.ErrDraining), http.StatusServiceUnavailable},
		{serve.ErrStandby, http.StatusConflict},
		{errors.New("anything else"), http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		writeVerbErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeVerbErr(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}

// TestStandbyRefusesMutations: an un-promoted replica refuses POST
// /checkpoint with 409 (the follower owns the log), and Arm — what
// promotion ends with — lifts the refusal. The verbs' standby refusal
// is TestServiceVerbTable's.
func TestStandbyRefusesMutations(t *testing.T) {
	st := serve.NewStoreShards(64, 8)
	st.FillBalanced(64)
	svc := serve.NewService(st, serve.NewABKUPolicy(2), process.ScenarioA, 7)
	svc.SetStandby()
	h := newServer(svc).routes()
	code, body := do(t, h, http.MethodPost, "/checkpoint")
	if msg, _ := body["error"].(string); code != http.StatusConflict || !strings.Contains(msg, "not promoted") {
		t.Fatalf("POST /checkpoint on a standby = %d, body %v; want 409 not promoted", code, body)
	}
	svc.Arm(nil, serve.NewDetector(st, serve.Target{PredictedMax: 4}))
	code, body = do(t, h, http.MethodPost, "/checkpoint")
	if msg, _ := body["error"].(string); code != http.StatusConflict || !strings.Contains(msg, "durability disabled") {
		t.Fatalf("POST /checkpoint after Arm = %d, body %v; want the armed 409", code, body)
	}
}

// lookup walks a jq-style path (".a.b.c") through a decoded JSON body,
// nil where it leads nowhere.
func lookup(body map[string]any, path string) any {
	var v any = body
	for _, k := range strings.Split(strings.TrimPrefix(path, "."), ".") {
		m, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		v = m[k]
	}
	return v
}

// TestStatePathsTheDrillsRead pins the /state paths the recovery,
// fail-over and chaos drills read with jq.
func TestStatePathsTheDrillsRead(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.routes()
	_, sum := do(t, h, http.MethodGet, "/state?summary=1")
	if v := lookup(sum, ".recovered"); v != true {
		t.Errorf("summary .recovered = %v, want true", v)
	}
	if v, ok := lookup(sum, ".episodes.last.steps").(float64); !ok || v < 0 {
		t.Errorf("summary .episodes.last.steps = %v", lookup(sum, ".episodes.last.steps"))
	}
	if v, ok := lookup(sum, ".episodes.budget_steps").(float64); !ok || v <= 0 {
		t.Errorf("summary .episodes.budget_steps = %v", lookup(sum, ".episodes.budget_steps"))
	}
	_, full := do(t, h, http.MethodGet, "/state")
	if v := lookup(full, ".episodes"); v != float64(1) {
		t.Errorf(".episodes = %v, want the 1 boot episode", v)
	}
	if v, ok := lookup(full, ".last_episode.steps").(float64); !ok || v < 0 {
		t.Errorf(".last_episode = %v", lookup(full, ".last_episode"))
	}
	if v := lookup(full, ".episode_summary.completed"); v != float64(1) {
		t.Errorf(".episode_summary = %v", lookup(full, ".episode_summary"))
	}
}
