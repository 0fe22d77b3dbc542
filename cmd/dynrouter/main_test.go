package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
)

// newTestFleet starts two in-process shards (16 bins each, 16 balls)
// behind dgram listeners and returns dynrouter's HTTP handler over
// them, plus the router and the shards' stores.
func newTestFleet(t *testing.T) (http.Handler, *router.Router, []*serve.Store) {
	t.Helper()
	pol := serve.NewABKUPolicy(2)
	var addrs []string
	var stores []*serve.Store
	for i := 0; i < 2; i++ {
		st := serve.NewStoreShards(16, 4)
		st.FillBalanced(16)
		srv := router.NewServer(router.ServerConfig{Store: st, Policy: pol, Scenario: process.ScenarioA, Seed: uint64(i)})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() { srv.Close(); <-done })
		addrs, stores = append(addrs, ln.Addr().String()), append(stores, st)
	}
	rt, err := router.New(router.Options{Shards: addrs, D: 2, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := rt.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	target, err := serve.NewTarget(pol, process.ScenarioA, 32, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	det := router.NewDetector(rt, target)
	t.Cleanup(det.Close)
	return newServer(rt, det).routes(), rt, stores
}

func do(t *testing.T, h http.Handler, method, url string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	var body map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, rec.Body.String(), err)
		}
	}
	return rec.Code, body
}

func totals(stores []*serve.Store) (sum int64) {
	for _, st := range stores {
		sum += st.Total()
	}
	return sum
}

// TestRoutedVerbs: the verbs are routed by a client's own Session over
// dgram, and the admin plane sees what they did to the fleet.
func TestRoutedVerbs(t *testing.T) {
	h, rt, stores := newTestFleet(t)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(7, 0)

	res, err := ses.Admit(r)
	if err != nil || res.Probes != 2 || totals(stores) != 33 || stores[res.Shard].Load(int(res.Bin)) != int(res.Load) {
		t.Fatalf("admit %+v, %v does not match the fleet (total %d)", res, err, totals(stores))
	}
	if _, err := ses.Free(r); err != nil || totals(stores) != 32 {
		t.Fatalf("free: %v, fleet total %d", err, totals(stores))
	}
	if load, err := ses.Crash(0, 5, 40); err != nil || stores[0].Load(5) != int(load) {
		t.Fatalf("crash: load %d, %v (bin at %d)", load, err, stores[0].Load(5))
	}
	if code, body := do(t, h, http.MethodGet, "/healthz"); code != http.StatusOK || body["recovered"] != false || body["live_shards"].(float64) != 2 {
		t.Fatalf("GET /healthz after the crash = %d, body %v", code, body)
	}
}

// TestAdminPlaneOnly pins HTTP as the admin plane: /alloc, /free and
// /crash are not routes, /state and /healthz answer, and /state is
// GET only.
func TestAdminPlaneOnly(t *testing.T) {
	h, _, stores := newTestFleet(t)
	for _, url := range []string{"/alloc", "/free", "/free?shard=1&bin=3", "/crash?shard=0&bin=0&k=1"} {
		for _, method := range []string{http.MethodPost, http.MethodGet} {
			if code, _ := do(t, h, method, url); code != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", method, url, code)
			}
		}
	}
	if got := totals(stores); got != 32 {
		t.Fatalf("a non-route changed the fleet: %d balls", got)
	}
	for _, url := range []string{"/state", "/state?summary=1", "/healthz"} {
		if code, _ := do(t, h, http.MethodGet, url); code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", url, code)
		}
	}
	if code, _ := do(t, h, http.MethodPost, "/state"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /state = %d, want 405", code)
	}
}

func TestStateSummary(t *testing.T) {
	h, _, _ := newTestFleet(t)
	code, body := do(t, h, http.MethodGet, "/state?summary=1")
	if code != http.StatusOK {
		t.Fatalf("GET /state?summary=1 = %d", code)
	}
	if body["max_load"].(float64) != 1 || body["recovered"] != true || body["degraded"] != false || body["live_shards"].(float64) != 2 {
		t.Fatalf("summary: %v", body)
	}
	if tr := body["traffic"].(map[string]any); tr["ops"].(float64) != 0 || tr["errors"].(float64) != 0 {
		t.Fatalf("summary traffic: %v", tr)
	}
	if _, ok := body["shards"]; ok {
		t.Fatal("summary must not carry the per-shard table")
	}
	if code, body = do(t, h, http.MethodGet, "/state"); code != http.StatusOK || len(body["shards"].([]any)) != 2 || body["d"].(float64) != 2 {
		t.Fatalf("GET /state = %d, body %v", code, body)
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

// TestStatePathsTheDrillsRead pins the /state paths the cluster drill
// reads with jq.
func TestStatePathsTheDrillsRead(t *testing.T) {
	h, _, _ := newTestFleet(t)
	_, body := do(t, h, http.MethodGet, "/state")
	for path, want := range map[string]any{
		".status.live_shards": float64(2),
		".status.recovered":   true,
		".status.degraded":    false,
		".episodes":           float64(1),
		".traffic.errors":     float64(0),
	} {
		if v := lookup(body, path); v != want {
			t.Errorf("%s = %v, want %v", path, v, want)
		}
	}
	if v, ok := lookup(body, ".last_episode.steps").(float64); !ok || v < 0 {
		t.Errorf(".last_episode.steps = %v", lookup(body, ".last_episode.steps"))
	}
	if v, ok := lookup(body, ".target.budget_steps").(float64); !ok || v <= 0 {
		t.Errorf(".target.budget_steps = %v", lookup(body, ".target.budget_steps"))
	}
}
