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
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
)

// newTestFleet starts two in-process shards (16 bins each, 16 balls)
// behind dgram listeners and returns dynrouter's HTTP handler over
// them, plus the shards' stores.
func newTestFleet(t *testing.T) (http.Handler, []*serve.Store) {
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
	return newServer(rt, det, 7).routes(), stores
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

func TestRoutedVerbs(t *testing.T) {
	h, stores := newTestFleet(t)

	code, body := do(t, h, http.MethodPost, "/alloc")
	if code != http.StatusOK || body["probes"].(float64) != 2 {
		t.Fatalf("POST /alloc = %d, body %v", code, body)
	}
	shard, bin := int(body["shard"].(float64)), int(body["bin"].(float64))
	if totals(stores) != 33 || stores[shard].Load(bin) != int(body["load"].(float64)) {
		t.Fatalf("alloc reply %v does not match the fleet (total %d)", body, totals(stores))
	}
	if code, body = do(t, h, http.MethodPost, "/free"); code != http.StatusOK {
		t.Fatalf("POST /free = %d, body %v", code, body)
	}
	if code, body = do(t, h, http.MethodPost, "/free?shard=1&bin=3"); code != http.StatusOK || body["shard"].(float64) != 1 || body["bin"].(float64) != 3 {
		t.Fatalf("targeted free = %d, body %v", code, body)
	}
	if totals(stores) != 31 {
		t.Fatalf("fleet holds %d balls after 1 alloc and 2 frees, want 31", totals(stores))
	}
	if code, body = do(t, h, http.MethodPost, "/crash?shard=0&bin=5&k=40"); code != http.StatusOK || body["added"].(float64) != 40 || stores[0].Load(5) != int(body["load"].(float64)) {
		t.Fatalf("POST /crash = %d, body %v (bin at %d)", code, body, stores[0].Load(5))
	}
	if code, body = do(t, h, http.MethodGet, "/healthz"); code != http.StatusOK || body["recovered"] != false || body["live_shards"].(float64) != 2 {
		t.Fatalf("GET /healthz after the crash = %d, body %v", code, body)
	}
}

func TestMethodsAndBadParams(t *testing.T) {
	h, stores := newTestFleet(t)
	for _, url := range []string{"/alloc", "/free", "/crash?shard=0&bin=0&k=1"} {
		if code, _ := do(t, h, http.MethodGet, url); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", url, code)
		}
	}
	if code, _ := do(t, h, http.MethodPost, "/state"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /state = %d, want 405", code)
	}
	before := totals(stores)
	for _, url := range []string{
		"/crash", "/crash?bin=0&k=1", "/crash?shard=0&k=1", "/crash?shard=0&bin=0", // missing
		"/crash?shard=2&bin=0&k=1", "/crash?shard=-1&bin=0&k=1", "/crash?shard=x&bin=0&k=1", // bad shard
		"/crash?shard=0&bin=-1&k=1", "/crash?shard=0&bin=zz&k=1", "/crash?shard=0&bin=16&k=1", // bad bin (16: the shard's own refusal)
		"/crash?shard=0&bin=0&k=-1", "/crash?shard=0&bin=0&k=1.5", // bad k
		"/crash?shard=0&bin=0&k=2147483648", // fits the wire, overflows the bin: the shard's refusal
		"/free?shard=0", "/free?bin=1", "/free?shard=2&bin=1", "/free?shard=0&bin=-1", "/free?shard=0&bin=4294967296",
	} {
		if code, body := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, body %v; want 400", url, code, body)
		}
	}
	if got := totals(stores); got != before {
		t.Fatalf("refused requests changed the fleet: %d -> %d balls", before, got)
	}
}

// TestCrashParamsAreNeverTruncated: k=4294967297 used to be sent as K=1
// and reported as added: 4294967297; bin=4294967296 as bin 0.
func TestCrashParamsAreNeverTruncated(t *testing.T) {
	h, stores := newTestFleet(t)
	for _, url := range []string{
		"/crash?shard=0&bin=0&k=4294967297",
		"/crash?shard=0&bin=4294967296&k=1",
		"/crash?shard=4294967296&bin=0&k=1",
	} {
		if code, body := do(t, h, http.MethodPost, url); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, body %v; want 400", url, code, body)
		}
	}
	if totals(stores) != 32 || stores[0].Load(0) != 1 {
		t.Fatalf("a truncated crash landed: total %d, shard 0 bin 0 at %d", totals(stores), stores[0].Load(0))
	}
}

func TestStateSummary(t *testing.T) {
	h, _ := newTestFleet(t)
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
