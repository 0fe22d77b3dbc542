package router

import (
	"errors"
	"net"
	"testing"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
)

// testShard is one in-process shard: a store behind a dgram Server on
// a loopback listener.
type testShard struct {
	st   *serve.Store
	svc  *serve.Service // the shard's verb table: the tests flip its gate
	srv  *Server
	ln   net.Listener
	addr string
	done chan struct{}
}

func startShard(t *testing.T, n int, seed uint64, det *serve.Detector) *testShard {
	t.Helper()
	st := serve.NewStore(n)
	return startShardStore(t, st, seed, det)
}

func startShardStore(t *testing.T, st *serve.Store, seed uint64, det *serve.Detector) *testShard {
	t.Helper()
	pol, err := serve.ParsePolicy("abku:2")
	if err != nil {
		t.Fatal(err)
	}
	svc := serve.NewService(st, pol, process.ScenarioA, seed)
	svc.Arm(nil, det)
	srv := NewServiceServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sh := &testShard{st: st, svc: svc, srv: srv, ln: ln, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(sh.done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() { sh.stop() })
	return sh
}

func (sh *testShard) stop() {
	sh.srv.Close()
	<-sh.done
}

// restart rebinds a new server for the same store on the SAME address
// — the test double of a shard process coming back after a kill.
func (sh *testShard) restart(t *testing.T, seed uint64) {
	t.Helper()
	pol, err := serve.ParsePolicy("abku:2")
	if err != nil {
		t.Fatal(err)
	}
	sh.srv = NewServer(ServerConfig{Store: sh.st, Policy: pol, Scenario: process.ScenarioA, Seed: seed})
	ln, err := net.Listen("tcp", sh.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", sh.addr, err)
	}
	sh.ln = ln
	sh.done = make(chan struct{})
	go func() {
		defer close(sh.done)
		sh.srv.Serve(ln)
	}()
}

func newTestRouter(t *testing.T, d int, shards ...*testShard) *Router {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.addr
	}
	rt, err := New(Options{
		Shards:         addrs,
		D:              d,
		DialTimeout:    2 * time.Second,
		CallTimeout:    2 * time.Second,
		HealthInterval: 20 * time.Millisecond,
		RetryBackoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestAdmitPrefersLeastLoadedShard: with full fan-out, every admission
// must land on a lightest shard at probe time — the cluster-level
// least-loaded rule.
func TestAdmitPrefersLeastLoadedShard(t *testing.T) {
	a := startShard(t, 64, 1, nil)
	b := startShard(t, 64, 2, nil)
	c := startShard(t, 64, 3, nil)
	// Preload shard a well above the others.
	for i := 0; i < 300; i++ {
		a.st.AdmitBatch([]int{i % 64}, nil)
	}
	rt := newTestRouter(t, 3, a, b, c)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(7, 0)

	for i := 0; i < 200; i++ {
		res, err := ses.Admit(r)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if res.Shard == 0 {
			t.Fatalf("admit %d landed on the heaviest shard (totals %d/%d/%d)",
				i, a.st.Total(), b.st.Total(), c.st.Total())
		}
		if res.Probes != 3 {
			t.Fatalf("admit %d probed %d shards, want 3", i, res.Probes)
		}
	}
	if got := b.st.Total() + c.st.Total(); got != 200 {
		t.Fatalf("light shards hold %d balls, want 200", got)
	}
	// The two light shards split the work roughly evenly (tie-break is
	// uniform; a 200-trial split worse than 40/160 is ~impossible).
	if b.st.Total() < 40 || c.st.Total() < 40 {
		t.Fatalf("lopsided split: %d/%d", b.st.Total(), c.st.Total())
	}
}

// TestAdmitDegradedZeroErrors: killing one shard mid-traffic must not
// surface a single client error — the fan-out degrades to d-1.
func TestAdmitDegradedZeroErrors(t *testing.T) {
	a := startShard(t, 64, 1, nil)
	b := startShard(t, 64, 2, nil)
	c := startShard(t, 64, 3, nil)
	rt := newTestRouter(t, 2, a, b, c)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(11, 0)

	for i := 0; i < 50; i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatalf("warmup admit %d: %v", i, err)
		}
	}
	a.stop() // kill -9 equivalent: connections reset, listener gone

	sawDegraded := false
	for i := 0; i < 200; i++ {
		res, err := ses.Admit(r)
		if err != nil {
			t.Fatalf("admit %d during outage: %v", i, err)
		}
		if res.Shard == 0 {
			t.Fatalf("admit %d landed on the dead shard", i)
		}
		if res.Probes < rt.D() {
			sawDegraded = true
		}
	}
	if !rt.Down(0) {
		t.Fatal("dead shard not marked down")
	}
	if !rt.Degraded() {
		t.Fatal("router not degraded with a dead shard")
	}
	_ = sawDegraded // degraded probing may or may not be observed before markDown kicks in
	if got := a.st.Total() + b.st.Total() + c.st.Total(); got != 250 {
		t.Fatalf("cluster holds %d balls, want 250", got)
	}
}

// TestShardRevival: a restarted shard (same address, same store) is
// revived by the health loop and takes traffic again.
func TestShardRevival(t *testing.T) {
	a := startShard(t, 64, 1, nil)
	b := startShard(t, 64, 2, nil)
	rt := newTestRouter(t, 2, a, b)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(13, 0)

	a.stop()
	for i := 0; i < 20; i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatalf("admit %d during outage: %v", i, err)
		}
	}
	if !rt.Down(0) {
		t.Fatal("shard 0 should be down")
	}

	a.restart(t, 21)
	deadline := time.Now().Add(5 * time.Second)
	for rt.Down(0) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never revived the restarted shard")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Shard 0 is empty, shard 1 holds everything: traffic must flow
	// back to shard 0.
	before := a.st.Total()
	for i := 0; i < 50; i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatalf("admit %d after revival: %v", i, err)
		}
	}
	if a.st.Total() == before {
		t.Fatal("revived shard took no traffic")
	}
}

// TestFreeConservesBalls: cluster-wide departures drain exactly what
// admissions put in, and an empty cluster reports ErrClusterEmpty.
func TestFreeConservesBalls(t *testing.T) {
	a := startShard(t, 32, 1, nil)
	b := startShard(t, 32, 2, nil)
	rt := newTestRouter(t, 2, a, b)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(17, 0)

	const m = 120
	for i := 0; i < m; i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < m; i++ {
		if _, err := ses.Free(r); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if got := a.st.Total() + b.st.Total(); got != 0 {
		t.Fatalf("cluster holds %d balls after draining, want 0", got)
	}
	if _, err := ses.Free(r); !errors.Is(err, ErrClusterEmpty) {
		t.Fatalf("free on empty cluster: got %v, want ErrClusterEmpty", err)
	}
}

// TestSessionStateAndCrash exercises the remaining verbs end to end.
func TestSessionStateAndCrash(t *testing.T) {
	a := startShard(t, 16, 1, nil)
	rt := newTestRouter(t, 1, a)
	ses := rt.NewSession()
	defer ses.Close()

	load, err := ses.Crash(0, 3, 7)
	if err != nil || load != 7 {
		t.Fatalf("crash: load %d, err %v", load, err)
	}
	sr, err := ses.State(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Loads) != 16 || sr.Loads[3] != 7 {
		t.Fatalf("state: %d bins, bin3=%d", len(sr.Loads), sr.Loads[3])
	}
	// A targeted FREE frame drains the crashed bin.
	typ, rp := dialRaw(t, a).call(dgram.TFree, dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeBin, Bin: 3, Count: 1}))
	if pairs, err := dgram.DecodeBinLoads(rp, nil); typ != dgram.TFreeOK || err != nil || len(pairs) != 1 || pairs[0].Load != 6 {
		t.Fatalf("free bin: %v %+v, err %v", typ, pairs, err)
	}
	// Draining shard refuses mutations with CodeDraining.
	a.svc.SetDraining()
	if _, err := ses.Admit(rng.NewStream(1, 0)); err == nil {
		t.Fatal("admit on a draining single-shard cluster must fail")
	}
}

// TestClusterDetector drives the full episode lifecycle: boot
// recovery, crash disruption, degraded-never-recovered, and re-fire
// after the fault drains.
func TestClusterDetector(t *testing.T) {
	a := startShard(t, 64, 1, nil)
	b := startShard(t, 64, 2, nil)
	c := startShard(t, 64, 3, nil)
	rt := newTestRouter(t, 2, a, b, c)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(19, 0)

	pol, err := serve.ParsePolicy("abku:2")
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate geometry: 192 bins, 192 balls.
	target, err := serve.NewTarget(pol, process.ScenarioA, 192, 192, 2)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(rt, target)
	defer det.Close()

	if det.Recovered() {
		t.Fatal("detector must start disrupted")
	}
	for i := 0; i < 192; i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatal(err)
		}
	}
	s := det.Check()
	if !s.Recovered || s.Degraded {
		t.Fatalf("boot check: %+v", s)
	}
	if s.Total != 192 || s.Steps != 192 {
		t.Fatalf("boot check clocks: total %d steps %d", s.Total, s.Steps)
	}
	if ep, n := det.LastEpisode(); n != 1 || ep.Steps != 192 {
		t.Fatalf("boot episode: %+v, count %d", ep, n)
	}

	// Crash a bin well above the target and stamp the outage.
	spike := uint32(target.MaxLoad() + 20)
	if _, err := ses.Crash(0, 0, spike); err != nil {
		t.Fatal(err)
	}
	det.MarkDisrupted()
	if s := det.Check(); s.Recovered {
		t.Fatalf("crashed cluster reported recovered: %+v", s)
	}

	// A dead shard makes the sweep degraded and blocks recovery even
	// if the max load were fine.
	c.stop()
	if s := det.Check(); !s.Degraded || s.Recovered || s.LiveShards != 2 {
		t.Fatalf("degraded check: %+v", s)
	}
	c.restart(t, 33)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := det.Check(); !s.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detector never saw the shard return")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drain the crashed bin, then run admit/free pairs so the step
	// clock advances; the detector must re-fire with a sane episode.
	// The raw FREEs go first: nothing has left shard a since the crash
	// put spike balls in bin 0, while the pairs' departures may take
	// balls from bin 0 too.
	raw := dialRaw(t, a)
	freeBin0 := dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeBin, Bin: 0, Count: 1})
	for i := 0; i < int(spike); i++ {
		if typ, _ := raw.call(dgram.TFree, freeBin0); typ != dgram.TFreeOK {
			t.Fatalf("FREE bin 0 answered %v", typ)
		}
	}
	for i := 0; i < int(spike); i++ {
		if _, err := ses.Admit(r); err != nil {
			t.Fatal(err)
		}
		if _, err := ses.Free(r); err != nil {
			t.Fatal(err)
		}
	}
	s = det.Check()
	if !s.Recovered {
		t.Fatalf("drained cluster not recovered: %+v", s)
	}
	ep, n := det.LastEpisode()
	if n != 2 {
		t.Fatalf("episode count %d, want 2", n)
	}
	if ep.Steps <= 0 || float64(ep.Steps) > target.BudgetSteps*8 {
		t.Fatalf("episode steps %d outside (0, 8x budget %f]", ep.Steps, target.BudgetSteps)
	}
}

// TestOptionsValidation pins the config contract.
func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty shard list must be rejected")
	}
	if _, err := New(Options{Shards: []string{"x"}, D: -1}); err == nil {
		t.Fatal("negative d must be rejected")
	}
	rt, err := New(Options{Shards: []string{"127.0.0.1:1", "127.0.0.1:2"}, D: 99})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.D() != 2 {
		t.Fatalf("d clamped to %d, want 2", rt.D())
	}
}

// TestShortAdmitReplyIsAPartialResult: a shard whose store reached its
// ball bound between two passes answers ADMIT with the balls it did
// place, and the session hands those back as the result — it neither
// drops the connection nor admits the batch again elsewhere.
func TestShortAdmitReplyIsAPartialResult(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	admits := make(chan struct{}, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fr, fw := dgram.NewReader(c), dgram.NewWriter(c)
				for {
					typ, _, err := fr.ReadFrame()
					switch {
					case err != nil:
						return
					case typ == dgram.TProbe:
						err = fw.WriteFrame(dgram.TSummary, dgram.AppendSummary(nil, dgram.Summary{N: 8, Total: 1}))
					case typ == dgram.TAdmit:
						admits <- struct{}{}
						err = fw.WriteFrame(dgram.TAdmitOK, dgram.AppendBinLoads(nil, []dgram.BinLoad{{Bin: 3, Load: 7}}))
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	rt, err := New(Options{Shards: []string{ln.Addr().String()}, D: 1, DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ses := rt.NewSession()
	defer ses.Close()
	out, err := ses.AdmitBatch(rng.New(1), 5, nil)
	if err != nil || len(out) != 1 || out[0].Bin != 3 || out[0].Load != 7 || len(admits) != 1 {
		t.Fatalf("short ADMIT reply: %+v, %v, %d ADMIT frames sent", out, err, len(admits))
	}
}
