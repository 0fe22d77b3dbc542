package serve_test

import (
	"net"
	"testing"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/process"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
)

// stallHook blocks inside OnAllocRun — with the stripe lock held, as a
// journal push stalled on a hung disk would — until released.
type stallHook struct {
	entered, release chan struct{}
}

func (h *stallHook) OnAllocRun([]int) { close(h.entered); <-h.release }
func (h *stallHook) OnFree(int)       {}
func (h *stallHook) OnCrash(int, int) {}

// TestReadsAnswerWhileAStripeLockIsHeld pins the package's read
// contract on the index-backed reads: LoadSummary, Detector.Check and
// the dgram PROBE handler take no stripe lock, so all three return
// while a mutation sits inside the store's only stripe.
func TestReadsAnswerWhileAStripeLockIsHeld(t *testing.T) {
	const n = 1 << 10
	st := serve.NewStoreShards(n, 1)
	st.FillBalanced(n)
	det := serve.NewDetector(st, serve.Target{PredictedMax: 3, Slack: 1})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := router.NewServer(router.ServerConfig{
		Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA, Detector: det,
	})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hook := &stallHook{entered: make(chan struct{}), release: make(chan struct{})}
	st.SetHook(hook)
	allocDone := make(chan struct{})
	go func() {
		st.AdmitBatch([]int{5}, nil, new(serve.AdmitScratch))
		close(allocDone)
	}()
	<-hook.entered // bin 5 is at load 2 and the stripe lock is held

	type reads struct {
		sum   serve.LoadSummary
		check serve.Status
		probe dgram.Summary
		err   error
	}
	got := make(chan reads, 1)
	go func() {
		var r reads
		r.sum = st.LoadSummary()
		r.check = det.Check()
		if r.err = dgram.NewWriter(c).WriteFrame(dgram.TProbe, nil); r.err == nil {
			var typ dgram.Type
			var p []byte
			if typ, p, r.err = dgram.NewReader(c).ReadFrame(); r.err == nil && typ == dgram.TSummary {
				r.probe, r.err = dgram.DecodeSummary(p)
			}
		}
		got <- r
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Errorf("PROBE: %v", r.err)
		}
		if r.sum.MaxLoad != 2 || r.check.MaxLoad != 2 || r.probe.MaxLoad != 2 {
			t.Errorf("max load read as %d (LoadSummary), %d (Check), %d (PROBE); want 2", r.sum.MaxLoad, r.check.MaxLoad, r.probe.MaxLoad)
		}
		if r.check.Total != n+1 || r.check.DeltaTypical != 0 {
			t.Errorf("Check = %+v; want total %d at distance 0 from balanced", r.check, n+1)
		}
	case <-time.After(20 * time.Second):
		t.Error("LoadSummary, Detector.Check or PROBE blocked behind a held stripe lock")
	}
	close(hook.release)
	<-allocDone
}
