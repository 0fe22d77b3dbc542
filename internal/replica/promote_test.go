package replica

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// These tests run the full wire path — Streamer serving a live
// journal's directory over TCP, Follower.Run subscribed to it — and
// pin the promotion state machine: the split-brain guard, the forced
// fence handshake, and the journal re-arm a promoted standby performs.

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// livePair wires a primary + streamer to a running follower over
// loopback TCP and returns both plus the follower's pieces.
type livePair struct {
	p       *primary
	str     *Streamer
	sfs     *simfs.FS
	sst     *serve.Store
	f       *Follower
	cancel  context.CancelFunc
	runDone chan struct{}
	fenced  *atomic.Bool
}

func startLivePair(t *testing.T, hbTimeout time.Duration) *livePair {
	t.Helper()
	p := newPrimary(t, 6, wal.FsyncAlways)
	fenced := &atomic.Bool{}
	str, err := NewStreamer(StreamerConfig{
		FS:      p.fs,
		Dir:     p.dir,
		LastSeq: p.j.LastSeq,
		OnPromote: func(force bool) (uint64, error) {
			fenced.Store(true)
			p.j.Drain()
			return p.j.LastSeq(), nil
		},
		Heartbeat:    20 * time.Millisecond,
		Poll:         2 * time.Millisecond,
		BatchRecords: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go str.Serve(ln)
	t.Cleanup(func() { str.Close() })

	sfs := simfs.New()
	sst := serve.NewStoreShards(schedN, schedShards)
	f, _, err := NewFollower(FollowerConfig{
		Store:            sst,
		FS:               sfs,
		Dir:              "/standby",
		Fsync:            wal.FsyncAlways,
		SegmentBytes:     tinySeg,
		HeartbeatTimeout: hbTimeout,
		RetryEvery:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		f.Run(ctx, ln.Addr().String())
		close(runDone)
	}()
	t.Cleanup(cancel)
	return &livePair{p: p, str: str, sfs: sfs, sst: sst, f: f, cancel: cancel, runDone: runDone, fenced: fenced}
}

func (lp *livePair) waitCaughtUp(t *testing.T) {
	t.Helper()
	waitFor(t, 3*time.Second, "follower catch-up", func() bool {
		return lp.f.AppliedSeq() == lp.p.j.LastSeq() && lp.f.Status().Connected
	})
}

// TestPromoteSplitBrainGuard: while the subscription has a live,
// heartbeating primary, Promote without force must refuse; with force
// it fences the primary through the PROMOTE handshake, applies its
// final tail, and hands over at exactly the primary's last seq. The
// promoted standby then re-arms a journal on its own directory and
// keeps a bit-exact durable trail.
func TestPromoteSplitBrainGuard(t *testing.T) {
	lp := startLivePair(t, 500*time.Millisecond)
	r := rng.New(7)
	lp.p.mutate(r, 80)
	lp.waitCaughtUp(t)

	if _, err := lp.f.Promote(false); !errors.Is(err, ErrPrimaryAlive) {
		t.Fatalf("promote alongside a live primary: err=%v, want ErrPrimaryAlive", err)
	}
	if lp.fenced.Load() {
		t.Fatal("refused promote still fenced the primary")
	}

	res, err := lp.f.Promote(true)
	if err != nil {
		t.Fatalf("forced promote: %v", err)
	}
	if !res.Forced {
		t.Fatal("forced promote not marked Forced")
	}
	if !lp.fenced.Load() {
		t.Fatal("forced promote never fenced the primary")
	}
	if want := lp.p.j.LastSeq(); res.LastSeq != want {
		t.Fatalf("promoted at seq %d, primary durable seq %d", res.LastSeq, want)
	}
	select {
	case <-lp.runDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	if err := lp.f.Deliver(dgram.THeartbeat, dgram.AppendHeartbeat(nil, dgram.Heartbeat{LastSeq: 1})); !errors.Is(err, ErrPromoted) {
		t.Fatalf("post-promotion Deliver: err=%v, want ErrPromoted", err)
	}

	pl, sl := lp.p.st.LoadsCopy(), lp.sst.LoadsCopy()
	for b := range pl {
		if pl[b] != sl[b] {
			t.Fatalf("bin %d: promoted standby %d, primary %d", b, sl[b], pl[b])
		}
	}

	// Re-arm: open a fresh journal on the promoted standby's own
	// directory — what the daemon does on POST /promote — write through
	// it, and prove the durable trail stays bit-exact.
	l2, err := wal.Open(wal.Options{Dir: "/standby", FS: lp.sfs, Fsync: wal.FsyncAlways, SegmentBytes: tinySeg})
	if err != nil {
		t.Fatal(err)
	}
	j2 := serve.NewJournal(lp.sst, l2, res.LastSeq, serve.JournalOptions{MaxBatch: 4, SyncWriter: true})
	admitOne(lp.sst, 0)
	admitOne(lp.sst, 1)
	lp.sst.FreeBin(2)
	j2.Drain()
	if _, _, err := j2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	ref := serve.NewStoreShards(schedN, schedShards)
	if _, err := serve.RestoreFSOpts(ref, lp.sfs, "/standby", serve.RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	rl, sl2 := ref.LoadsCopy(), lp.sst.LoadsCopy()
	for b := range rl {
		if rl[b] != sl2[b] {
			t.Fatalf("re-armed journal: bin %d restored to %d, warm %d", b, rl[b], sl2[b])
		}
	}
}

// TestPromoteAfterPrimaryDeath: once the primary is gone and the
// heartbeat window lapses, an unforced promote succeeds and serves
// exactly the state the primary had shipped.
func TestPromoteAfterPrimaryDeath(t *testing.T) {
	lp := startLivePair(t, 100*time.Millisecond)
	r := rng.New(8)
	lp.p.mutate(r, 60)
	lp.waitCaughtUp(t)

	// Kill the primary's streaming side entirely (the drill does this
	// with kill -9; here Close drops the listener and every conn).
	lp.str.Close()
	waitFor(t, 2*time.Second, "subscription death", func() bool {
		return !lp.f.Status().Connected
	})
	time.Sleep(120 * time.Millisecond) // let the heartbeat window lapse

	res, err := lp.f.Promote(false)
	if err != nil {
		t.Fatalf("promote after primary death: %v", err)
	}
	if res.Forced {
		t.Fatal("dead-primary promote should not be Forced")
	}
	if want := lp.p.j.LastSeq(); res.LastSeq != want {
		t.Fatalf("promoted at seq %d, want primary's last durable %d", res.LastSeq, want)
	}
	pl, sl := lp.p.st.LoadsCopy(), lp.sst.LoadsCopy()
	for b := range pl {
		if pl[b] != sl[b] {
			t.Fatalf("bin %d: promoted standby %d, primary %d", b, sl[b], pl[b])
		}
	}
}
