package router

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"dynalloc/internal/dgram"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
)

// TestErrCodeTable pins the dgram codec's whole error vocabulary: every
// refusal the Service can return, and the codec's own decode failures.
func TestErrCodeTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want dgram.ErrCode
	}{
		{fmt.Errorf("%w: admit payload 3 bytes, want 4", dgram.ErrShort), dgram.CodeBadRequest},
		{fmt.Errorf("%w: count 0", serve.ErrBadRequest), dgram.CodeBadRequest},
		{fmt.Errorf("%w: %v", serve.ErrBadRequest, serve.ErrOverflow), dgram.CodeBadRequest},
		{serve.ErrEmpty, dgram.CodeEmpty},
		{serve.ErrEmptyBin, dgram.CodeEmpty},
		{serve.ErrDraining, dgram.CodeDraining},
		{serve.ErrStandby, dgram.CodeDraining},
		{errors.New("state of 5000000 bins exceeds one frame"), dgram.CodeInternal},
	} {
		if got := errCode(tc.err); got != tc.want {
			t.Errorf("errCode(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// rawConn speaks frames to a shard directly, the way a hostile or
// confused peer would — no Session in between to refuse anything.
type rawConn struct {
	t  *testing.T
	fr *dgram.Reader
	fw *dgram.Writer
}

func dialRaw(t *testing.T, sh *testShard) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", sh.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, fr: dgram.NewReader(c), fw: dgram.NewWriter(c)}
}

func (c *rawConn) call(typ dgram.Type, payload []byte) (dgram.Type, []byte) {
	c.t.Helper()
	if err := c.fw.WriteFrame(typ, payload); err != nil {
		c.t.Fatal(err)
	}
	rt, rp, err := c.fr.ReadFrame()
	if err != nil {
		c.t.Fatalf("%v: connection died: %v", typ, err)
	}
	return rt, rp
}

// wantErr asserts a TErr reply with the given code.
func (c *rawConn) wantErr(typ dgram.Type, payload []byte, code dgram.ErrCode) {
	c.t.Helper()
	rt, rp := c.call(typ, payload)
	if rt != dgram.TErr {
		c.t.Fatalf("%v answered %v, want ERR", typ, rt)
	}
	if e, err := dgram.DecodeErrReply(rp); err != nil || e.Code != code {
		c.t.Fatalf("%v answered ERR %+v (%v), want code %v", typ, e, err, code)
	}
}

// TestOversizedCountsAreRefusedBeforeAnyMutation is the regression test
// for the first remote crash: one well-formed ADMIT{Count: 3<<20} frame
// used to admit 3 M balls and then die in AppendFrame's MaxPayload
// panic. The bound is the Service's; the reply is ERR, nothing is
// admitted or freed, and the connection keeps answering.
func TestOversizedCountsAreRefusedBeforeAnyMutation(t *testing.T) {
	a := startShard(t, 64, 1, nil)
	a.st.FillBalanced(64)
	c := dialRaw(t, a)
	before := a.st.Stats()
	for _, count := range []uint32{3 << 20, serve.MaxCount + 1, 0, 1<<32 - 1} {
		c.wantErr(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: count}), dgram.CodeBadRequest)
		c.wantErr(dgram.TFree, dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeScenario, Count: count}), dgram.CodeBadRequest)
		c.wantErr(dgram.TFree, dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeBin, Bin: 1, Count: count}), dgram.CodeBadRequest)
	}
	if got := a.st.Stats(); got != before {
		t.Fatalf("refused requests changed the store: %+v -> %+v", before, got)
	}
	// The connection — and the process — survived: it still serves.
	if rt, rp := c.call(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: 600})); rt != dgram.TAdmitOK {
		t.Fatalf("ADMIT after the refusals answered %v", rt)
	} else if pairs, err := dgram.DecodeBinLoads(rp, nil); err != nil || len(pairs) != 600 {
		t.Fatalf("ADMIT{600}: %d pairs, %v", len(pairs), err)
	}
	if a.st.Total() != 664 {
		t.Fatalf("total %d after ADMIT{600}, want 664", a.st.Total())
	}

	// The client half: a Session does not ship what every shard refuses.
	ses := newTestRouter(t, 1, a).NewSession()
	defer ses.Close()
	for _, count := range []int{0, -1, serve.MaxCount + 1, 3 << 20} {
		if _, err := ses.AdmitBatch(rng.New(1), count, nil); err == nil {
			t.Fatalf("Session.AdmitBatch(%d) was sent", count)
		}
	}
	if a.st.Total() != 664 {
		t.Fatalf("refused client batches reached the shard: total %d", a.st.Total())
	}
}

// TestOverflowingCrashIsAnErrorNotAPanic is the regression test for the
// second: CRASH{K: 1<<31} wrapped int32(k) negative and panicked in
// shard.reindex with the store's mutex held. The bound is store-wide: a
// crash that would take the store past MaxInt32 balls is refused.
func TestOverflowingCrashIsAnErrorNotAPanic(t *testing.T) {
	a := startShard(t, 16, 1, nil)
	a.st.FillBalanced(16)
	c := dialRaw(t, a)
	before := a.st.Stats()
	for _, k := range []uint32{1 << 31, 1<<31 - 1, 1<<31 - 16, 1<<32 - 1} {
		c.wantErr(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 0, K: k}), dgram.CodeBadRequest)
	}
	c.wantErr(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 16, K: 1}), dgram.CodeBadRequest)
	if got := a.st.Stats(); got != before {
		t.Fatalf("refused crashes changed the store: %+v -> %+v", before, got)
	}
	// The store's mutex is free and the store takes what fits.
	rt, rp := c.call(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 0, K: 1<<31 - 17}))
	if load, err := dgram.DecodeLoad(rp); rt != dgram.TCrashOK || err != nil || load != 1<<31-16 {
		t.Fatalf("crash to the brim answered %v load %d (%v)", rt, load, err)
	}
	c.wantErr(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 3, K: 1}), dgram.CodeBadRequest)
}

// TestAdmitIntoABrimBinIsRefusedNotAPanic: a crash fills the only bin
// of a store to MaxInt32 balls, and an ADMIT, which can only land in
// that bin, answers bad_request with nothing applied. A bin bound alone
// let the crash through and the admission wrapped the bin's int32 load
// in shard.reindex, a panic with the locks held; the store-wide bound
// refuses it before any mutation, and the connection keeps serving.
func TestAdmitIntoABrimBinIsRefusedNotAPanic(t *testing.T) {
	a := startShard(t, 1, 1, nil)
	c := dialRaw(t, a)
	rt, rp := c.call(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 0, K: 1<<31 - 1}))
	if load, err := dgram.DecodeLoad(rp); rt != dgram.TCrashOK || err != nil || load != 1<<31-1 {
		t.Fatalf("crash to the brim answered %v load %d (%v)", rt, load, err)
	}
	before := a.st.Stats()
	for _, count := range []uint32{1, 300} {
		c.wantErr(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: count}), dgram.CodeBadRequest)
	}
	if got := a.st.Stats(); got != before || a.st.Load(0) != 1<<31-1 {
		t.Fatalf("refused admissions changed the store: %+v -> %+v", before, got)
	}
	rt, rp = c.call(dgram.TFree, dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeScenario, Count: 2}))
	if pairs, err := dgram.DecodeBinLoads(rp, nil); rt != dgram.TFreeOK || err != nil || len(pairs) != 2 || pairs[1].Load != 1<<31-3 {
		t.Fatalf("FREE{2} after the refusals answered %v %v (%v)", rt, pairs, err)
	}
	if rt, _ := c.call(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: 2})); rt != dgram.TAdmitOK {
		t.Fatalf("ADMIT{2} into the room the frees made answered %v", rt)
	}
}

// TestStateTooLargeForOneFrame: a store whose load vector does not fit
// dgram.MaxPayload answers STATE with ERR instead of reaching
// AppendFrame's panic; PROBE keeps serving it.
func TestStateTooLargeForOneFrame(t *testing.T) {
	const n = dgram.MaxPayload/4 + 1
	a := startShardStore(t, serve.NewStoreShards(n, 8), 1, nil)
	c := dialRaw(t, a)
	c.wantErr(dgram.TState, nil, dgram.CodeInternal)
	rt, rp := c.call(dgram.TProbe, nil)
	if sum, err := dgram.DecodeSummary(rp); rt != dgram.TSummary || err != nil || sum.N != n {
		t.Fatalf("PROBE after the refused STATE: %v %+v %v", rt, sum, err)
	}
}

// TestStateStreamsTheStore: a STATE_OK of several pieces carries the
// store's clocks and every bin, through Session.State.
func TestStateStreamsTheStore(t *testing.T) {
	const n = 3<<14 + 1
	st := serve.NewStoreShards(n, 8)
	st.FillBalanced(2 * n)
	a := startShardStore(t, st, 1, nil)
	ses := newTestRouter(t, 1, a).NewSession()
	defer ses.Close()
	if _, err := ses.Crash(0, n-1, 5); err != nil {
		t.Fatal(err)
	}
	sr, err := ses.State(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Allocs != st.Allocs() || sr.Frees != st.Frees() || len(sr.Loads) != n {
		t.Fatalf("state: clocks %d/%d, %d bins; store %d/%d, %d bins", sr.Allocs, sr.Frees, len(sr.Loads), st.Allocs(), st.Frees(), n)
	}
	for b, l := range st.LoadsCopy() {
		if int(sr.Loads[b]) != l {
			t.Fatalf("bin %d: state %d, store %d", b, sr.Loads[b], l)
		}
	}
}

// TestStandbyAnswersAsDraining: a Service still awaiting promotion
// refuses the mutating frames with the code that makes a router push
// the traffic elsewhere, and serves reads.
func TestStandbyAnswersAsDraining(t *testing.T) {
	a := startShard(t, 16, 1, nil)
	a.svc.SetStandby()
	c := dialRaw(t, a)
	c.wantErr(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: 1}), dgram.CodeDraining)
	c.wantErr(dgram.TCrash, dgram.AppendCrashReq(nil, dgram.CrashReq{Bin: 0, K: 1}), dgram.CodeDraining)
	if rt, _ := c.call(dgram.TProbe, nil); rt != dgram.TSummary {
		t.Fatalf("PROBE on a standby answered %v", rt)
	}
	a.svc.Arm(nil, nil)
	if rt, _ := c.call(dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: 1})); rt != dgram.TAdmitOK {
		t.Fatalf("ADMIT after Arm answered %v", rt)
	}
}
