package router

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/dgram"
	"dynalloc/internal/metrics"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
)

// MaxD caps the router's probe fan-out; a d beyond the shard count is
// clamped anyway, and fixed-size per-session scratch wants a bound.
const MaxD = 16

// Typed router errors.
var (
	// ErrNoLiveShards: every shard endpoint is marked down.
	ErrNoLiveShards = errors.New("router: no live shards")
	// ErrClusterEmpty: a departure found no ball on any live shard.
	ErrClusterEmpty = errors.New("router: cluster holds no balls")
	// ErrShardDown: the specifically addressed shard is down.
	ErrShardDown = errors.New("router: shard is down")
)

// Options configures a Router.
type Options struct {
	// Shards is the dgram address list, one per shard. Shard index in
	// this slice is the shard's identity everywhere (metrics, HTTP).
	Shards []string
	// D is the cluster-level probe fan-out: ABKU[D] across shards.
	// Defaults to 2, clamped to [1, min(MaxD, len(Shards))].
	D int
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// CallTimeout bounds one request/reply round trip (default 1s).
	CallTimeout time.Duration
	// HealthInterval is the background health-probe cadence that
	// revives down shards (default 200ms).
	HealthInterval time.Duration
	// RetryBackoff is the pause between whole-admission retry rounds
	// once every probed shard has failed (default 20ms): it lets the
	// health loop revive somebody instead of spinning.
	RetryBackoff time.Duration
}

func (o *Options) fill() error {
	if len(o.Shards) == 0 {
		return errors.New("router: need at least one shard address")
	}
	if o.D == 0 {
		o.D = 2
	}
	if o.D < 1 {
		return fmt.Errorf("router: d must be >= 1, got %d", o.D)
	}
	if o.D > MaxD {
		o.D = MaxD
	}
	if o.D > len(o.Shards) {
		o.D = len(o.Shards)
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 200 * time.Millisecond
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 20 * time.Millisecond
	}
	return nil
}

// shardState is the router's shared view of one shard endpoint.
type shardState struct {
	addr  string
	down  atomic.Bool
	total atomic.Int64 // last observed ball count (Free's weighted pick)
	n     atomic.Int64 // last observed bin count
	fails atomic.Int64 // cumulative connection/call failures

	// admitCounter is the preformatted per-shard admit-share metric
	// name, so the hot path never fmt.Sprintfs.
	admitCounter string
}

// Router is the cluster-level d-choice balancer: it owns the shared
// shard state (up/down, cached totals) and a background health loop.
// The hot path lives in Session, which holds per-caller connections
// and scratch; a Router is typically one per process with one Session
// per worker goroutine.
type Router struct {
	opts   Options
	shards []*shardState

	healthCancel chan struct{}
	healthWG     sync.WaitGroup
	closeOnce    sync.Once
}

// New validates opts and returns a Router with its health loop
// running. Shards start optimistic (up); the first failed call or
// health probe marks a shard down, and the health loop revives it when
// it answers probes again.
func New(opts Options) (*Router, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	rt := &Router{opts: opts, healthCancel: make(chan struct{})}
	for i, a := range opts.Shards {
		rt.shards = append(rt.shards, &shardState{
			addr:         a,
			admitCounter: fmt.Sprintf("router.admit.shard.%d", i),
		})
	}
	rt.healthWG.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop. Sessions must be closed separately (by
// whoever owns them).
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.healthCancel) })
	rt.healthWG.Wait()
}

// NumShards returns the configured shard count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// D returns the effective probe fan-out.
func (rt *Router) D() int { return rt.opts.D }

// Addr returns shard i's dgram address.
func (rt *Router) Addr(i int) string { return rt.shards[i].addr }

// Down reports whether shard i is currently marked down.
func (rt *Router) Down(i int) bool { return rt.shards[i].down.Load() }

// LiveCount returns the number of shards not marked down.
func (rt *Router) LiveCount() int {
	live := 0
	for _, s := range rt.shards {
		if !s.down.Load() {
			live++
		}
	}
	return live
}

// Degraded reports whether any shard is marked down.
func (rt *Router) Degraded() bool { return rt.LiveCount() < len(rt.shards) }

// CachedTotal returns the last ball count observed for shard i (from
// any probe on any session, or the health loop).
func (rt *Router) CachedTotal(i int) int64 { return rt.shards[i].total.Load() }

// CachedN returns the last bin count observed for shard i (0 until the
// first successful probe).
func (rt *Router) CachedN(i int) int { return int(rt.shards[i].n.Load()) }

// Fails returns shard i's cumulative failure count.
func (rt *Router) Fails(i int) int64 { return rt.shards[i].fails.Load() }

// markDown records a failed call against shard i.
func (rt *Router) markDown(i int) {
	s := rt.shards[i]
	s.fails.Add(1)
	if !s.down.Swap(true) {
		metrics.AddCounter("router.shard.down", 1)
	}
	metrics.SetGauge("router.live_shards", float64(rt.LiveCount()))
}

// markUp records a successful health probe against shard i.
func (rt *Router) markUp(i int) {
	if rt.shards[i].down.Swap(false) {
		metrics.AddCounter("router.shard.up", 1)
	}
	metrics.SetGauge("router.live_shards", float64(rt.LiveCount()))
}

// noteSummary folds a probe reply into the shared shard view.
func (rt *Router) noteSummary(i int, sum dgram.Summary) {
	rt.shards[i].total.Store(sum.Total)
	rt.shards[i].n.Store(int64(sum.N))
}

// healthLoop probes every shard on a fixed cadence with its own
// session: down shards get revived when they answer again, and the
// cached totals stay fresh even when no traffic flows (Free's weighted
// shard pick and the HTTP surface read them).
func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	ses := rt.NewSession()
	defer ses.Close()
	t := time.NewTicker(rt.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.healthCancel:
			return
		case <-t.C:
		}
		for i := range rt.shards {
			if _, err := ses.Probe(i); err == nil {
				rt.markUp(i)
			} else {
				rt.markDown(i)
			}
		}
	}
}

// WaitReady blocks until every shard answers a probe, or the timeout
// elapses (error). Boot-time convenience for daemons and drills.
func (rt *Router) WaitReady(timeout time.Duration) error {
	ses := rt.NewSession()
	defer ses.Close()
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for i := range rt.shards {
			if _, err := ses.Probe(i); err == nil {
				rt.markUp(i)
				ready++
			}
		}
		if ready == len(rt.shards) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router: %d of %d shards ready after %v", ready, len(rt.shards), timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// conn is one persistent dgram connection with its framing state.
type conn struct {
	c  net.Conn
	fr *dgram.Reader
	fw *dgram.Writer
}

// AdmitResult describes one routed admission.
type AdmitResult struct {
	Shard  int    // shard the ball landed on
	Bin    uint32 // shard-local bin
	Load   int32  // bin load after the admit
	Probes int    // shard summaries actually obtained (== d when healthy)
}

// FreeResult describes one routed departure.
type FreeResult struct {
	Shard int
	Bin   uint32
	Load  int32
}

// Session is one caller's stateful handle on the cluster: persistent
// connections (one per shard, lazily dialed) plus the scratch buffers
// that make the probe/admit hot path allocation-free. A Session is NOT
// safe for concurrent use — give each worker its own, exactly like
// Policy.Clone; randomized methods take the caller's rng stream.
type Session struct {
	rt    *Router
	conns []*conn // per shard, nil until dialed

	req    []byte // request payload scratch
	pairs  []dgram.BinLoad
	picked [MaxD]int
	sums   [MaxD]dgram.Summary
	sumOK  [MaxD]bool
	weight []int64       // Free's weighted-pick scratch
	batch  []AdmitResult // Admit's single-ball result scratch
}

// NewSession returns a fresh session with no connections dialed yet.
func (rt *Router) NewSession() *Session {
	return &Session{rt: rt, conns: make([]*conn, len(rt.shards))}
}

// Close drops the session's connections.
func (s *Session) Close() {
	for i, c := range s.conns {
		if c != nil {
			c.c.Close()
			s.conns[i] = nil
		}
	}
}

// get returns the session's connection to shard i, dialing on demand.
// Down shards are refused without a dial attempt: dialing a dead
// endpoint costs a timeout, and probes own revival (they force-dial).
func (s *Session) get(i int) (*conn, error) { return s.getDial(i, false) }

func (s *Session) getDial(i int, force bool) (*conn, error) {
	if c := s.conns[i]; c != nil {
		return c, nil
	}
	if !force && s.rt.shards[i].down.Load() {
		return nil, fmt.Errorf("%w: shard %d (%s)", ErrShardDown, i, s.rt.shards[i].addr)
	}
	nc, err := net.DialTimeout("tcp", s.rt.shards[i].addr, s.rt.opts.DialTimeout)
	if err != nil {
		s.rt.markDown(i)
		return nil, err
	}
	metrics.AddCounter("router.dials", 1)
	c := &conn{c: nc, fr: dgram.NewReader(nc), fw: dgram.NewWriter(nc)}
	s.conns[i] = c
	return c, nil
}

// drop closes shard i's connection after a call failure and marks the
// shard down (the health loop revives it).
func (s *Session) drop(i int) {
	if c := s.conns[i]; c != nil {
		c.c.Close()
		s.conns[i] = nil
	}
	s.rt.markDown(i)
}

// dropConnOnly closes shard i's connection without marking the shard
// down — for protocol-level refusals where the shard itself is healthy.
func (s *Session) dropConnOnly(i int) {
	if c := s.conns[i]; c != nil {
		c.c.Close()
		s.conns[i] = nil
	}
}

// call sends one request frame on shard i's connection and reads one
// reply frame. The reply payload is valid until the next call on this
// session. Deadlines bound the whole round trip.
func (s *Session) call(i int, t dgram.Type, payload []byte) (dgram.Type, []byte, error) {
	return s.callDial(i, t, payload, false)
}

func (s *Session) callDial(i int, t dgram.Type, payload []byte, force bool) (dgram.Type, []byte, error) {
	c, err := s.getDial(i, force)
	if err != nil {
		return 0, nil, err
	}
	if err := c.c.SetDeadline(time.Now().Add(s.rt.opts.CallTimeout)); err != nil {
		s.drop(i)
		return 0, nil, err
	}
	if err := c.fw.WriteFrame(t, payload); err != nil {
		s.drop(i)
		return 0, nil, err
	}
	rt, rp, err := c.fr.ReadFrame()
	if err != nil {
		s.drop(i)
		return 0, nil, err
	}
	return rt, rp, nil
}

// Probe fetches shard i's load digest and folds it into the router's
// cached view. Probes force-dial even down shards — they are the
// revival mechanism; a caller that sees a probe succeed should markUp
// (the health loop and cluster detector do).
func (s *Session) Probe(i int) (dgram.Summary, error) {
	t, p, err := s.callDial(i, dgram.TProbe, nil, true)
	if err != nil {
		return dgram.Summary{}, err
	}
	if t != dgram.TSummary {
		s.drop(i)
		return dgram.Summary{}, fmt.Errorf("router: shard %d answered PROBE with %v", i, t)
	}
	sum, err := dgram.DecodeSummary(p)
	if err != nil {
		s.drop(i)
		return dgram.Summary{}, err
	}
	s.rt.noteSummary(i, sum)
	return sum, nil
}

// pickLive fills s.picked with up to k distinct live shard indices
// drawn uniformly via r, returning how many it picked. With fewer than
// k live shards it returns all of them — the d-1 degraded fan-out.
func (s *Session) pickLive(k int, r *rng.RNG) int {
	// Reservoir sample over the live set: one pass, no allocation,
	// uniform over subsets regardless of which shards are down.
	seen := 0
	for i := range s.rt.shards {
		if s.rt.shards[i].down.Load() {
			continue
		}
		seen++
		if seen <= k {
			s.picked[seen-1] = i
			continue
		}
		if j := r.Intn(seen); j < k {
			s.picked[j] = i
		}
	}
	if seen < k {
		return seen
	}
	return k
}

// Admit routes one ball: probe d live shards in parallel on this
// session's persistent connections (writes first, then reads, so the
// probe fan-out costs one round-trip time, not d), admit at the shard
// with the fewest balls, and return where the ball landed. Shards that
// fail mid-call are dropped from the fan-out and marked down; the
// admission proceeds on the survivors (d-1 probing) and only fails
// once no shard is reachable across retry rounds.
func (s *Session) Admit(r *rng.RNG) (AdmitResult, error) {
	out, err := s.AdmitBatch(r, 1, s.batch[:0])
	s.batch = out[:0]
	if err != nil {
		return AdmitResult{}, err
	}
	return out[0], nil
}

// AdmitBatch routes count balls through ONE probe fan-out and ONE
// ADMIT exchange: the chosen (least-loaded) shard admits the whole
// batch through its local policy. Batching amortizes the two protocol
// round trips across count admissions — the cluster-level d-choice
// decision is made per batch rather than per ball, the standard
// granularity/throughput trade (each ball still gets a full local
// d-choice placement inside its shard). Results are appended to dst
// (one per ball, reusable across calls). On a mid-batch failure the
// whole batch is retried elsewhere, so balls are admitted at least
// once — the same contract as Admit. A count outside 1..serve.MaxCount
// is refused here, as every shard would refuse it. A shard whose store
// fills up (2^31−1 balls) part way returns fewer than count.
func (s *Session) AdmitBatch(r *rng.RNG, count int, dst []AdmitResult) ([]AdmitResult, error) {
	if count < 1 || count > serve.MaxCount {
		return dst, fmt.Errorf("router: admit batch of %d (want 1..%d)", count, serve.MaxCount)
	}
	record := metrics.Enabled()
	var t0 time.Time
	if record {
		t0 = time.Now()
	}
	rounds := 2*len(s.rt.shards) + 2
	for attempt := 0; attempt < rounds; attempt++ {
		if attempt > 0 {
			time.Sleep(s.rt.opts.RetryBackoff)
		}
		k := s.pickLive(s.rt.opts.D, r)
		if k == 0 {
			continue // every shard down; wait for the health loop
		}
		// Phase 1: one PROBE write per picked shard. Writes go out
		// back to back so the replies overlap on the wire.
		for pi := 0; pi < k; pi++ {
			i := s.picked[pi]
			s.sumOK[pi] = false
			c, err := s.get(i)
			if err != nil {
				continue
			}
			if err := c.c.SetDeadline(time.Now().Add(s.rt.opts.CallTimeout)); err != nil {
				s.drop(i)
				continue
			}
			if err := c.fw.WriteFrame(dgram.TProbe, nil); err != nil {
				s.drop(i)
				continue
			}
			s.sumOK[pi] = true
		}
		// Phase 2: collect the summaries.
		got := 0
		for pi := 0; pi < k; pi++ {
			if !s.sumOK[pi] {
				continue
			}
			i := s.picked[pi]
			s.sumOK[pi] = false
			c := s.conns[i]
			if c == nil {
				continue
			}
			t, p, err := c.fr.ReadFrame()
			if err != nil || t != dgram.TSummary {
				s.drop(i)
				continue
			}
			sum, err := dgram.DecodeSummary(p)
			if err != nil {
				s.drop(i)
				continue
			}
			s.rt.noteSummary(i, sum)
			s.sums[pi] = sum
			s.sumOK[pi] = true
			got++
		}
		if got == 0 {
			continue
		}
		if record {
			metrics.ObserveHistogram("router.probe.fanout", int64(got))
			if got < s.rt.opts.D {
				metrics.AddCounter("router.admit.degraded", 1)
			}
		}
		// Phase 3: admit at the least-loaded probed shard; on failure
		// fall through to the next-least-loaded until none remain.
		for {
			best, bestTotal, ties := -1, int64(0), 0
			for pi := 0; pi < k; pi++ {
				if !s.sumOK[pi] {
					continue
				}
				switch {
				case best < 0 || s.sums[pi].Total < bestTotal:
					best, bestTotal, ties = pi, s.sums[pi].Total, 1
				case s.sums[pi].Total == bestTotal:
					// Uniform tie-break, reservoir style, so equal-loaded
					// shards split admissions evenly.
					ties++
					if r.Intn(ties) == 0 {
						best = pi
					}
				}
			}
			if best < 0 {
				break // exhausted this round's summaries; re-pick
			}
			i := s.picked[best]
			s.sumOK[best] = false
			out, err := s.admitAt(i, uint32(count), dst)
			if err != nil {
				continue
			}
			for j := len(dst); j < len(out); j++ {
				out[j].Probes = got
			}
			if record {
				metrics.AddCounter("router.admits", int64(len(out)-len(dst)))
				metrics.AddCounter(s.rt.admitShardCounter(i), int64(len(out)-len(dst)))
				metrics.ObserveHistogram("router.admit.latency_ns", time.Since(t0).Nanoseconds())
			}
			return out, nil
		}
	}
	metrics.AddCounter("router.admit.failures", 1)
	return dst, ErrNoLiveShards
}

// admitAt sends one ADMIT for count balls to shard i on the
// already-probed connection, appending one result per admitted ball to
// dst (fewer than count if the shard filled up). On any failure dst is
// returned unchanged.
func (s *Session) admitAt(i int, count uint32, dst []AdmitResult) ([]AdmitResult, error) {
	c := s.conns[i]
	if c == nil {
		return dst, fmt.Errorf("%w: shard %d", ErrShardDown, i)
	}
	s.req = dgram.AppendAdmitReq(s.req[:0], dgram.AdmitReq{Count: count})
	if err := c.fw.WriteFrame(dgram.TAdmit, s.req); err != nil {
		s.drop(i)
		return dst, err
	}
	t, p, err := c.fr.ReadFrame()
	if err != nil {
		s.drop(i)
		return dst, err
	}
	switch t {
	case dgram.TAdmitOK:
		s.pairs = s.pairs[:0]
		s.pairs, err = dgram.DecodeBinLoads(p, s.pairs)
		if err != nil || len(s.pairs) == 0 || len(s.pairs) > int(count) {
			s.drop(i)
			return dst, fmt.Errorf("router: shard %d ADMIT reply: %d pairs, %v", i, len(s.pairs), err)
		}
		for _, bl := range s.pairs {
			dst = append(dst, AdmitResult{Shard: i, Bin: bl.Bin, Load: bl.Load})
		}
		return dst, nil
	case dgram.TErr:
		e, _ := dgram.DecodeErrReply(p)
		if e.Code == dgram.CodeDraining {
			// The shard is shutting down: push traffic elsewhere but
			// keep the connection polite.
			s.rt.markDown(i)
			s.dropConnOnly(i)
		}
		return dst, e
	default:
		s.drop(i)
		return dst, fmt.Errorf("router: shard %d answered ADMIT with %v", i, t)
	}
}

// Free routes one departure drawn cluster-wide: a shard is chosen with
// probability proportional to its cached ball count (the cluster-level
// mirror of Scenario A's uniform-ball draw; the shard then applies its
// own configured scenario), and the departure retries on other live
// shards if the chosen one is empty or unreachable.
func (s *Session) Free(r *rng.RNG) (FreeResult, error) {
	rounds := 2*len(s.rt.shards) + 2
	empties := 0
	for attempt := 0; attempt < rounds; attempt++ {
		i := s.pickWeighted(r)
		if i < 0 {
			time.Sleep(s.rt.opts.RetryBackoff)
			continue
		}
		res, err := s.freeAt(i)
		if err == nil {
			metrics.AddCounter("router.frees", 1)
			return res, nil
		}
		var e dgram.ErrReply
		if errors.As(err, &e) && e.Code == dgram.CodeEmpty {
			// That shard is empty; zero its cached weight and try another.
			s.rt.shards[i].total.Store(0)
			if empties++; empties >= len(s.rt.shards) {
				return FreeResult{}, ErrClusterEmpty
			}
		}
	}
	metrics.AddCounter("router.free.failures", 1)
	return FreeResult{}, ErrNoLiveShards
}

// pickWeighted draws a live shard with probability proportional to its
// cached total (uniform among live shards when the cache is all
// zeros). Returns -1 when no shard is live.
func (s *Session) pickWeighted(r *rng.RNG) int {
	if cap(s.weight) < len(s.rt.shards) {
		s.weight = make([]int64, len(s.rt.shards))
	}
	s.weight = s.weight[:len(s.rt.shards)]
	var total int64
	live := 0
	for i := range s.rt.shards {
		s.weight[i] = -1
		if s.rt.shards[i].down.Load() {
			continue
		}
		w := s.rt.shards[i].total.Load()
		if w < 0 {
			w = 0
		}
		s.weight[i] = w
		total += w
		live++
	}
	if live == 0 {
		return -1
	}
	if total <= 0 {
		// Nothing cached yet: uniform over live shards.
		k := r.Intn(live)
		for i := range s.weight {
			if s.weight[i] >= 0 {
				if k == 0 {
					return i
				}
				k--
			}
		}
		return -1
	}
	target := int64(r.Uint64n(uint64(total)))
	for i := range s.weight {
		if s.weight[i] <= 0 {
			continue
		}
		if target < s.weight[i] {
			return i
		}
		target -= s.weight[i]
	}
	// Rounding/race fallback: last live shard with weight.
	for i := len(s.weight) - 1; i >= 0; i-- {
		if s.weight[i] > 0 {
			return i
		}
	}
	return -1
}

// freeAt asks shard i for one departure drawn by its own scenario.
func (s *Session) freeAt(i int) (FreeResult, error) {
	s.req = dgram.AppendFreeReq(s.req[:0], dgram.FreeReq{Mode: dgram.FreeScenario, Count: 1})
	t, p, err := s.call(i, dgram.TFree, s.req)
	if err != nil {
		return FreeResult{}, err
	}
	switch t {
	case dgram.TFreeOK:
		s.pairs = s.pairs[:0]
		s.pairs, err = dgram.DecodeBinLoads(p, s.pairs)
		if err != nil || len(s.pairs) != 1 {
			s.drop(i)
			return FreeResult{}, fmt.Errorf("router: shard %d FREE reply: %v", i, err)
		}
		return FreeResult{Shard: i, Bin: s.pairs[0].Bin, Load: s.pairs[0].Load}, nil
	case dgram.TErr:
		e, _ := dgram.DecodeErrReply(p)
		if e.Code == dgram.CodeDraining {
			s.rt.markDown(i)
			s.dropConnOnly(i)
		}
		return FreeResult{}, e
	default:
		s.drop(i)
		return FreeResult{}, fmt.Errorf("router: shard %d answered FREE with %v", i, t)
	}
}

// Crash injects k extra balls into shard i's bin — the cluster-level
// fault injector — and returns the bin's new load.
func (s *Session) Crash(i int, bin uint32, k uint32) (int32, error) {
	s.req = dgram.AppendCrashReq(s.req[:0], dgram.CrashReq{Bin: bin, K: k})
	t, p, err := s.call(i, dgram.TCrash, s.req)
	if err != nil {
		return 0, err
	}
	switch t {
	case dgram.TCrashOK:
		return dgram.DecodeLoad(p)
	case dgram.TErr:
		e, _ := dgram.DecodeErrReply(p)
		return 0, e
	default:
		s.drop(i)
		return 0, fmt.Errorf("router: shard %d answered CRASH with %v", i, t)
	}
}

// State fetches shard i's full load vector (appending into loads,
// which may be reused across calls) plus its clocks.
func (s *Session) State(i int, loads []int32) (dgram.StateReply, error) {
	t, p, err := s.call(i, dgram.TState, nil)
	if err != nil {
		return dgram.StateReply{}, err
	}
	switch t {
	case dgram.TStateOK:
		sr, err := dgram.DecodeStateReply(p, loads)
		if err != nil {
			s.drop(i)
			return dgram.StateReply{}, err
		}
		return sr, nil
	case dgram.TErr:
		e, _ := dgram.DecodeErrReply(p)
		return dgram.StateReply{}, e
	default:
		s.drop(i)
		return dgram.StateReply{}, fmt.Errorf("router: shard %d answered STATE with %v", i, t)
	}
}

// admitShardCounter returns the per-shard admit-share counter name,
// preformatted so the hot path never fmt.Sprintfs.
func (rt *Router) admitShardCounter(i int) string {
	return rt.shards[i].admitCounter
}
