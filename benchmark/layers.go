package main

// The traced run: the same layers cmd/dynallocd wires together,
// assembled in this process with a recorder at every seam that already
// exists, plus single layers timed alone.
//
// FROZEN SURFACE. Later changes may not edit this directory, so the
// harness binds only to the names below; a change that renames one of
// them has to keep the old spelling alive.
//
//   - cmd/dynallocd flags: -addr -dgram-addr -dgram-port-file -n -d
//     -scenario -seed -wal-dir -fsync -checkpoint-every -drive -batch
//     -stay -check-every; and dgram protocol v1 (frame header layout,
//     PROBE/ADMIT/FREE/CRASH/STATE).
//   - router.New, router.Options{Shards, D}, Router.WaitReady,
//     NewSession, Close; Session.AdmitBatch, Free, Probe, Crash, State,
//     Close.
//   - For the traced run only: serve.NewStoreShards, Store.FillBalanced,
//     SetHook, LoadSummary; serve.NewABKUPolicy, the serve.Policy and
//     serve.BatchPolicy method sets; serve.StoreHook and BatchStoreHook;
//     serve.NewBatcher, Batcher.Pass; serve.NewJournal,
//     JournalOptions{SyncEvery}, Journal.Checkpoint, Drain, Close;
//     serve.NewTarget, NewDetector, Detector.Check; serve.RestoreFSOpts,
//     RestoreOptions, RestoreResult; wal.Open, wal.Options, the
//     wal.Fsync* constants, Log.AppendBatch, Close, wal.Record and the
//     Op* constants, wal.ReplayPipelineFS, PipelineOptions;
//     checkpoint.WriteFS, LoadLatestFS, Snapshot, Section;
//     router.NewServer, ServerConfig, Server.Serve, Close;
//     dgram.AppendFrame, DecodeFrame, AppendBinLoads, BinLoad, the T*
//     frame types; replica.NewShipper, ShipperConfig, Shipper.Pump,
//     Close, replica.NewFollower, FollowerConfig, Follower.Deliver,
//     Close; vfs.FS, vfs.File, vfs.OS; rng.NewStream, RNG.Intn, Exp;
//     process.ScenarioA.
//
// Never the per-ball or path-taking twins (Alloc, Pick, Append, Replay,
// ReplayFS, Restore, RestoreOpts, checkpoint.Write) or the …ForTest
// switches: those are what the next simplifications delete.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/dgram"
	"dynalloc/internal/fluid"
	"dynalloc/internal/process"
	"dynalloc/internal/replica"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
	"dynalloc/internal/serve"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// ---- recorders at the seams ----

// tracedPolicy records every PickBatch. The shard server clones its
// policy once per connection, so each clone lives on one goroutine and
// keeps that goroutine's lane.
type tracedPolicy struct {
	inner  serve.BatchPolicy
	t      *tracer
	ln     *lane
	probes *atomic.Int64 // shared by all clones
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }
func (p *tracedPolicy) FluidModel(sc process.Scenario, cap int) *fluid.Model {
	return p.inner.FluidModel(sc, cap)
}
func (p *tracedPolicy) Clone() serve.Policy {
	return &tracedPolicy{inner: p.inner.Clone().(serve.BatchPolicy), t: p.t, probes: p.probes}
}
func (p *tracedPolicy) Pick(st *serve.Store, r *rng.RNG) (int, int) {
	var one [1]int
	probes := p.PickBatch(st, r, one[:])
	return one[0], probes
}
func (p *tracedPolicy) PickBatch(st *serve.Store, r *rng.RNG, bins []int) int {
	if p.ln == nil {
		p.ln = p.t.goroutineLane()
	}
	i := p.ln.begin(spPolicyPick, p.t.now())
	probes := p.inner.PickBatch(st, r, bins)
	p.ln.end(i, p.t.now(), int64(len(bins)))
	p.probes.Add(int64(probes))
	return probes
}

// tracedHook records what the store hands the journal. The store calls
// it with a stripe's lock held, so the calls of one stripe cannot
// overlap: each stripe has a lane.
type tracedHook struct {
	inner      serve.BatchStoreHook
	t          *tracer
	lanes      []*lane // by stripe
	stripeBins int
}

func newTracedHook(inner serve.BatchStoreHook, t *tracer, shard, n, stripes int) *tracedHook {
	h := &tracedHook{inner: inner, t: t, stripeBins: (n + stripes - 1) / stripes}
	for i := 0; i < stripes; i++ {
		ln := t.newLane()
		ln.shard = int32(shard)
		h.lanes = append(h.lanes, ln)
	}
	return h
}

func (h *tracedHook) record(bin, n int, who int32, call func()) {
	ln := h.lanes[bin/h.stripeBins]
	i := ln.begin(spJournalEnqueue, h.t.now())
	ln.spans[i].who = who
	call()
	ln.end(i, h.t.now(), int64(n))
}
func (h *tracedHook) OnAlloc(bin int) { h.record(bin, 1, hookAdmit, func() { h.inner.OnAlloc(bin) }) }
func (h *tracedHook) OnFree(bin int)  { h.record(bin, 1, hookFree, func() { h.inner.OnFree(bin) }) }
func (h *tracedHook) OnCrash(bin, k int) {
	h.record(bin, 1, hookOther, func() { h.inner.OnCrash(bin, k) })
}
func (h *tracedHook) OnAllocRun(bins []int) {
	h.record(bins[0], len(bins), hookAdmit, func() { h.inner.OnAllocRun(bins) })
}

// tracedFS records the writes and fsyncs the durability stack issues.
// The log serialises what it does to a segment and a checkpoint file
// belongs to the goroutine writing it, so each file has a lane.
type tracedFS struct {
	vfs.FS
	t        *tracer
	segments atomic.Int64 // WAL segment files created
}

func isSegment(name string) bool { return strings.HasPrefix(filepath.Base(name), "wal-") }

func (f *tracedFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	tf := &tracedFile{File: file, t: f.t, ln: f.t.newLane(), write: spCkptWrite, sync: spCkptFsync}
	if isSegment(file.Name()) {
		f.segments.Add(1)
		tf.write, tf.sync = spWalWrite, spWalFsync
	}
	return tf, nil
}
func (f *tracedFS) Create(name string) (vfs.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *tracedFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

type tracedFile struct {
	vfs.File
	t           *tracer
	ln          *lane
	write, sync spanKind
}

func (f *tracedFile) Write(p []byte) (int, error) {
	i := f.ln.begin(f.write, f.t.now())
	n, err := f.File.Write(p)
	f.ln.end(i, f.t.now(), int64(n))
	return n, err
}
func (f *tracedFile) Sync() error {
	i := f.ln.begin(f.sync, f.t.now())
	err := f.File.Sync()
	f.ln.end(i, f.t.now(), 0)
	return err
}

// tracedListener hands the shard server connections that count their
// own reads, writes and bytes and record one service span per request:
// from the Read that completed the request to the end of the Write that
// answered it.
type tracedListener struct {
	net.Listener
	t     *tracer
	shard int
	reg   *connRegistry
}

type connRegistry struct {
	mu    sync.Mutex
	conns []*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, t: l.t, shard: l.shard, open: -1}
	l.reg.mu.Lock()
	tc.id = int32(len(l.reg.conns))
	l.reg.conns = append(l.reg.conns, tc)
	l.reg.mu.Unlock()
	return tc, nil
}

type tracedConn struct {
	net.Conn
	t     *tracer
	id    int32
	shard int
	ln    *lane // the handler goroutine's
	open  int32 // the service span of the request being handled, or -1

	frames, reads, writes, bytes atomic.Int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.ln == nil {
		c.ln = c.t.goroutineLane()
		c.ln.shard = int32(c.shard)
	}
	switch {
	case n > 0:
		now := c.t.now()
		c.reads.Add(1)
		c.bytes.Add(int64(n))
		if c.open >= 0 {
			// More of a request already begun: it is fully read now.
			c.ln.spans[c.open].start = now
			break
		}
		kind := spServiceOther
		if n >= 3 { // protocol v1: magic, version, type
			switch dgram.Type(p[2]) {
			case dgram.TAdmit:
				kind = spServiceAdmit
			case dgram.TFree:
				kind = spServiceFree
			case dgram.TProbe:
				kind = spServiceProbe
			}
		}
		c.frames.Add(1)
		c.open = c.ln.begin(kind, now)
		c.ln.spans[c.open].who = c.id
	case err != nil && c.open >= 0:
		c.ln.abandon(c.open)
		c.open = -1
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.ln == nil {
		c.ln = c.t.goroutineLane()
		c.ln.shard = int32(c.shard)
	}
	w := c.ln.begin(spConnWrite, c.t.now())
	n, err := c.Conn.Write(p)
	now := c.t.now()
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	c.ln.end(w, now, int64(n))
	if c.open >= 0 {
		c.ln.end(c.open, now, 0)
		c.open = -1
	}
	return n, err
}

// tracedClient records the generator's calls, one lane per client.
type tracedClient struct {
	inner *sessionClient
	t     *tracer
	ln    *lane
	idx   int32
}

func (c *tracedClient) call(k spanKind, n int, f func() error) error {
	i := c.ln.begin(k, c.t.now())
	c.ln.spans[i].who = c.idx
	err := f()
	c.ln.end(i, c.t.now(), int64(n))
	return err
}
func (c *tracedClient) free() error { return c.call(spFreeCall, 1, c.inner.free) }
func (c *tracedClient) admit(count int) error {
	return c.call(spAdmitCall, count, func() error { return c.inner.admit(count) })
}
func (c *tracedClient) probe(shard int) error {
	return c.call(spProbeCall, 1, func() error { _, err := c.inner.s.Probe(shard); return err })
}

// ---- the in-process assembly ----

// autoStripes is the stripe count cmd/dynallocd gives a store of n bins
// on this machine (serve.NewStore's rule: the power of two covering
// twice GOMAXPROCS, at least 8, at most 256 and n).
func autoStripes(n int) int {
	s := 8
	for s < 2*runtime.GOMAXPROCS(0) && s < 256 {
		s *= 2
	}
	for s > n {
		s /= 2
	}
	return s
}

func fsyncPolicy(name string) wal.FsyncPolicy {
	switch name {
	case "always":
		return wal.FsyncAlways
	case "never":
		return wal.FsyncNever
	}
	return wal.FsyncInterval
}

type inprocShard struct {
	st   *serve.Store
	j    *serve.Journal
	det  *serve.Detector
	srv  *router.Server
	fs   *tracedFS
	done chan error // non-nil once Serve runs; yields its result
}

// inproc is a workload's system assembled in this process the way
// cmd/dynallocd assembles it, serving on loopback listeners.
type inproc struct {
	w      workload
	t      *tracer // nil: no recorders anywhere
	shards []*inprocShard
	reg    connRegistry
	probes atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup

	rt      *router.Router
	clients []*sessionClient

	mu         sync.Mutex
	checkpoint latencies // Journal.Checkpoint under traffic, ns
}

// startInproc boots the workload's shards in this process. ckptEvery is
// the checkpoint cadence of durable shards.
func startInproc(w workload, dir string, seed uint64, t *tracer, ckptEvery time.Duration) (in *inproc, err error) {
	in = &inproc{w: w, t: t, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	addrs := make([]string, w.shards)
	for i := 0; i < w.shards; i++ {
		sh := &inprocShard{st: serve.NewStoreShards(w.n, autoStripes(w.n))}
		in.shards = append(in.shards, sh)
		sh.st.FillBalanced(w.n)
		pol := serve.NewABKUPolicy(2)
		if w.durable {
			opts := wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("wal%d", i)), Fsync: fsyncPolicy(w.fsync)}
			if t != nil {
				sh.fs = &tracedFS{FS: vfs.OS, t: t}
				opts.FS = sh.fs
			}
			log, err := wal.Open(opts)
			if err != nil {
				return in, err
			}
			var jo serve.JournalOptions
			if opts.Fsync == wal.FsyncInterval {
				jo.SyncEvery = 100 * time.Millisecond // dynallocd's -fsync-interval default
			}
			sh.j = serve.NewJournal(sh.st, log, 0, jo)
			if _, _, err := sh.j.Checkpoint(); err != nil {
				return in, fmt.Errorf("boot checkpoint: %w", err)
			}
			if t != nil {
				sh.st.SetHook(newTracedHook(sh.j, t, i, w.n, autoStripes(w.n)))
			}
		}
		target, err := serve.NewTarget(pol, process.ScenarioA, w.n, w.n, 1)
		if err != nil {
			return in, err
		}
		sh.det = serve.NewDetector(sh.st, target)
		if t != nil {
			pol = &tracedPolicy{inner: pol.(serve.BatchPolicy), t: t, probes: &in.probes}
		}
		sh.srv = router.NewServer(router.ServerConfig{
			Store: sh.st, Policy: pol, Scenario: process.ScenarioA, Seed: seed + uint64(i), Detector: sh.det,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return in, err
		}
		addrs[i] = ln.Addr().String()
		if t != nil {
			ln = &tracedListener{Listener: ln, t: t, shard: i, reg: &in.reg}
		}
		sh.done = make(chan error, 1)
		go func() { sh.done <- sh.srv.Serve(ln) }()
		in.background(sh, ckptEvery)
	}
	if in.rt, err = router.New(router.Options{Shards: addrs, D: 2}); err != nil {
		return in, err
	}
	if err := in.rt.WaitReady(bootTimeout); err != nil {
		return in, err
	}
	for i := 0; i < sessions; i++ {
		in.clients = append(in.clients, &sessionClient{s: in.rt.NewSession(), r: rng.NewStream(seed, clientStreamBase+uint64(i))})
	}
	return in, nil
}

// background runs what dynallocd runs beside the request handlers: the
// detector's wall-clock check (every second, -check-interval's default)
// and the periodic checkpoint.
func (in *inproc) background(sh *inprocShard, ckptEvery time.Duration) {
	span := func(k spanKind, f func()) time.Duration {
		t0 := time.Now()
		if in.t == nil {
			f()
			return time.Since(t0)
		}
		ln := in.t.goroutineLane()
		i := ln.begin(k, in.t.now())
		f()
		ln.end(i, in.t.now(), 0)
		return time.Since(t0)
	}
	tick := func(every time.Duration, f func()) {
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			tk := time.NewTicker(every)
			defer tk.Stop()
			for {
				select {
				case <-in.stop:
					return
				case <-tk.C:
					f()
				}
			}
		}()
	}
	tick(time.Second, func() { span(spDetectorCheck, func() { sh.det.Check() }) })
	if sh.j != nil && ckptEvery > 0 {
		tick(ckptEvery, func() {
			d := span(spCheckpoint, func() { sh.j.Checkpoint() }) // its error is the journal's to report at Close
			in.mu.Lock()
			in.checkpoint.add(d.Nanoseconds())
			in.mu.Unlock()
		})
	}
}

// drain waits until every journal has handed its queue to the WAL and
// returns how long that took: the work still owed when load stops.
func (in *inproc) drain() time.Duration {
	t0 := time.Now()
	for _, sh := range in.shards {
		if sh.j != nil {
			sh.j.Drain()
		}
	}
	return time.Since(t0)
}

// close stops everything the assembly started and waits for it.
func (in *inproc) close() error {
	close(in.stop)
	in.wg.Wait()
	for _, c := range in.clients {
		c.s.Close()
	}
	if in.rt != nil {
		in.rt.Close()
	}
	var err error
	for _, sh := range in.shards {
		if sh.done != nil {
			sh.srv.Close()
			<-sh.done // Serve returned: every handler has exited
		}
		if sh.j != nil {
			if cerr := sh.j.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// ledger sums the shards' state straight from the stores.
func (in *inproc) ledger() ledger {
	var l ledger
	for _, sh := range in.shards {
		s := sh.st.LoadSummary()
		l.balls += s.Total
		l.allocs += s.Allocs
		l.frees += s.Frees
	}
	return l
}

// bind finds out which server-side connection belongs to which client:
// each client in turn probes each shard on its own, and the one
// connection of that shard whose read count moved is its. The router's
// health loop probes on its own connections every 200 ms; should one of
// those land in the same instant the step is simply repeated.
func (in *inproc) bind() (map[int32]int32, error) {
	// Let the health loop dial first, so it cannot do so mid-binding.
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		in.reg.mu.Lock()
		n := len(in.reg.conns)
		in.reg.mu.Unlock()
		if n >= 2*len(in.shards) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	bound := make(map[int32]int32)
	for k, c := range in.clients {
		for shard := range in.shards {
			ok := false
			for attempt := 0; attempt < 8 && !ok; attempt++ {
				before := in.readCounts()
				if _, err := c.s.Probe(shard); err != nil {
					return nil, fmt.Errorf("binding probe: %w", err)
				}
				var moved []int32
				for _, tc := range in.snapshotConns() {
					if _, taken := bound[tc.id]; !taken && tc.shard == shard && tc.reads.Load() > before[tc.id] {
						moved = append(moved, tc.id)
					}
				}
				if len(moved) == 1 {
					bound[moved[0]] = int32(k)
					ok = true
				}
			}
			if !ok {
				return nil, fmt.Errorf("could not tell client %d's connection to shard %d from the others", k, shard)
			}
		}
	}
	return bound, nil
}

func (in *inproc) snapshotConns() []*tracedConn {
	in.reg.mu.Lock()
	defer in.reg.mu.Unlock()
	return append([]*tracedConn(nil), in.reg.conns...)
}

func (in *inproc) readCounts() map[int32]int64 {
	out := make(map[int32]int64)
	for _, tc := range in.snapshotConns() {
		out[tc.id] = tc.reads.Load()
	}
	return out
}

// wire is the bound connections' counters added up.
type wire struct{ frames, reads, writes, bytes int64 }

func (in *inproc) wire(bound map[int32]int32) wire {
	var w wire
	for _, tc := range in.snapshotConns() {
		if _, ok := bound[tc.id]; ok {
			w.frames += tc.frames.Load()
			w.reads += tc.reads.Load()
			w.writes += tc.writes.Load()
			w.bytes += tc.bytes.Load()
		}
	}
	return w
}

// ---- the traced run ----

// runTraced produces every per-layer metric of one workload: a short
// untraced pass against real processes for the counters read from
// outside, the workload's closed loop replayed against the in-process
// assembly with the recorders on and again with them off, and the
// layers that are timed alone.
func runTraced(e env, w workload, seed uint64, seconds, buildS float64) (*runResult, error) {
	res, err := runWorkload(e, w, seed, 0.4*seconds)
	if err != nil {
		return nil, err
	}
	res.traced = true
	if e.work, err = os.MkdirTemp(e.work, w.name+"-traced-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	k := checks{}
	out := func(name, unit string, v float64) { res.layer[name] = metricValue{value: v, unit: unit} }
	stage := time.Duration(0.2 * seconds * float64(time.Second))
	ckptEvery := stage / 2 // one checkpoint under traffic where dynallocd would take none
	if w.ckptEvery != "" {
		if ckptEvery, err = time.ParseDuration(w.ckptEvery); err != nil {
			return nil, err
		}
	}

	// Recorders on.
	t := newTracer()
	in, err := startInproc(w, filepath.Join(e.work, "traced"), seed, t, ckptEvery)
	if err != nil {
		return nil, err
	}
	bound, err := in.bind()
	if err != nil {
		in.close()
		return nil, err
	}
	clients := make([]client, len(in.clients))
	traced := make([]*tracedClient, len(in.clients))
	for i, c := range in.clients {
		traced[i] = &tracedClient{inner: c, t: t, ln: t.newLane(), idx: int32(i)}
		clients[i] = traced[i]
	}
	before, wire0, t0 := in.ledger(), in.wire(bound), time.Now()
	on := closedLoop(clients, batchOp, stage, 0)
	drain := in.drain()
	wire1 := in.wire(bound)
	k.conserved(w.name+"/traced", before, in.ledger(), on, 0)
	pick := rng.NewStream(seed, 5)
	for _, c := range traced {
		for i := 0; i < probesPerClient; i++ {
			if err := c.probe(pick.Intn(w.shards)); err != nil {
				in.close()
				return nil, fmt.Errorf("probe stage: %w", err)
			}
		}
	}
	tracedWall := time.Since(t0).Seconds()
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("traced assembly: %w", err)
	}
	t.assemble(bound)
	ks := t.stats()

	// Recorders off: the same input, for the overhead and for the
	// allocation count, which recorders would spoil.
	plain, err := startInproc(w, filepath.Join(e.work, "untraced"), seed, nil, ckptEvery)
	if err != nil {
		return nil, err
	}
	plainClients := make([]client, len(plain.clients))
	for i, c := range plain.clients {
		plainClients[i] = c
	}
	before = plain.ledger()
	off := closedLoop(plainClients, batchOp, stage, 0)
	k.conserved(w.name+"/untraced", before, plain.ledger(), off, 0)
	allocs := allocsPerAdmit(plain.clients[0])
	if err := plain.close(); err != nil {
		return nil, fmt.Errorf("untraced assembly: %w", err)
	}

	phasesOn := float64(on.phases)
	frames := float64(wire1.frames - wire0.frames)
	d := w.shards
	if d > 2 {
		d = 2
	}
	expected := float64(on.freesOK) + float64(on.admit.count())*float64(d+1)
	balls := float64(ks[spPolicyPick].n)
	records := float64(ks[spJournalEnqueue].n)
	p50 := func(k spanKind, perUnit float64) float64 {
		if ks[k].count == 0 {
			return 0
		}
		return ks[k].durations.summarize(perUnit).p50
	}
	// The median span's cost per ball, record or byte it carried.
	per := func(l *latencies) float64 {
		if l.count() == 0 {
			return 0
		}
		return median(l.ns)
	}
	out("harness.build_s", "s", buildS)
	out("trace.overhead_frac", "ratio", 1-safeDiv(phasesOn/on.wall.Seconds(), float64(off.phases)/off.wall.Seconds()))
	out("trace.spans", "count", float64(t.spanCount()))
	out("router.admit_call_us", "us", p50(spAdmitCall, 1e3))
	out("router.free_call_us", "us", p50(spFreeCall, 1e3))
	out("router.probe_rtt_us", "us", p50(spProbeCall, 1e3))
	out("router.frames_per_phase", "count", safeDiv(frames, phasesOn))
	out("router.retries", "count", frames-expected)
	out("router.allocs_per_admit", "count", allocs)
	out("dgram.reads_per_frame", "count", safeDiv(float64(wire1.reads-wire0.reads), frames))
	out("dgram.writes_per_frame", "count", safeDiv(float64(wire1.writes-wire0.writes), frames))
	out("dgram.bytes_per_phase", "B", safeDiv(float64(wire1.bytes-wire0.bytes), phasesOn))
	out("dgram.wire_us_per_frame", "us", safeDiv(float64(ks[spAdmitCall].self+ks[spFreeCall].self)/1e3, frames))
	out("shard.service_admit_us", "us", p50(spServiceAdmit, 1e3))
	out("shard.service_free_us", "us", p50(spServiceFree, 1e3))
	out("shard.service_probe_us", "us", p50(spServiceProbe, 1e3))
	out("policy.pick_ns_per_ball", "ns", per(&ks[spPolicyPick].perUnit))
	out("policy.probes_per_ball", "count", safeDiv(float64(in.probes.Load()), balls))
	out("store.admit_ns_per_ball", "ns", per(&ks[spServiceAdmit].selfPerUnit))
	out("store.free_ns_per_ball", "ns", per(&ks[spServiceFree].selfPerUnit))
	out("store.free_bins_scanned", "count", float64(w.n)/float64(2*autoStripes(w.n)))
	out("journal.enqueue_ns_per_record", "ns", per(&ks[spJournalEnqueue].perUnit))
	out("journal.records_per_write", "count", safeDiv(records, float64(ks[spWalWrite].count)))
	out("journal.drain_ms", "ms", float64(drain.Nanoseconds())/1e6)
	out("journal.checkpoint_ms", "ms", p50(spCheckpoint, 1e6))
	out("wal.bytes_per_record", "B", safeDiv(float64(ks[spWalWrite].n), records))
	out("wal.write_ns_per_record", "ns", per(&ks[spWalWrite].perUnit)*walRecordBytes)
	var rotated int64
	for _, sh := range in.shards {
		if sh.fs != nil {
			rotated += sh.fs.segments.Load() - 1 // the first segment is not a rotation
		}
	}
	out("wal.segments_rotated", "count", float64(rotated))
	fsyncs := ks[spWalFsync]
	fsyncs.durations.merge(&ks[spCkptFsync].durations)
	fs := fsyncs.durations.summarize(1e3)
	out("vfs.fsyncs_per_s", "1/s", float64(fsyncs.durations.count())/tracedWall)
	if fsyncs.durations.count() == 0 {
		fs = summary{}
	}
	out("vfs.fsync_p50_us", "us", fs.p50)
	out("vfs.fsync_p99_us", "us", fs.tail)
	out("vfs.write_calls_per_s", "1/s", float64(ks[spWalWrite].count+ks[spCkptWrite].count)/tracedWall)

	// The spans go to disk and out of memory before anything is timed
	// alone: a heap of them would tax every allocation that follows.
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	if err := t.write(filepath.Join(e.out, "trace-"+w.name+".jsonl")); err != nil {
		return nil, err
	}
	t, ks = nil, [numSpanKinds]kindStats{}
	runtime.GC()
	if err := layersAlone(e, w, seed, out); err != nil {
		return nil, err
	}
	res.attempted += on.attempted + off.attempted + k.made
	res.failed += on.failed + off.failed + k.failed
	res.reasons = append(res.reasons, k.reasons...)
	return res, nil
}

// walRecordBytes is the WAL's fixed record size (op, bin, k, seq, crc):
// a write span carries bytes, and this turns its cost per byte into a
// cost per record.
const walRecordBytes = 21

// probesPerClient is how many Session.Probe calls each client makes
// after the traced stage, for router.probe_rtt_us.
const probesPerClient = 500

// allocsPerAdmit counts heap allocations per AdmitBatch(1) round trip,
// client and shard sides together, with nothing else running. The balls
// it admits are freed again afterwards.
func allocsPerAdmit(c *sessionClient) float64 {
	const calls = 1000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	done := 0
	for ; done < calls; done++ {
		if c.admit(1) != nil {
			break
		}
	}
	runtime.ReadMemStats(&m1)
	for i := 0; i < done; i++ {
		c.free() // a failure leaves a ball behind in an assembly about to be closed
	}
	return safeDiv(float64(m1.Mallocs-m0.Mallocs), float64(done))
}

// ---- layers timed alone ----

// scale sizes the layers timed alone; the smoke test shrinks it.
type scale struct {
	codecFrames    int // AppendFrame+DecodeFrame round trips
	appendBatches  int // Log.AppendBatch(512) calls
	checkpointBins int // bins of the checkpoint round trip
	fixtureBins    int // the directory the restore, replay and replica layers read
	fixtureRecords int
	fixtureCrashK  int
	engineTime     time.Duration // per Batcher.Pass loop
}

var fullScale = scale{
	codecFrames: 200_000, appendBatches: 400, checkpointBins: 1 << 20,
	fixtureBins: 1 << 15, fixtureRecords: 1_000_000, fixtureCrashK: 1 << 13,
	engineTime: 400 * time.Millisecond,
}

func layersAlone(e env, w workload, seed uint64, out func(name, unit string, v float64)) error {
	sc := e.scale
	dir := filepath.Join(e.work, "alone")

	// dgram: encode and decode a 16-pair ADMIT_OK.
	pairs := make([]dgram.BinLoad, batchOp)
	for i := range pairs {
		pairs[i] = dgram.BinLoad{Bin: uint32(i * 977), Load: 2}
	}
	payload := dgram.AppendBinLoads(nil, pairs)
	var frame []byte
	t0 := time.Now()
	for i := 0; i < sc.codecFrames; i++ {
		frame = dgram.AppendFrame(frame[:0], dgram.TAdmitOK, payload)
		if _, _, _, err := dgram.DecodeFrame(frame); err != nil {
			return fmt.Errorf("codec: %w", err)
		}
	}
	out("dgram.codec_ns_per_frame", "ns", float64(time.Since(t0).Nanoseconds())/float64(sc.codecFrames))

	// wal: group-commit appends with no fsync.
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "append"), Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	r := rng.NewStream(seed, 6)
	batch := make([]wal.Record, fixtureBatch)
	seq := uint64(0)
	t0 = time.Now()
	for b := 0; b < sc.appendBatches; b++ {
		for i := range batch {
			seq++
			batch[i] = wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(w.n)), K: 1, Seq: seq}
		}
		if err := log.AppendBatch(batch); err != nil {
			log.Close()
			return err
		}
	}
	elapsed := time.Since(t0)
	if err := log.Close(); err != nil {
		return err
	}
	out("wal.append_batch_ns_per_record", "ns", float64(elapsed.Nanoseconds())/float64(seq))

	// checkpoint: one sectioned write and load on the real filesystem.
	const sections = 64
	snap := checkpoint.Snapshot{Seq: 1, Loads: make([]int32, sc.checkpointBins)}
	for i := range snap.Loads {
		snap.Loads[i] = int32(1 + i%3)
	}
	for s := 0; s < sections; s++ {
		lo, hi := s*sc.checkpointBins/sections, (s+1)*sc.checkpointBins/sections
		snap.Sections = append(snap.Sections, checkpoint.Section{Lo: lo, Hi: hi, Watermark: 1})
	}
	ckDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	path, err := checkpoint.WriteFS(vfs.OS, ckDir, snap)
	if err != nil {
		return err
	}
	writeT := time.Since(t0)
	t0 = time.Now()
	back, _, err := checkpoint.LoadLatestFS(vfs.OS, ckDir)
	if err != nil {
		return err
	}
	loadT := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if len(back.Loads) != len(snap.Loads) {
		return fmt.Errorf("checkpoint round trip: %d bins back, wrote %d", len(back.Loads), len(snap.Loads))
	}
	size, err := vfs.OS.Stat(path)
	if err != nil {
		return err
	}
	out("checkpoint.write_ms", "ms", float64(writeT.Nanoseconds())/1e6)
	out("checkpoint.load_ms", "ms", float64(loadT.Nanoseconds())/1e6)
	out("checkpoint.bytes_per_bin", "B", float64(size)/float64(sc.checkpointBins))
	out("checkpoint.alloc_bytes_per_roundtrip", "B", float64(m1.TotalAlloc-m0.TotalAlloc))

	// restore, replay and replication, on the restart fixture.
	fx, err := buildFixture(filepath.Join(dir, "fixture"), sc.fixtureBins, sc.fixtureRecords, sc.fixtureCrashK, seed)
	if err != nil {
		return err
	}
	st := serve.NewStoreShards(fx.n, fixtureStripes)
	rr, err := serve.RestoreFSOpts(st, vfs.OS, fx.dir, serve.RestoreOptions{})
	if err != nil {
		return err
	}
	if got := st.LoadSummary().Total; got != fx.balls {
		return fmt.Errorf("restore of the fixture: %d balls, want %d", got, fx.balls)
	}
	out("restore.checkpoint_ms", "ms", float64(rr.CheckpointNs)/1e6)
	out("restore.replay_ms", "ms", float64(rr.ReplayNs)/1e6)
	out("restore.fence_ms", "ms", float64(rr.FenceNs)/1e6)
	out("restore.workers", "count", float64(rr.Workers))
	out("restore.records_per_s", "1/s", safeDiv(float64(rr.Replayed), float64(rr.ReplayNs)/1e9))

	// The pipeline with the cheapest possible applier — an array, no
	// locks — so what is not apply time is the pipeline's own cost.
	loads := make([]int32, fx.n)
	stripe := (fx.n + fixtureStripes - 1) / fixtureStripes
	var applyNs atomic.Int64
	t0 = time.Now()
	_, err = wal.ReplayPipelineFS(vfs.OS, fx.dir, 0, wal.PipelineOptions{
		Workers:   rr.Workers,
		Partition: func(rec wal.Record) int { return int(rec.Bin) / stripe },
		ApplyBatch: func(_ int, recs []wal.Record) error {
			a0 := time.Now()
			for _, rec := range recs {
				if rec.Op == wal.OpFree {
					loads[rec.Bin] -= rec.K
				} else {
					loads[rec.Bin] += rec.K
				}
			}
			applyNs.Add(time.Since(a0).Nanoseconds())
			return nil
		},
	})
	if err != nil {
		return err
	}
	out("wal.replay_apply_frac", "ratio", float64(applyNs.Load())/float64(time.Since(t0).Nanoseconds()))

	fol, _, err := replica.NewFollower(replica.FollowerConfig{
		Store: serve.NewStoreShards(fx.n, fixtureStripes), Dir: filepath.Join(dir, "follower"), Fsync: wal.FsyncNever,
	})
	if err != nil {
		return err
	}
	sh := replica.NewShipper(replica.ShipperConfig{Dir: fx.dir}, 0)
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	caught, err := sh.Pump(fol.Deliver)
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	sh.Close()
	if cerr := fol.Close(); err == nil {
		err = cerr
	}
	if err != nil || !caught {
		return fmt.Errorf("replica ship: caught up %v: %v", caught, err)
	}
	out("replica.ship_records_per_s", "1/s", float64(fx.records)/elapsed.Seconds())
	out("replica.allocs_per_krecord", "count", float64(m1.Mallocs-m0.Mallocs)/float64(fx.records)*1e3)

	// engine and detector at the workload's n, no network.
	est := serve.NewStoreShards(w.n, autoStripes(w.n))
	est.FillBalanced(w.n)
	pol := serve.NewABKUPolicy(2)
	pass := func() float64 {
		b := serve.NewBatcher(est, pol, process.ScenarioA, driveBatch)
		pr := rng.NewStream(seed, 7)
		var phases int
		t0 := time.Now()
		for time.Since(t0) < sc.engineTime {
			n, _ := b.Pass(pr, driveBatch) // a short pass only on an empty store, which this is not
			phases += n
		}
		return float64(phases) / time.Since(t0).Seconds()
	}
	out("engine.phases_per_s", "1/s", pass())
	target, err := serve.NewTarget(pol, process.ScenarioA, w.n, w.n, 1)
	if err != nil {
		return err
	}
	det := serve.NewDetector(est, target)
	var sweeps latencies
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		det.Check()
		sweeps.add(time.Since(t0).Nanoseconds())
	}
	out("detector.check_us", "us", sweeps.summarize(1e3).p50)
	jlog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "engine"), Fsync: wal.FsyncNever})
	if err != nil {
		return err
	}
	j := serve.NewJournal(est, jlog, 0, serve.JournalOptions{})
	out("engine.journaled_phases_per_s", "1/s", pass())
	return j.Close()
}
