package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/dgram"
	"dynalloc/internal/metrics"
	"dynalloc/internal/serve"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// ErrPrimaryAlive is returned by Promote when the subscription still
// has a live primary and force was not set — the split-brain guard.
var ErrPrimaryAlive = errors.New("replica: primary still alive (use force to fence and take over)")

// ErrPromoted is returned by Deliver and Run after promotion: the
// follower has become a primary and applies nothing further.
var ErrPromoted = errors.New("replica: already promoted")

// FollowerConfig configures a hot standby.
type FollowerConfig struct {
	// Store is the warm store the stream is continuously applied to.
	// It must have no journal hook installed (the follower IS the
	// journal until promotion) and no traffic until Promote returns.
	Store *serve.Store
	// FS and Dir locate the follower's own WAL + checkpoint directory.
	FS  vfs.FS
	Dir string
	// Fsync/SegmentBytes configure the follower's local log copy
	// (defaults mirror wal.Options).
	Fsync        wal.FsyncPolicy
	SegmentBytes int64
	// CheckpointEvery, when positive, writes a local checkpoint after
	// that many applied records, bounding the replay a follower restart
	// (or the promotion hand-off) pays. 0 checkpoints only on snapshot.
	CheckpointEvery int64
	// HeartbeatTimeout is how long the subscription may be silent
	// before the primary is presumed dead (default 2s). Promote without
	// force refuses while the subscription is within this window.
	HeartbeatTimeout time.Duration
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryEvery is the redial backoff (default 250ms).
	RetryEvery time.Duration
}

func (c *FollowerConfig) fill() error {
	if c.Store == nil {
		return errors.New("replica: follower needs a store")
	}
	if c.Dir == "" {
		return errors.New("replica: follower needs a directory")
	}
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryEvery <= 0 {
		c.RetryEvery = 250 * time.Millisecond
	}
	return nil
}

// Status is a point-in-time view of the follower, served by the
// daemon's /state endpoint in replica mode.
type Status struct {
	AppliedSeq   uint64 `json:"applied_seq"`
	PrimarySeq   uint64 `json:"primary_seq"`
	LagSeq       uint64 `json:"lag_seq"`
	LagBytes     uint64 `json:"lag_bytes"`
	Connected    bool   `json:"connected"`
	Promoted     bool   `json:"promoted"`
	SkippedFrees int64  `json:"skipped_frees"`
	Snapshots    int64  `json:"snapshots"`
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	LastSeq      uint64 // seq the promoted state is consistent with
	Forced       bool   // the primary was fenced rather than observed dead
	SkippedFrees int64
}

// Follower is a hot standby: it persists the primary's record stream
// into its own WAL directory, applies every record to a warm store as
// it arrives, and tracks how far behind the primary it is
// (replica.lag.{seq,bytes}). Deliver is the single-writer core —
// called either by Run's connection loop or directly by the
// deterministic replication schedules — and Promote turns the standby
// into a primary-ready state: stream stopped, local log sealed and
// closed, ready for a fresh journal + detector to re-arm on top.
type Follower struct {
	cfg FollowerConfig
	log *wal.Log

	mu           sync.Mutex
	appliedSeq   uint64
	primarySeq   uint64
	lastContact  time.Time
	connected    bool
	promoted     bool
	closed       bool
	conn         net.Conn // live subscription, for the promote fence
	skippedFrees int64
	snapshots    int64
	sinceCkpt    int64
	promoteOK    chan uint64 // signalled by Deliver on TPromoteOK

	recbuf []byte // grow-only frame encode scratch (subscribe/promote)
	recs   []wal.Record
}

// NewFollower restores the follower's warm store from its own
// directory (checkpoint + local WAL suffix — exactly a restart's
// restore) and opens its local log for the stream copy. The returned
// follower resumes its subscription at the restored seq.
func NewFollower(cfg FollowerConfig) (*Follower, *serve.RestoreResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	res, err := serve.RestoreFSOpts(cfg.Store, cfg.FS, cfg.Dir, serve.RestoreOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("replica: restore follower state: %w", err)
	}
	if res.Restored && res.CheckpointPath == "" {
		// A follower's durable state is always rooted in a checkpoint —
		// every subscription starts from a bootstrap SNAPSHOT persisted
		// before any record. Records with no checkpoint mean the base
		// image was lost (a lying fsync at a power cut): the replayed
		// state is records-on-empty, silently wrong. Discard it and
		// re-bootstrap from seq 0.
		if err := cfg.Store.Restore(make([]int32, cfg.Store.N()), 0, 0); err != nil {
			return nil, nil, err
		}
		segs, err := wal.SegmentsFS(cfg.FS, cfg.Dir)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range segs {
			if err := cfg.FS.Remove(s.Path); err != nil {
				return nil, nil, fmt.Errorf("replica: drop rootless segment: %w", err)
			}
		}
		if len(segs) > 0 {
			if err := cfg.FS.SyncDir(cfg.Dir); err != nil {
				return nil, nil, err
			}
		}
		metrics.AddCounter("replica.rootless_restores", 1)
		res = serve.RestoreResult{}
	}
	log, err := wal.Open(wal.Options{
		Dir:          cfg.Dir,
		FS:           cfg.FS,
		Fsync:        cfg.Fsync,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	f := &Follower{
		cfg:        cfg,
		log:        log,
		appliedSeq: res.LastSeq,
		primarySeq: res.LastSeq,
		promoteOK:  make(chan uint64, 1),
	}
	return f, &res, nil
}

// AppliedSeq returns the highest seq applied to the warm store.
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedSeq
}

// Status returns the follower's current replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	var lag uint64
	if f.primarySeq > f.appliedSeq {
		lag = f.primarySeq - f.appliedSeq
	}
	return Status{
		AppliedSeq:   f.appliedSeq,
		PrimarySeq:   f.primarySeq,
		LagSeq:       lag,
		LagBytes:     lag * wal.RecordSize,
		Connected:    f.connected,
		Promoted:     f.promoted,
		SkippedFrees: f.skippedFrees,
		Snapshots:    f.snapshots,
	}
}

// publishLag refreshes the replication-lag gauges. Callers hold f.mu.
func (f *Follower) publishLag() {
	var lag uint64
	if f.primarySeq > f.appliedSeq {
		lag = f.primarySeq - f.appliedSeq
	}
	metrics.SetGauge("replica.lag.seq", float64(lag))
	metrics.SetGauge("replica.lag.bytes", float64(lag*wal.RecordSize))
}

// Deliver applies one stream frame: the follower's single-writer core.
// It persists records to the local log BEFORE applying them to the
// warm store, so the store never reflects state the follower could not
// reproduce from its own disk.
func (f *Follower) Deliver(t dgram.Type, payload []byte) error {
	f.mu.Lock()
	if f.promoted || f.closed {
		f.mu.Unlock()
		return ErrPromoted
	}
	f.mu.Unlock()

	switch t {
	case dgram.TSegHdr:
		if _, err := dgram.DecodeSegHdr(payload); err != nil {
			return err
		}
		// Mirror the primary's rotation point. The local segment may
		// carry a different first-seq name (we joined mid-segment);
		// what matters is that boundaries exist so truncation and
		// catch-up reads stay incremental.
		return f.log.Seal()

	case dgram.TRecBatch:
		var err error
		f.recs, err = dgram.DecodeRecBatch(payload, f.recs[:0])
		if err != nil {
			return err
		}
		return f.applyBatch(f.recs)

	case dgram.THeartbeat:
		hb, err := dgram.DecodeHeartbeat(payload)
		if err != nil {
			return err
		}
		f.mu.Lock()
		if hb.LastSeq > f.primarySeq {
			f.primarySeq = hb.LastSeq
		}
		f.lastContact = time.Now()
		f.publishLag()
		f.mu.Unlock()
		return nil

	case dgram.TSnapshot:
		snap, err := dgram.DecodeSnapshotMsg(payload, nil)
		if err != nil {
			return err
		}
		return f.applySnapshot(snap)

	case dgram.TPromoteOK:
		ok, err := dgram.DecodePromoteOK(payload)
		if err != nil {
			return err
		}
		select {
		case f.promoteOK <- ok.LastSeq:
		default:
		}
		return nil
	}
	return fmt.Errorf("replica: unexpected stream frame %v", t)
}

// applyBatch persists and applies one record batch.
func (f *Follower) applyBatch(recs []wal.Record) error {
	f.mu.Lock()
	applied := f.appliedSeq
	f.mu.Unlock()

	// The stream can legitimately resend records we already hold (a
	// snapshot resync replays the tail from the snapshot seq); skip
	// them rather than double-applying.
	fresh := recs[:0]
	for _, r := range recs {
		if r.Seq > applied {
			fresh = append(fresh, r)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := f.log.AppendBatch(fresh); err != nil {
		return fmt.Errorf("replica: persist batch: %w", err)
	}
	// One batch-applier call instead of a per-record apply loop: one
	// hold of the store's mutex, records in file order (see
	// serve.ApplyRecords).
	skipped, err := serve.ApplyRecords(f.cfg.Store, fresh)
	if err != nil {
		return fmt.Errorf("replica: apply: %w", err)
	}
	maxSeq := applied
	for _, r := range fresh {
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	metrics.AddCounter("replica.applied.records", int64(len(fresh)))

	f.mu.Lock()
	f.appliedSeq = maxSeq
	if maxSeq > f.primarySeq {
		f.primarySeq = maxSeq
	}
	f.skippedFrees += skipped
	f.lastContact = time.Now()
	f.sinceCkpt += int64(len(fresh))
	needCkpt := f.cfg.CheckpointEvery > 0 && f.sinceCkpt >= f.cfg.CheckpointEvery
	if needCkpt {
		f.sinceCkpt = 0
	}
	f.publishLag()
	f.mu.Unlock()

	if needCkpt {
		if err := f.checkpointLocked(); err != nil {
			// Local checkpoint failure degrades restart speed, not
			// correctness: the log copy is intact.
			metrics.AddCounter("replica.checkpoint.errors", 1)
		}
	}
	return nil
}

// applySnapshot resets the follower to a full image: restore the warm
// store, persist the image as a local checkpoint, and drop every local
// segment — the stream re-sends everything after the snapshot seq, and
// a snapshot means the local log cannot be trusted to connect to it.
func (f *Follower) applySnapshot(snap dgram.SnapshotMsg) error {
	if err := f.cfg.Store.Restore(snap.Loads, snap.Allocs, snap.Frees); err != nil {
		return fmt.Errorf("replica: apply snapshot: %w", err)
	}
	if err := f.log.Seal(); err != nil {
		return fmt.Errorf("replica: seal before snapshot: %w", err)
	}
	if _, err := checkpoint.WriteFS(f.cfg.FS, f.cfg.Dir, checkpoint.Snapshot{
		Seq:    snap.Seq,
		Allocs: snap.Allocs,
		Frees:  snap.Frees,
		Loads:  snap.Loads,
	}); err != nil {
		return fmt.Errorf("replica: persist snapshot: %w", err)
	}
	// Remove every local artifact past the snapshot: a mid-stream
	// snapshot means local history cannot be trusted to connect to the
	// primary's, so checkpoints claiming seqs beyond it are from a dead
	// timeline — a later restore must never prefer them.
	metas, err := checkpoint.ListFS(f.cfg.FS, f.cfg.Dir)
	if err != nil {
		return err
	}
	for _, m := range metas {
		if m.Seq > snap.Seq {
			if err := f.cfg.FS.Remove(m.Path); err != nil {
				return fmt.Errorf("replica: drop dead-timeline checkpoint: %w", err)
			}
		}
	}
	// And every local segment: pre-snapshot ones are covered by the
	// checkpoint, post-snapshot ones may be dead-timeline too.
	segs, err := wal.SegmentsFS(f.cfg.FS, f.cfg.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := f.cfg.FS.Remove(s.Path); err != nil {
			return fmt.Errorf("replica: drop superseded segment: %w", err)
		}
	}
	if len(segs) > 0 {
		if err := f.cfg.FS.SyncDir(f.cfg.Dir); err != nil {
			return fmt.Errorf("replica: drop superseded segments: %w", err)
		}
	}
	f.mu.Lock()
	f.appliedSeq = snap.Seq
	if snap.Seq > f.primarySeq {
		f.primarySeq = snap.Seq
	}
	f.lastContact = time.Now()
	f.snapshots++
	f.sinceCkpt = 0
	f.publishLag()
	f.mu.Unlock()
	metrics.AddCounter("replica.snapshots", 1)
	return nil
}

// checkpointLocked writes a local checkpoint of the warm store and
// prunes covered segments. Deliver is single-goroutine and the store
// takes no other traffic, so a plain read is consistent.
func (f *Follower) checkpointLocked() error {
	st := f.cfg.Store
	loads := make([]int32, st.N())
	for b := range loads {
		loads[b] = int32(st.Load(b))
	}
	f.mu.Lock()
	seq := f.appliedSeq
	f.mu.Unlock()
	if _, err := checkpoint.WriteFS(f.cfg.FS, f.cfg.Dir, checkpoint.Snapshot{
		Seq:    seq,
		Allocs: st.Allocs(),
		Frees:  st.Frees(),
		Loads:  loads,
	}); err != nil {
		return err
	}
	_, err := serve.RetainCheckpoints(f.log)
	return err
}

// Close shuts an un-promoted follower down cleanly: drops the live
// subscription (cancel Run's context first for an orderly exit) and
// closes the local log. No-op after Promote — promotion already
// sealed and closed the log.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed || f.promoted {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	if c := f.conn; c != nil {
		c.Close()
	}
	f.mu.Unlock()
	return f.log.Close()
}

// Run dials addr, subscribes from the follower's applied seq, and
// applies the stream until ctx is cancelled or the follower is
// promoted, redialing on connection loss. It returns nil after
// promotion or cancellation.
func (f *Follower) Run(ctx context.Context, addr string) error {
	for {
		if err := f.runOnce(ctx, addr); err != nil {
			if errors.Is(err, ErrPromoted) {
				return nil
			}
			metrics.AddCounter("replica.stream.disconnects", 1)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(f.cfg.RetryEvery):
		}
		f.mu.Lock()
		promoted := f.promoted
		f.mu.Unlock()
		if promoted {
			return nil
		}
	}
}

// runOnce is one subscription: dial, SUBSCRIBE, apply frames until the
// connection breaks, ctx ends, or promotion stops the stream.
func (f *Follower) runOnce(ctx context.Context, addr string) error {
	d := net.Dialer{Timeout: f.cfg.DialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()

	fw := dgram.NewWriter(c)
	f.recbuf = dgram.AppendSubscribeReq(f.recbuf[:0], dgram.SubscribeReq{AfterSeq: f.AppliedSeq()})
	if err := fw.WriteFrame(dgram.TSubscribe, f.recbuf); err != nil {
		return err
	}

	f.mu.Lock()
	f.connected = true
	f.conn = c
	f.lastContact = time.Now()
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.conn = nil
		f.mu.Unlock()
	}()

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-stop:
		}
	}()

	fr := dgram.NewReader(c)
	for {
		// The heartbeat cadence bounds stream silence; a vanished
		// primary surfaces as a read timeout, flipping lastContact
		// staleness for the split-brain guard.
		c.SetReadDeadline(time.Now().Add(f.cfg.HeartbeatTimeout))
		t, payload, err := fr.ReadFrame()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if err := f.Deliver(t, payload); err != nil {
			return err
		}
	}
}

// Promote turns the standby into a primary-ready state. Without force
// it refuses while the subscription has heard from the primary within
// HeartbeatTimeout (split-brain guard). With force against a live
// primary it first sends a PROMOTE fence — the primary quiesces,
// ships its tail, and acknowledges with its final durable seq — and
// waits (bounded) until that seq is applied locally. Either way the
// stream is then stopped and the local log sealed and closed; the
// caller re-arms a journal + detector on the follower's directory and
// starts serving.
func (f *Follower) Promote(force bool) (PromoteResult, error) {
	f.mu.Lock()
	if f.promoted {
		r := PromoteResult{LastSeq: f.appliedSeq, SkippedFrees: f.skippedFrees}
		f.mu.Unlock()
		return r, nil
	}
	if f.closed {
		f.mu.Unlock()
		return PromoteResult{}, errors.New("replica: follower closed")
	}
	alive := f.connected && time.Since(f.lastContact) < f.cfg.HeartbeatTimeout
	conn := f.conn
	f.mu.Unlock()

	if alive && !force {
		return PromoteResult{}, ErrPrimaryAlive
	}
	forced := alive && force
	if forced && conn != nil {
		// Fence the primary: best effort — if the primary dies mid-
		// handshake we promote anyway (it is, after all, dead).
		f.fence(conn)
	}

	f.mu.Lock()
	f.promoted = true
	if c := f.conn; c != nil {
		c.Close() // unblocks runOnce; Run exits on the promoted flag
	}
	res := PromoteResult{LastSeq: f.appliedSeq, Forced: forced, SkippedFrees: f.skippedFrees}
	f.mu.Unlock()

	if err := f.log.Close(); err != nil {
		return res, fmt.Errorf("replica: seal local log: %w", err)
	}
	metrics.AddCounter("replica.promotions", 1)
	return res, nil
}

// fence sends PROMOTE to the live primary and waits (bounded by
// HeartbeatTimeout) for its final seq to be shipped and applied.
func (f *Follower) fence(conn net.Conn) {
	var buf []byte
	buf = dgram.AppendPromoteReq(buf, dgram.PromoteReq{Force: true})
	fw := dgram.NewWriter(conn)
	if err := fw.WriteFrame(dgram.TPromote, buf); err != nil {
		return
	}
	deadline := time.NewTimer(f.cfg.HeartbeatTimeout)
	defer deadline.Stop()
	var finalSeq uint64
	select {
	case finalSeq = <-f.promoteOK:
	case <-deadline.C:
		return
	}
	// PROMOTE_OK arrives after the primary ships its tail, and Deliver
	// processes frames in order, so by the time the ack is visible the
	// tail is normally applied; poll briefly for the race.
	for i := 0; i < 100 && f.AppliedSeq() < finalSeq; i++ {
		time.Sleep(5 * time.Millisecond)
	}
}
