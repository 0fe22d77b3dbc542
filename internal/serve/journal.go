package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/metrics"
	"dynalloc/internal/wal"
)

// JournalOptions tunes the durability bridge.
type JournalOptions struct {
	// Buffer bounds the records that have drawn a seq but have not been
	// handed to the WAL yet (default 4096): seq − appended ≤ Buffer at
	// all times, so it is also the most a kill -9 can cost. They sit in
	// two slabs of this capacity, the one the store's mutation hooks
	// fill and the one the writer is appending. With no room left,
	// mutations block until the writer's appended watermark moves —
	// bounded memory with backpressure, never silent loss. Note the
	// stall mode this implies: there is only no room for long while the
	// writer is stuck inside a WAL write/fsync that neither returns nor
	// errors (a hung disk, not a failing one), and a blocked push holds
	// the store's mutex, which the mutation that made it holds — so a
	// wedged disk stalls every mutator at once, and any Checkpoint
	// waiting for the store. The "WAL errors degrade
	// durability, never availability" guarantee covers errors; for
	// stalls, set StallTimeout.
	Buffer int

	// StallTimeout, when positive, bounds how long a mutation waits for
	// room: a push that finds none within it drops its whole run of
	// records before any of them draws a seq, notes the error (Err) and
	// counts the records in serve.journal.stalled — durability degrades
	// to keep the service available through a hung disk. 0 (the
	// default) keeps the pure backpressure behavior described under
	// Buffer.
	StallTimeout time.Duration

	// KeepCheckpoints is how many checkpoint files Checkpoint retains
	// (default 2). The WAL is truncated only up to the *oldest* retained
	// checkpoint's seq, so a corrupted newest checkpoint can still fall
	// back to the previous one plus a longer replay.
	KeepCheckpoints int

	// SyncEvery, when positive, runs a background ticker that calls
	// Log.Sync — useful with wal.FsyncInterval so an idle service still
	// bounds its loss window (the log itself only syncs on appends).
	SyncEvery time.Duration

	// MaxBatch caps how many records the writer hands to one
	// wal.Log.AppendBatch call (default 512). The writer takes the whole
	// filled slab at once and appends it in chunks of this size — group
	// commit, so under wal.FsyncAlways a burst of mutations shares one
	// fsync instead of paying one each. 1 restores per-record appends.
	MaxBatch int

	// SyncWriter disables the background writer goroutine: records
	// stay in the slab until Drain (or Close), which appends them in
	// the calling goroutine in MaxBatch chunks. This makes batch
	// boundaries a deterministic function of the push/Drain sequence —
	// what the crash-schedule explorer (internal/simfs/explore) needs
	// to replay batched schedules bit-identically from a seed.
	// Single-threaded drivers only, and Buffer must cover every push
	// between two Drains (a push without room would block with nobody
	// draining).
	SyncWriter bool
}

func (o *JournalOptions) fill() {
	if o.Buffer <= 0 {
		o.Buffer = 4096
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
}

// Journal makes a Store durable: it installs itself as the store's
// mutation hook and, under the store's mutex that applied a mutation,
// copies its records — one run per hook call — into a slab, drawing
// their WAL sequence numbers under the slab's mutex. Seq order is
// therefore slab order and log order (a segment never opens past a seq
// still on its way), and checkpoint cuts are exact. A single writer
// goroutine swaps the filled slab for an empty one and appends what it
// took with one wal.Log.AppendBatch call per MaxBatch records — the
// append happens off the allocation hot path, and a burst of mutations
// shares one log mutex acquisition, one buffered write, and (under
// wal.FsyncAlways) one fsync. After each call the writer publishes the
// appended watermark, which is what room for new records (see
// JournalOptions.Buffer) and Drain are defined by.
//
// Checkpoint copies the loads, the counters and the seq under the
// store's mutex, one exact cut: seq assignment happens under the same
// mutex (see Checkpoint). WAL segments fully covered by the oldest
// retained checkpoint are deleted afterwards.
//
// A WAL append error does not stop the service: the first error is
// retained (Err), subsequent records are still handed to the log, and
// the wal.append.errors counter tracks the loss — durability degrades,
// availability does not.
type Journal struct {
	st   *Store
	log  *wal.Log
	opts JournalOptions

	// seq is the last seq drawn. It moves only under mu, as the records
	// that drew it enter q; it is an atomic so that Checkpoint can read
	// it under the store's mutex alone.
	seq atomic.Uint64

	// The hand-off. q is the slab the hooks fill and spare the one the
	// writer last emptied; every seq at or below appended has been
	// handed to the WAL (or its failure noted in Err), so seq − appended
	// records are queued, in q or with the writer.
	mu       sync.Mutex
	q, spare []wal.Record
	appended uint64
	closed   bool
	filled   sync.Cond // q went from empty to not, or closed: the writer parks here
	moved    sync.Cond // appended moved, or closed: pushes short of room and Drain wait here

	wg   sync.WaitGroup
	stop chan struct{} // stops the SyncEvery ticker

	errMu    sync.Mutex
	firstErr error

	ckptMu   sync.Mutex // serializes Checkpoint calls
	maintMu  sync.Mutex
	maintErr error // maintenance failure of the most recent checkpoint
}

// NewJournal wires st to log and starts the writer goroutine. lastSeq
// is the sequence number already covered by the restored state (0 for
// a fresh store); new records continue at lastSeq+1. The journal
// installs itself as the store's hook — call before traffic starts.
func NewJournal(st *Store, log *wal.Log, lastSeq uint64, opts JournalOptions) *Journal {
	opts.fill()
	j := &Journal{
		st:       st,
		log:      log,
		opts:     opts,
		q:        make([]wal.Record, 0, opts.Buffer),
		spare:    make([]wal.Record, 0, opts.Buffer),
		appended: lastSeq,
		stop:     make(chan struct{}),
	}
	j.seq.Store(lastSeq)
	j.filled.L, j.moved.L = &j.mu, &j.mu
	if !opts.SyncWriter {
		j.wg.Add(1)
		go j.writer()
	}
	if opts.SyncEvery > 0 {
		j.wg.Add(1)
		go j.syncLoop()
	}
	st.SetHook(j)
	return j
}

// writer parks until the hooks have put something in the slab, appends
// it, and exits once the journal is closed and the slab empty.
func (j *Journal) writer() {
	defer j.wg.Done()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		for len(j.q) == 0 && !j.closed {
			j.filled.Wait()
		}
		if len(j.q) == 0 {
			return
		}
		j.flush()
	}
}

// flush, entered and left with mu held, takes the slab the hooks have
// filled, leaves them the empty one, and appends what it took in
// MaxBatch chunks with mu released. An error fails the whole chunk:
// the first one is retained for Err and every record of the chunk is
// counted in wal.append.errors — none of them may be considered durable
// (a torn prefix can still be on disk; replay recovers it like any torn
// tail). Either way the chunk is settled, and appended moves past it.
func (j *Journal) flush() {
	slab := j.q
	j.q, j.spare = j.spare, nil
	for rest := slab; len(rest) > 0; {
		batch := rest[:min(len(rest), j.opts.MaxBatch)]
		rest = rest[len(batch):]
		j.mu.Unlock()
		if err := j.log.AppendBatch(batch); err != nil {
			j.noteErr(err)
			metrics.AddCounter("wal.append.errors", int64(len(batch)))
		}
		j.mu.Lock()
		j.appended = batch[len(batch)-1].Seq
		j.moved.Broadcast()
	}
	j.spare = slab[:0]
}

// syncLoop bounds the fsync-interval loss window while idle.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			if err := j.log.Sync(); err != nil {
				j.noteErr(err)
			}
		}
	}
}

func (j *Journal) noteErr(err error) {
	j.errMu.Lock()
	if j.firstErr == nil {
		j.firstErr = err
	}
	j.errMu.Unlock()
}

// Err returns the first WAL write error, if any.
func (j *Journal) Err() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.firstErr
}

// LastSeq returns the seq of the most recently enqueued record.
func (j *Journal) LastSeq() uint64 { return j.seq.Load() }

// push journals one run — the records (op, bins[i], k), in order —
// taking mu once: wait for room, draw the run's seq range, copy it
// into the slab, and wake the writer if the slab was empty. It runs
// under the store's mutex (see StoreHook; an AdmitBatch is one run, a
// section's departures another), so seq order equals mutation order,
// and a Checkpoint holding the store's mutex observes a seq that covers
// exactly the applied records. With no StallTimeout a push without
// room blocks here — holding the store's mutex — until the
// writer's watermark moves (see JournalOptions.Buffer for what that
// stall mode means). A run longer than Buffer goes in Buffer-sized
// pieces.
func (j *Journal) push(op wal.Op, bins []int, k int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(bins) > 0 {
		n := min(len(bins), j.opts.Buffer)
		if !j.closed && !j.hasRoom(n) {
			j.waitRoom(n)
		}
		switch {
		case j.closed:
			metrics.AddCounter("serve.journal.dropped", int64(len(bins)))
			return
		case !j.hasRoom(n):
			j.noteErr(fmt.Errorf("serve: journal stalled for %v; %d records after seq %d dropped", j.opts.StallTimeout, len(bins), j.seq.Load()))
			metrics.AddCounter("serve.journal.stalled", int64(len(bins)))
			return
		}
		if len(j.q) == 0 {
			j.filled.Signal()
		}
		seq := j.seq.Load()
		for _, bin := range bins[:n] {
			seq++
			j.q = append(j.q, wal.Record{Op: op, Bin: uint32(bin), K: int32(k), Seq: seq})
		}
		j.seq.Store(seq)
		bins = bins[n:]
	}
}

// hasRoom reports, with mu held, whether n more records fit the bound.
func (j *Journal) hasRoom(n int) bool {
	return j.seq.Load()-j.appended+uint64(n) <= uint64(j.opts.Buffer)
}

// waitRoom sleeps, with mu held, until n more records fit, the journal
// closes, or StallTimeout (when set) runs out; the caller checks which.
func (j *Journal) waitRoom(n int) {
	var deadline time.Time
	if d := j.opts.StallTimeout; d > 0 {
		deadline = time.Now().Add(d)
		defer time.AfterFunc(d, func() {
			j.mu.Lock()
			j.moved.Broadcast()
			j.mu.Unlock()
		}).Stop()
	}
	for !j.closed && !j.hasRoom(n) && (deadline.IsZero() || time.Now().Before(deadline)) {
		j.moved.Wait()
	}
}

// Drain blocks until every record enqueued before the call has been
// handed to the WAL (appended, or its failure recorded in Err): until
// the appended watermark reaches the seq drawn last. With traffic
// quiesced this makes the writer goroutine's work observable: after
// Drain, LastSeq's record has reached the log — which is what the
// deterministic crash-schedule simulations need between steps, and what
// a graceful flush wants before a checkpoint. Waiters sleep on the
// condition variable the writer signals; they don't spin while the
// writer sits inside a slow fsync.
//
// Under SyncWriter there is no writer goroutine: Drain itself appends
// everything queued, in MaxBatch chunks, in the calling goroutine.
func (j *Journal) Drain() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.opts.SyncWriter {
		j.flush()
	}
	for target := j.seq.Load(); j.appended < target; {
		j.moved.Wait()
	}
}

// OnAllocRun implements StoreHook: one admission batch, pushed as one
// run.
func (j *Journal) OnAllocRun(bins []int) { j.push(wal.OpAlloc, bins, 1) }

// OnAlloc is a run of one. The store never calls it (admissions arrive
// through OnAllocRun); the frozen benchmark harness, which forwards it
// from its BatchStoreHook wrapper, does.
func (j *Journal) OnAlloc(bin int) { j.push(wal.OpAlloc, []int{bin}, 1) }

// OnFree implements StoreHook.
func (j *Journal) OnFree(bin int) { j.push(wal.OpFree, []int{bin}, 1) }

// onFreeRun takes a section's departures as one run (see freeRunHook).
func (j *Journal) onFreeRun(bins []int) { j.push(wal.OpFree, bins, 1) }

// OnCrash implements StoreHook.
func (j *Journal) OnCrash(bin, k int) { j.push(wal.OpCrash, []int{bin}, k) }

// Checkpoint captures a snapshot of the store, persists it, prunes old
// checkpoints and truncates WAL segments the oldest retained checkpoint
// covers. It returns the snapshot and the file it was written to. Only
// a failure to persist the snapshot is an error: once the snapshot file
// is durable, pruning and truncation are maintenance, and their failure
// (say, one unremovable old file) is recorded in MaintErr and retried
// by the next checkpoint instead of being returned — a successful
// checkpoint must never look fatal.
//
// The cut is one hold of the store's mutex: the loads, the clocks and
// j.seq are read under it, and every record is pushed under it right
// after its mutation, so Snapshot.Seq covers exactly the copied state.
// The snapshot is still written as one section per stripe — each at
// watermark Seq — so that it encodes and decodes in parallel.
func (j *Journal) Checkpoint() (checkpoint.Snapshot, string, error) {
	return j.checkpoint(true)
}

// CheckpointDeferMaint is Checkpoint without the prune-and-truncate
// pass: it returns as soon as the snapshot is durable, and the caller
// runs Maintain later. The boot sequence uses it so that unlinking the
// segments the boot checkpoint made garbage — after a long replay, a
// scan of the whole log — happens behind the first reply.
func (j *Journal) CheckpointDeferMaint() (checkpoint.Snapshot, string, error) {
	return j.checkpoint(false)
}

func (j *Journal) checkpoint(maintain bool) (checkpoint.Snapshot, string, error) {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()

	st := j.st
	loads := make([]int32, st.n)
	t0 := time.Now()
	st.mu.Lock()
	for b := range loads {
		loads[b] = st.loads[b].Load()
	}
	snap := checkpoint.Snapshot{Seq: j.seq.Load(), Allocs: st.allocs.Load(), Frees: st.frees.Load(), Loads: loads}
	st.mu.Unlock()
	metrics.ObserveTimer("checkpoint.copy_ns", time.Since(t0))
	for i := range st.shards {
		if sh := &st.shards[i]; sh.lo < sh.hi { // skip empty trailing stripes (shards > bins)
			snap.Sections = append(snap.Sections, checkpoint.Section{Lo: sh.lo, Hi: sh.hi, Watermark: snap.Seq})
		}
	}

	path, err := checkpoint.WriteFS(j.log.FS(), j.log.Dir(), snap)
	if err != nil {
		return snap, "", err
	}
	if maintain {
		j.maintain()
	}
	return snap, path, nil
}

// Maintain runs the pass CheckpointDeferMaint left out and returns how
// many WAL segments it removed; a failure is reported by MaintErr. It
// takes its turn with checkpoints (whose own pass covers all it would
// do: running late or never costs disk space, not state), and after
// Close, which waits for a pass in flight, it does nothing.
func (j *Journal) Maintain() int {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	j.mu.Lock()
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return 0
	}
	return j.maintain()
}

// maintain prunes old checkpoints and truncates fully-covered WAL
// segments after a successful snapshot write. A failure is recorded
// (MaintErr, checkpoint.maintenance.errors) rather than returned:
// durability is already intact and the next checkpoint retries.
func (j *Journal) maintain() (segments int) {
	err := func() error {
		if _, err := checkpoint.PruneFS(j.log.FS(), j.log.Dir(), j.opts.KeepCheckpoints); err != nil {
			return err
		}
		metas, err := checkpoint.ListFS(j.log.FS(), j.log.Dir())
		if err != nil {
			return err
		}
		if len(metas) > 0 {
			segments, err = j.log.TruncateThrough(metas[0].Seq)
		}
		return err
	}()
	j.maintMu.Lock()
	j.maintErr = err
	j.maintMu.Unlock()
	if err != nil {
		metrics.AddCounter("checkpoint.maintenance.errors", 1)
	}
	return segments
}

// MaintErr returns the maintenance (prune/truncate) failure of the
// most recent Checkpoint, nil when it fully succeeded.
func (j *Journal) MaintErr() error {
	j.maintMu.Lock()
	defer j.maintMu.Unlock()
	return j.maintErr
}

// Close detaches the journal from the store, flushes the queue, and
// closes the WAL (fsyncing the tail unless the policy is never).
// Callers quiesce traffic first; mutations racing Close — one blocked
// for want of room included, which wakes here — are counted in
// serve.journal.dropped rather than lost silently, and none reaches
// the slab once closed is set, so nothing is appended to a closed log.
// A checkpoint or maintenance pass in flight finishes first.
func (j *Journal) Close() error {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	if j.opts.SyncWriter {
		j.flush() // no writer goroutine: settle the queued tail here
	}
	j.filled.Signal()
	j.moved.Broadcast()
	j.mu.Unlock()
	close(j.stop)
	j.wg.Wait()
	j.st.SetHook(nil)
	if err := j.log.Close(); err != nil {
		return err
	}
	return j.Err()
}
