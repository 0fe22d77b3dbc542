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
	// Buffer is the bounded record queue between the store's mutation
	// hooks and the WAL writer goroutine (default 4096). When the queue
	// is full, mutations block until the writer drains — bounded memory
	// with backpressure, never silent loss. Note the stall mode this
	// implies: the queue only stays full while the writer is stuck
	// inside a WAL write/fsync that neither returns nor errors (a hung
	// disk, not a failing one), and a blocked push holds its shard's
	// lock — so a wedged disk stalls every mutation on that shard and
	// any Checkpoint waiting to lock all shards. The "WAL errors
	// degrade durability, never availability" guarantee covers errors;
	// for stalls, set StallTimeout.
	Buffer int

	// StallTimeout, when positive, bounds how long a mutation waits on
	// a full queue: a push that cannot enqueue within it drops the
	// record, notes the error (Err) and counts it in
	// serve.journal.stalled — durability degrades to keep the service
	// available through a hung disk. 0 (the default) keeps the pure
	// backpressure behavior described under Buffer.
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

	// MaxBatch caps how many queued records the writer hands to one
	// wal.Log.AppendBatch call (default 512). The writer drains the
	// queue greedily: it blocks for the first record, then takes
	// whatever else is already queued up to this cap — group commit, so
	// under wal.FsyncAlways a burst of mutations shares one fsync
	// instead of paying one each. 1 restores per-record appends.
	MaxBatch int

	// SyncWriter disables the background writer goroutine: records
	// queue up until Drain (or Close), which appends them in the
	// calling goroutine in MaxBatch chunks. This makes batch boundaries
	// a deterministic function of the push/Drain sequence — what the
	// crash-schedule explorer (internal/simfs/explore) needs to replay
	// batched schedules bit-identically from a seed. Single-threaded
	// drivers only, and Buffer must cover every push between two
	// Drains (a full queue would block with nobody draining).
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
// mutation hook, assigns every mutation a WAL sequence number under
// the shard lock (so checkpoint cuts are exact), and hands the record
// to a single writer goroutine through a bounded channel — the append
// happens off the allocation hot path. The writer group-commits: it
// drains the channel greedily into batches of up to MaxBatch records
// and appends each batch with one wal.Log.AppendBatch call, so a
// burst of mutations shares one mutex acquisition, one buffered
// write, and (under wal.FsyncAlways) one fsync.
//
// Checkpoint walks the lock stripes one at a time — no stop-the-world
// cut — capturing each stripe's loads, counters, and a per-stripe seq
// watermark under that stripe's lock alone; the cut is exact because
// seq assignment happens under the same locks (see Checkpoint for the
// argument). WAL segments fully covered by the oldest retained
// checkpoint are deleted afterwards.
//
// A WAL append error does not stop the service: the first error is
// retained (Err), subsequent records are still drained (and counted
// dropped once the log is closed), and the wal.append.errors counter
// tracks the loss — durability degrades, availability does not.
type Journal struct {
	st   *Store
	log  *wal.Log
	opts JournalOptions

	seq     atomic.Uint64
	pending atomic.Int64 // records enqueued but not yet handed to the WAL

	// drainMu/drainCond let Drain sleep until pending reaches zero
	// instead of burning a core — the writer can sit inside a slow
	// fsync for milliseconds.
	drainMu   sync.Mutex
	drainCond *sync.Cond

	batchPool sync.Pool // *[]wal.Record, cap MaxBatch, recycled per batch

	closeMu sync.RWMutex // held (read) across every push; (write) by Close
	closed  bool
	ch      chan wal.Record
	wg      sync.WaitGroup
	stop    chan struct{} // stops the SyncEvery ticker

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
		st:   st,
		log:  log,
		opts: opts,
		ch:   make(chan wal.Record, opts.Buffer),
		stop: make(chan struct{}),
	}
	j.seq.Store(lastSeq)
	j.drainCond = sync.NewCond(&j.drainMu)
	j.batchPool.New = func() any {
		b := make([]wal.Record, 0, j.opts.MaxBatch)
		return &b
	}
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

// writer drains the record queue into the WAL in batches: block for
// one record, then greedily take whatever else is already queued (up
// to MaxBatch) and hand the whole slice to AppendBatch — so one fsync
// covers the burst (group commit) and the mutex/flush overhead is paid
// once per batch instead of once per record.
func (j *Journal) writer() {
	defer j.wg.Done()
	for rec := range j.ch {
		bp := j.batchPool.Get().(*[]wal.Record)
		batch := j.fill(append((*bp)[:0], rec))
		j.appendBatch(batch)
		*bp = batch[:0]
		j.batchPool.Put(bp)
	}
}

// fill takes queued records without blocking until batch reaches
// MaxBatch or the queue is momentarily empty (or closed).
func (j *Journal) fill(batch []wal.Record) []wal.Record {
	for len(batch) < j.opts.MaxBatch {
		select {
		case rec, ok := <-j.ch:
			if !ok {
				return batch
			}
			batch = append(batch, rec)
		default:
			return batch
		}
	}
	return batch
}

// appendBatch hands one batch to the WAL and settles its accounting.
// An error fails the whole batch: the first one is retained for Err
// and every record of the batch is counted in wal.append.errors —
// none of them may be considered durable (a torn prefix can still be
// on disk; replay recovers it like any torn tail). pending is
// decremented by the batch size afterwards, so Drain's contract — every
// record enqueued before the call has been handed to the WAL — is
// unchanged by batching.
func (j *Journal) appendBatch(batch []wal.Record) {
	if err := j.log.AppendBatch(batch); err != nil {
		j.noteErr(err)
		metrics.AddCounter("wal.append.errors", int64(len(batch)))
	}
	j.decPending(int64(len(batch)))
}

// decPending subtracts settled records from pending and wakes Drain
// waiters when the queue fully settles.
func (j *Journal) decPending(n int64) {
	if j.pending.Add(-n) == 0 {
		j.drainMu.Lock()
		j.drainCond.Broadcast()
		j.drainMu.Unlock()
	}
}

// flushQueued appends everything currently queued, in MaxBatch chunks,
// in the calling goroutine — the SyncWriter drain path (also used by
// Close to settle the tail once the channel is closed).
func (j *Journal) flushQueued() {
	for {
		select {
		case rec, ok := <-j.ch:
			if !ok {
				return
			}
			bp := j.batchPool.Get().(*[]wal.Record)
			batch := j.fill(append((*bp)[:0], rec))
			j.appendBatch(batch)
			*bp = batch[:0]
			j.batchPool.Put(bp)
		default:
			return
		}
	}
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

// push assigns the next seq and enqueues one record. It runs under the
// mutating shard's lock (see StoreHook), so seq order equals mutation
// order per bin, and a Checkpoint holding every shard lock observes a
// stable seq. With no StallTimeout a full queue blocks here —
// holding that shard lock — until the writer drains (see
// JournalOptions.Buffer for what that stall mode means).
func (j *Journal) push(op wal.Op, bin, k int) {
	j.closeMu.RLock()
	defer j.closeMu.RUnlock()
	if j.closed {
		metrics.AddCounter("serve.journal.dropped", 1)
		return
	}
	rec := wal.Record{Op: op, Bin: uint32(bin), K: int32(k), Seq: j.seq.Add(1)}
	j.pending.Add(1)
	j.enqueue(rec)
}

// OnAllocRun implements StoreHook: the admission lane's push. It
// reserves one contiguous seq range for the whole run and
// enqueues the records in order — still under the shard lock that
// applied them (see Store.AdmitBatch), so seq order equals mutation
// order per bin and a Checkpoint holding every shard lock still
// observes a stable seq. The per-push close guard and pending
// accounting are paid once per run instead of once per ball, and the
// writer's greedy group commit typically lands a whole run in one
// wal.AppendBatch call.
func (j *Journal) OnAllocRun(bins []int) {
	n := len(bins)
	if n == 0 {
		return
	}
	j.closeMu.RLock()
	defer j.closeMu.RUnlock()
	if j.closed {
		metrics.AddCounter("serve.journal.dropped", int64(n))
		return
	}
	base := j.seq.Add(uint64(n)) - uint64(n)
	j.pending.Add(int64(n))
	for i, bin := range bins {
		j.enqueue(wal.Record{Op: wal.OpAlloc, Bin: uint32(bin), K: 1, Seq: base + uint64(i) + 1})
	}
}

// enqueue hands one record — already counted in pending, seq already
// assigned — to the writer queue, honoring StallTimeout. The caller
// holds closeMu.RLock, so the channel cannot be closed under us.
func (j *Journal) enqueue(rec wal.Record) {
	if j.opts.StallTimeout <= 0 {
		j.ch <- rec
		return
	}
	select {
	case j.ch <- rec:
		return
	default:
	}
	t := getStallTimer(j.opts.StallTimeout)
	select {
	case j.ch <- rec:
	case <-t.C:
		j.decPending(1)
		j.noteErr(fmt.Errorf("serve: journal stalled for %v; record seq %d dropped", j.opts.StallTimeout, rec.Seq))
		metrics.AddCounter("serve.journal.stalled", 1)
	}
	putStallTimer(t)
}

// stallTimers pools the StallTimeout timers: a wedged disk stalls
// every mutation on a shard, and allocating a fresh runtime timer per
// stalled push just adds churn to an already-bad moment.
var stallTimers sync.Pool

func getStallTimer(d time.Duration) *time.Timer {
	if v := stallTimers.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putStallTimer stops t and clears any tick left in its channel (the
// pooled timer must come back quiescent whether it fired or not).
func putStallTimer(t *time.Timer) {
	t.Stop()
	select {
	case <-t.C:
	default:
	}
	stallTimers.Put(t)
}

// Drain blocks until every record enqueued before the call has been
// handed to the WAL (appended, or its failure recorded in Err). With
// traffic quiesced this makes the writer goroutine's work observable:
// after Drain, LastSeq's record has reached the log — which is what
// the deterministic crash-schedule simulations need between steps, and
// what a graceful flush wants before a checkpoint. Waiters sleep on a
// condition variable signalled by the writer; they don't spin while
// the writer sits inside a slow fsync.
//
// Under SyncWriter there is no writer goroutine: Drain itself appends
// everything queued, in MaxBatch chunks, in the calling goroutine.
func (j *Journal) Drain() {
	if j.opts.SyncWriter {
		j.flushQueued()
		return
	}
	j.drainMu.Lock()
	for j.pending.Load() != 0 {
		j.drainCond.Wait()
	}
	j.drainMu.Unlock()
}

// OnAlloc is a run of one pushed as a single record. The store never
// calls it (admissions arrive through OnAllocRun); the frozen benchmark
// harness, which forwards it from its BatchStoreHook wrapper, does.
func (j *Journal) OnAlloc(bin int) { j.push(wal.OpAlloc, bin, 1) }

// OnFree implements StoreHook.
func (j *Journal) OnFree(bin int) { j.push(wal.OpFree, bin, 1) }

// OnCrash implements StoreHook.
func (j *Journal) OnCrash(bin, k int) { j.push(wal.OpCrash, bin, k) }

// Checkpoint captures a striped snapshot — no stop-the-world cut —
// persists it, prunes old checkpoints and truncates WAL segments the
// oldest retained checkpoint covers. It returns the snapshot and the
// file it was written to. Only a failure to persist the snapshot is an
// error: once the snapshot file is durable, pruning and truncation are
// maintenance, and their failure (say, one unremovable old file) is
// recorded in MaintErr and retried by the next checkpoint instead of
// being returned — a successful checkpoint must never look fatal.
//
// The striped cut walks the store's lock stripes one at a time: each
// stripe's loads and counters are copied under that stripe's lock
// alone, so admissions on other stripes never stall for longer than
// one stripe copy. The per-stripe seq fence is j.seq read UNDER the
// stripe lock: every record targeting the stripe with a seq at or
// below that read is already applied (seq assignment — including the
// batch hook's range reservation — happens under the stripe lock,
// after the mutation), and any later record draws a strictly higher
// seq. Each stripe therefore becomes a checkpoint Section with an
// exact watermark; Snapshot.Seq is the minimum watermark, which keeps
// WAL truncation through Seq sound, and restore filters replayed records per
// section (see RestoreFSOpts).
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
	sections := make([]checkpoint.Section, 0, len(st.shards))
	var allocs, frees int64
	minWm := ^uint64(0)
	var copyNs, maxHoldNs int64
	for i := range st.shards {
		sh := &st.shards[i]
		if sh.lo == sh.hi {
			continue // empty trailing stripe (shards > bins geometry)
		}
		t0 := time.Now()
		sh.mu.Lock()
		for b := sh.lo; b < sh.hi; b++ {
			loads[b] = st.loads[b].Load()
		}
		wm := j.seq.Load()
		a, f := sh.allocs.Load(), sh.frees.Load()
		sh.mu.Unlock()
		hold := time.Since(t0).Nanoseconds()
		copyNs += hold
		if hold > maxHoldNs {
			maxHoldNs = hold
		}
		sections = append(sections, checkpoint.Section{Lo: sh.lo, Hi: sh.hi, Watermark: wm})
		allocs += a
		frees += f
		if wm < minWm {
			minWm = wm
		}
	}
	if minWm == ^uint64(0) {
		minWm = j.seq.Load()
	}
	metrics.AddCounter("checkpoint.stripe.copies", int64(len(sections)))
	metrics.ObserveTimer("checkpoint.stripe.copy_ns", time.Duration(copyNs))
	metrics.SetGauge("checkpoint.stripe.max_hold_ns", float64(maxHoldNs))

	snap := checkpoint.Snapshot{
		Seq:      minWm,
		Allocs:   allocs,
		Frees:    frees,
		Loads:    loads,
		Sections: sections,
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
	j.closeMu.RLock()
	closed := j.closed
	j.closeMu.RUnlock()
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
// Callers quiesce traffic first; mutations racing Close are counted
// in serve.journal.dropped rather than lost silently. A checkpoint or
// maintenance pass in flight finishes first.
func (j *Journal) Close() error {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	j.closeMu.Lock()
	if j.closed {
		j.closeMu.Unlock()
		return nil
	}
	j.closed = true
	close(j.ch)
	j.closeMu.Unlock()
	close(j.stop)
	j.wg.Wait()
	if j.opts.SyncWriter {
		// No writer goroutine: settle the queued tail here.
		j.flushQueued()
	}
	j.st.SetHook(nil)
	if err := j.log.Close(); err != nil {
		return err
	}
	return j.Err()
}
