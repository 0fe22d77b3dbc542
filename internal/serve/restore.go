// Cold-start restore: load the newest valid checkpoint, replay the WAL
// suffix, fence the unreachable tail. wal.ReplayPipelineFS drops the
// records the checkpoint's seq covers and partitions the rest by the
// store's index stripes in its decode workers; the batch applier here
// applies each batch in file order — filtering records against their
// section's watermark when an older checkpoint carries distinct ones —
// with the store's mutex held for the whole replay, and the stripes'
// indexes are rebuilt once when the replay ends.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// RestoreOptions tunes the restore pipeline.
type RestoreOptions struct {
	// Workers is the number of parallel apply workers for WAL replay.
	// 0 means DefaultRestoreWorkers(); 1 is the same pipeline with one
	// apply lane (the final state is bit-identical at every count). The
	// effective count is clamped to the store's stripe count, since a
	// stripe is the unit of partitioning.
	Workers int
}

// DefaultRestoreWorkers is the worker count RestoreFSOpts uses when the
// caller does not pin one: GOMAXPROCS clamped to [2, 8]. The floor of 2
// keeps the pipeline (read-ahead, decode, apply overlap) on even a
// single-core runner, where overlapping segment reads with CRC checks
// and applies still wins; the ceiling reflects that replay saturates on
// decode and memory bandwidth well before high core counts.
func DefaultRestoreWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 2 {
		w = 2
	}
	return w
}

// RestoreResult reports what RestoreFSOpts rebuilt, and how long each
// restore phase took (the MTTR decomposition the drills print).
type RestoreResult struct {
	Restored       bool   // any durable state was found
	CheckpointSeq  uint64 // seq covered by the loaded checkpoint (0 if none)
	CheckpointPath string // file the checkpoint came from ("" if none)
	Replayed       int64  // WAL records applied on top of the checkpoint
	SkippedFrees   int64  // replayed frees that hit an already-empty bin
	Torn           bool   // replay stopped at a torn/corrupted record
	LastSeq        uint64 // seq the rebuilt state is consistent with
	StaleRemoved   int    // unreachable post-gap segments pruned (see wal.RemoveStaleFS)

	// WAL segments by how the replay took them (see wal.ReplayStats).
	SegmentsSkipped, SegmentsSummarized, SegmentsDecoded int

	Workers      int   // apply workers the replay ran with
	CheckpointNs int64 // loading + installing the checkpoint
	ReplayNs     int64 // replaying the WAL suffix
	FenceNs      int64 // fencing the stale post-gap suffix

	// The replay's stages (wal.ReplayStats), each summed over its
	// goroutines: they overlap, so they do not add up to ReplayNs.
	ReadNs, DecodeNs, ApplyNs int64

	// PoolBytes is what the replay allocated for its chunk pool
	// (wal.ReplayStats.PoolBytes).
	PoolBytes int64
}

// RestoreFSOpts rebuilds st from the durability directory: load the
// newest valid checkpoint (if any), then replay the WAL suffix with
// seq > checkpoint seq, then fence the unreachable tail. Call it on a
// fresh store before any traffic and before NewJournal (replayed
// mutations must not re-journal).
//
// The suffix is replayed by wal.ReplayPipelineFS — chunked reads and
// record decode overlap with application, and records fan out to
// Workers appliers partitioned by the store's index stripes, so the
// final state (loads, counters, and every RestoreResult field except
// the timings and the pool size) does not depend on the worker count.
// A checkpoint whose sections carry distinct watermarks (written by
// older releases, which copied the store one stripe at a time)
// additionally filters each replayed record against its section's seq
// watermark, so records already reflected in the section's copy are
// not applied twice. The store is fresh, so the restore holds its mutex
// for the whole replay and index rebuild; under it the apply workers
// write disjoint bins and leave the stripes' indexes and totals alone,
// and the restore rebuilds them once at the end, as Store.Restore does.
//
// Replay is defensive the same way the paper's processes are: a free
// whose bin is already empty (possible only against a forged or
// hand-edited log — per-bin order makes it impossible in our own) is
// skipped and counted, never fatal, so an adversarially bad WAL still
// yields *a* state the process can recover from. A log whose replay
// would leave more than math.MaxInt32 balls in the store is refused
// with ErrOverflow, the bound every other install enforces.
func RestoreFSOpts(st *Store, fsys vfs.FS, dir string, opts RestoreOptions) (RestoreResult, error) {
	defer metrics.Span("checkpoint.restore_ns")()
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultRestoreWorkers()
	}
	if workers > st.Shards() {
		workers = st.Shards()
	}
	var res RestoreResult
	res.Workers = workers

	t0 := time.Now()
	snap, path, err := checkpoint.LoadLatestFS(fsys, dir)
	switch {
	case err == nil:
		if err := st.Restore(snap.Loads, snap.Allocs, snap.Frees); err != nil {
			return res, fmt.Errorf("serve: restore %s: %w", path, err)
		}
		res.Restored = true
		res.CheckpointSeq = snap.Seq
		res.CheckpointPath = path
		res.LastSeq = snap.Seq
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Fresh (or checkpoint-less) directory: replay from the start.
	default:
		return res, err
	}
	res.CheckpointNs = time.Since(t0).Nanoseconds()

	ap := newReplayApplier(st, &snap)
	ap.index = false
	t0 = time.Now()
	st.mu.Lock()
	stats, err := wal.ReplayPipelineFS(fsys, dir, res.CheckpointSeq, wal.PipelineOptions{
		Workers:      workers,
		Partition:    func(rec wal.Record) int { return int(rec.Bin) / st.shardSize },
		ApplyBatch:   ap.applyBatch,
		ApplySummary: ap.applySummary,
		Floor:        snap.MaxWatermark(),
	})
	if ap.applied.Load() > 0 {
		st.reindexAll()
	}
	if err == nil && st.total.Load() > math.MaxInt32 {
		// Each record and footer entry kept its bin in range; the store's
		// bound is on the sum, which only the whole replay knows.
		err = fmt.Errorf("serve: restore: the replayed log holds %d balls: %w", st.total.Load(), ErrOverflow)
	}
	st.mu.Unlock()
	res.ReplayNs = time.Since(t0).Nanoseconds()
	res.ReadNs, res.DecodeNs, res.ApplyNs = stats.ReadNs, stats.DecodeNs, stats.ApplyNs
	res.PoolBytes = stats.PoolBytes
	res.Replayed = ap.applied.Load()
	res.SkippedFrees = ap.skippedFrees.Load()
	res.SegmentsSkipped, res.SegmentsSummarized, res.SegmentsDecoded = stats.Skipped, stats.Summarized, stats.Decoded
	if err != nil {
		return res, err
	}
	res.Torn = stats.Torn
	if stats.LastSeq > res.LastSeq {
		res.LastSeq = stats.LastSeq
	}
	if stats.Applied > 0 {
		res.Restored = true
	}
	metrics.AddCounter("wal.replay.records", res.Replayed)
	metrics.AddCounter("wal.replay.skipped_frees", res.SkippedFrees)
	metrics.AddCounter("wal.replay.segments_skipped", int64(stats.Skipped))
	metrics.AddCounter("wal.replay.segments_summarized", int64(stats.Summarized))
	metrics.AddCounter("wal.replay.segments_decoded", int64(stats.Decoded))

	// Replay may have stopped short of the on-disk max at a seq gap (an
	// aborted append dropped a record; everything past it was never
	// acknowledged durable). The unreachable suffix must go NOW, before
	// the journal reopens: new records reuse seqs from LastSeq+1, and a
	// stale segment left behind would overlap the new history and feed a
	// future replay records from the dead timeline.
	t0 = time.Now()
	removed, err := wal.RemoveStaleFS(fsys, dir, res.LastSeq)
	res.FenceNs = time.Since(t0).Nanoseconds()
	res.StaleRemoved = removed
	if err != nil {
		return res, fmt.Errorf("serve: restore: %w", err)
	}
	return res, nil
}

// replayApplier applies batches of replayed WAL records into the store,
// each in file order, with one settle of the store's counters per
// batch. Its caller holds the store's mutex; concurrent batches are
// safe as long as no stripe's records are in flight on two workers at
// once, which is exactly what the pipeline's stripe-to-worker partition
// guarantees. The store must not have a journal hook installed
// (replayed mutations must not re-journal); applier writes bypass the
// hook entirely. The stripe's index and ball total follow every load
// change like a live mutation's, except in the cold restore, which owns
// the store and rebuilds both afterwards.
type replayApplier struct {
	st    *Store
	snap  *checkpoint.Snapshot // non-nil only when sections have distinct watermarks
	wm    []uint64             // with snap: each stripe's watermark, wmPerBin where sections split it
	index bool                 // keep the stripes' indexes and totals per record (false: the caller rebuilds them)

	applied      atomic.Int64 // records past the seq/watermark filters
	skippedFrees atomic.Int64 // frees that hit an already-empty bin
}

// wmPerBin marks a stripe that lies across checkpoint sections with
// different watermarks (a checkpoint taken under another stripe
// geometry): its records ask the snapshot bin by bin.
const wmPerBin = ^uint64(0)

// newReplayApplier builds an applier. Records are filtered against a
// watermark only when the snapshot's sections carry watermarks above
// Seq — a checkpoint taken as one cut, or a section-less one, skips the
// filter entirely — and then against a table with one entry per
// stripe, since an old checkpoint's sections are stripes.
func newReplayApplier(st *Store, snap *checkpoint.Snapshot) *replayApplier {
	a := &replayApplier{st: st, index: true}
	if snap.MaxWatermark() > snap.Seq {
		a.snap = snap
		a.wm = make([]uint64, len(st.shards))
		for i := range st.shards {
			sh := &st.shards[i]
			a.wm[i] = snap.WatermarkFor(sh.lo)
			for _, sec := range snap.Sections {
				if sec.Lo < sh.hi && sec.Hi > sh.lo && sec.Watermark != a.wm[i] {
					a.wm[i] = wmPerBin
				}
			}
		}
	}
	return a
}

// applyBatch applies one pipeline batch (on any worker), record by
// record in file order, and settles the store's counters once. An
// error aborts the batch with the store state unspecified, matching the
// replay contract.
func (a *replayApplier) applyBatch(_ int, recs []wal.Record) error {
	st := a.st
	var t tally
	var applied, skipped int64
	var err error
	for _, rec := range recs {
		bin := int(rec.Bin)
		if bin < 0 || bin >= st.n {
			err = fmt.Errorf("serve: replay record seq %d targets bin %d of %d", rec.Seq, bin, st.n)
			break
		}
		if a.wm != nil {
			wm := a.wm[bin/st.shardSize]
			if wm == wmPerBin {
				wm = a.snap.WatermarkFor(bin)
			}
			if rec.Seq <= wm {
				continue // already reflected in the section's copy
			}
		}
		applied++
		var d int32 // the record's effect on its bin
		switch rec.Op {
		case wal.OpAlloc:
			d = 1
			t.allocs++
		case wal.OpFree:
			if st.loads[bin].Load() == 0 {
				skipped++
				continue
			}
			d = -1
			t.frees++
		case wal.OpCrash:
			if d = rec.K; d < 0 {
				err = fmt.Errorf("serve: replay crash record seq %d has k=%d", rec.Seq, rec.K)
			}
		default:
			err = fmt.Errorf("serve: replay record seq %d has unknown op %v", rec.Seq, rec.Op)
		}
		if err != nil {
			break
		}
		if d == 0 {
			continue
		}
		if int64(st.loads[bin].Load())+int64(d) > math.MaxInt32 {
			err = fmt.Errorf("serve: replay record seq %d overflows bin %d", rec.Seq, bin)
			break
		}
		if a.index && st.total.Load()+t.total+int64(d) > math.MaxInt32 {
			err = fmt.Errorf("serve: replay record seq %d: %w", rec.Seq, ErrOverflow)
			break
		}
		l := st.loads[bin].Add(d)
		if a.index {
			sh := st.shardOf(bin)
			sh.reindex(bin, l-d, l)
			sh.total += int64(d)
		}
		if l == d {
			t.nonEmpty++
		} else if l == 0 {
			t.nonEmpty--
		}
		t.total += int64(d)
	}
	st.settle(&t)
	a.applied.Add(applied)
	a.skippedFrees.Add(skipped)
	return err
}

// applySummary applies a worker's share of a sealed segment's footer
// with the effect applyBatch gives its records (see wal.Summary): the
// same loads, the same skipped frees taken out of the segment's free
// count, an overflow exactly when the records would overflow. Only the
// cold restore, which rebuilds the indexes afterwards, applies one.
func (a *replayApplier) applySummary(_ int, sum wal.Summary) error {
	st := a.st
	t := tally{allocs: sum.Allocs, frees: sum.Frees}
	var skipped int64
	var err error
	for _, e := range sum.Entries {
		bin := int(e.Bin)
		if bin >= st.n || int64(st.loads[bin].Load())+int64(e.High) > math.MaxInt32 {
			err = fmt.Errorf("serve: replay summary overflows or misses bin %d of %d", bin, st.n)
			break
		}
		x0 := int64(st.loads[bin].Load())
		s := max(0, -(x0 + int64(e.Low)))
		x1 := x0 + int64(e.Delta) + s
		skipped += s
		st.loads[bin].Store(int32(x1))
		t.total += x1 - x0
		t.nonEmpty += min(x1, 1) - min(x0, 1) // loads are never negative
	}
	t.frees -= skipped
	st.settle(&t)
	a.applied.Add(sum.Records)
	a.skippedFrees.Add(skipped)
	return err
}

// ApplyRecords replays a batch of WAL records into st through the same
// batch applier restore uses — one hold of the store's mutex, records
// in file order — and reports how many frees hit an already-empty bin.
// A record that would take the store past math.MaxInt32 balls is
// refused with ErrOverflow, like every other install, and the batch
// stops before it.
// It is the warm-replay entry point for a replication follower applying
// the primary's record batches and for the explorer's reference replay.
// The store must not have a journal hook installed.
func ApplyRecords(st *Store, recs []wal.Record) (skippedFrees int64, err error) {
	var snap checkpoint.Snapshot
	ap := newReplayApplier(st, &snap)
	st.mu.Lock()
	err = ap.applyBatch(0, recs)
	st.mu.Unlock()
	return ap.skippedFrees.Load(), err
}
