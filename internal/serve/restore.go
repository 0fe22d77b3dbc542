// Cold-start restore: load the newest valid checkpoint, replay the WAL
// suffix, fence the unreachable tail. wal.ReplayPipelineFS drops the
// records the checkpoint's seq covers and partitions the rest by the
// store's lock stripes in its decode workers; the batch applier here
// filters each stripe's records against that stripe's own watermark and
// applies them, in file order, on one worker, and the stripes' indexes
// are rebuilt once when the replay ends.
package serve

import (
	"errors"
	"fmt"
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
// lock stripes and memory bandwidth well before high core counts.
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

	Workers      int   // apply workers the replay ran with
	CheckpointNs int64 // loading + installing the checkpoint
	ReplayNs     int64 // replaying the WAL suffix
	FenceNs      int64 // fencing the stale post-gap suffix

	// The replay's stages (wal.ReplayStats), each summed over its
	// goroutines: they overlap, so they do not add up to ReplayNs.
	ReadNs, DecodeNs, ApplyNs int64
}

// RestoreFSOpts rebuilds st from the durability directory: load the
// newest valid checkpoint (if any), then replay the WAL suffix with
// seq > checkpoint seq, then fence the unreachable tail. Call it on a
// fresh store before any traffic and before NewJournal (replayed
// mutations must not re-journal).
//
// The suffix is replayed by wal.ReplayPipelineFS — segment read-ahead
// and record decode overlap with application, and records fan out to
// Workers appliers partitioned by the store's lock stripes, so the
// final state (loads, counters, and every RestoreResult field except
// the timings) does not depend on the worker count. A checkpoint whose
// sections carry distinct watermarks (see Journal.Checkpoint)
// additionally filters each replayed record against its stripe's seq
// watermark, so records already reflected in the stripe's copy are not
// applied twice. Nothing reads the store while it is being rebuilt, so
// the replay leaves the stripes' indexes alone and rebuilds them once
// at the end, as Store.Restore does.
//
// Replay is defensive the same way the paper's processes are: a free
// whose bin is already empty (possible only against a forged or
// hand-edited log — per-bin order makes it impossible in our own) is
// skipped and counted, never fatal, so an adversarially bad WAL still
// yields *a* state the process can recover from.
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

	ap := newReplayApplier(st, &snap, workers)
	ap.index = false
	t0 = time.Now()
	stats, err := wal.ReplayPipelineFS(fsys, dir, res.CheckpointSeq, wal.PipelineOptions{
		Workers:    workers,
		Partition:  func(rec wal.Record) int { return int(rec.Bin) / st.shardSize },
		ApplyBatch: ap.applyBatch,
	})
	if ap.applied.Load() > 0 {
		for i := range st.shards {
			st.shards[i].rebuild(st.loads)
		}
	}
	res.ReplayNs = time.Since(t0).Nanoseconds()
	res.ReadNs, res.DecodeNs, res.ApplyNs = stats.ReadNs, stats.DecodeNs, stats.ApplyNs
	res.Replayed = ap.applied.Load()
	res.SkippedFrees = ap.skippedFrees.Load()
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

// replayApplier applies batches of replayed WAL records into the store
// with one stripe-lock acquisition per touched stripe per batch, and
// one delta flush of the global counters per stripe group — the same
// chain-grouping technique as Store.AdmitBatch. It is safe for
// concurrent batches as long as no stripe's records are in flight on
// two workers at once, which is exactly what the pipeline's
// stripe-to-worker partition guarantees. The store must not have a
// journal hook installed (replayed mutations must not re-journal);
// applier writes bypass the hook entirely. The stripe's index follows
// every load change through shard.reindex like a live mutation, except
// in the cold restore, which owns the store and rebuilds it afterwards.
type replayApplier struct {
	st    *Store
	snap  *checkpoint.Snapshot // non-nil only when stripes have distinct watermarks
	wm    []uint64             // with snap: each stripe's watermark, wmPerBin where sections split it
	index bool                 // reindex per record (false: the caller rebuilds the indexes itself)

	applied      atomic.Int64 // records past the seq/watermark filters
	skippedFrees atomic.Int64 // frees that hit an already-empty bin

	scratch []applyScratch
}

// applyScratch is one worker's reusable grouping state: per-stripe
// chain heads/tails (1-based; 0 = nil), per-record links, and the
// stripes touched by the current batch.
type applyScratch struct {
	head    []int32
	tail    []int32
	next    []int32
	touched []int32
}

// wmPerBin marks a stripe that lies across checkpoint sections with
// different watermarks (a checkpoint taken under another stripe
// geometry): its records ask the snapshot bin by bin.
const wmPerBin = ^uint64(0)

// newReplayApplier builds an applier for workers concurrent lanes.
// Records are filtered against a watermark only when the snapshot's
// sections carry watermarks above Seq — a quiesced or section-less
// checkpoint skips the filter entirely — and then against a table with
// one entry per stripe, since a checkpoint's sections are stripes.
func newReplayApplier(st *Store, snap *checkpoint.Snapshot, workers int) *replayApplier {
	a := &replayApplier{st: st, index: true, scratch: make([]applyScratch, workers)}
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

// applyBatch applies one pipeline batch on worker w. Records are
// grouped into per-stripe chains first (preserving in-batch order, so
// per-bin order survives), then each stripe group is applied under one
// lock acquisition; per-stripe and global counters take one delta add
// per group instead of one per record. An error aborts the batch with
// the store state unspecified, matching the replay contract.
func (a *replayApplier) applyBatch(w int, recs []wal.Record) error {
	st := a.st
	sc := &a.scratch[w]
	if len(sc.head) < len(st.shards) {
		sc.head = make([]int32, len(st.shards))
		sc.tail = make([]int32, len(st.shards))
	}
	if cap(sc.next) < len(recs) {
		sc.next = make([]int32, len(recs))
	}
	sc.next = sc.next[:len(recs)]
	sc.touched = sc.touched[:0]

	var applied int64
	for i, rec := range recs {
		bin := int(rec.Bin)
		if bin < 0 || bin >= st.n {
			for _, si := range sc.touched {
				sc.head[si], sc.tail[si] = 0, 0
			}
			return fmt.Errorf("serve: replay record seq %d targets bin %d of %d", rec.Seq, bin, st.n)
		}
		si := int32(bin / st.shardSize)
		if a.wm != nil {
			wm := a.wm[si]
			if wm == wmPerBin {
				wm = a.snap.WatermarkFor(bin)
			}
			if rec.Seq <= wm {
				continue // already reflected in the stripe's checkpoint section
			}
		}
		sc.next[i] = 0
		if sc.head[si] == 0 {
			sc.head[si] = int32(i + 1)
			sc.touched = append(sc.touched, si)
		} else {
			sc.next[sc.tail[si]-1] = int32(i + 1)
		}
		sc.tail[si] = int32(i + 1)
		applied++
	}

	var skipped int64
	var err error
	for _, si := range sc.touched {
		if err != nil {
			sc.head[si], sc.tail[si] = 0, 0
			continue
		}
		sh := &st.shards[si]
		var total, allocs, frees, nonEmpty int64
		sh.mu.Lock()
		for e := sc.head[si]; e != 0 && err == nil; e = sc.next[e-1] {
			rec := recs[e-1]
			bin := int(rec.Bin)
			var d int32 // the record's effect on its bin
			switch rec.Op {
			case wal.OpAlloc:
				d = 1
				allocs++
			case wal.OpFree:
				if st.loads[bin].Load() == 0 {
					skipped++
					continue
				}
				d = -1
				frees++
			case wal.OpCrash:
				if d = rec.K; d < 0 {
					err = fmt.Errorf("serve: replay crash record seq %d has k=%d", rec.Seq, rec.K)
				}
			default:
				err = fmt.Errorf("serve: replay record seq %d has unknown op %v", rec.Seq, rec.Op)
			}
			if d == 0 || err != nil {
				continue
			}
			l := st.loads[bin].Add(d)
			if a.index {
				sh.reindex(bin, l-d, l)
			}
			if l == d {
				nonEmpty++
			} else if l == 0 {
				nonEmpty--
			}
			total += int64(d)
		}
		sh.total.Add(total)
		sh.allocs.Add(allocs)
		sh.frees.Add(frees)
		sh.mu.Unlock()
		st.total.Add(total)
		st.nonEmpty.Add(nonEmpty)
		st.allocs.Add(allocs)
		st.frees.Add(frees)
		sc.head[si], sc.tail[si] = 0, 0
	}
	a.applied.Add(applied)
	a.skippedFrees.Add(skipped)
	return err
}

// ApplyRecords replays a batch of WAL records into st through the same
// batch applier restore uses — one stripe-lock acquisition per touched
// stripe, per-bin order preserved — and reports how many frees hit an
// already-empty bin. It is the warm-replay entry point for a
// replication follower applying the primary's record batches and for
// the explorer's reference replay. Single caller at a time; the store
// must not have a journal hook installed.
func ApplyRecords(st *Store, recs []wal.Record) (skippedFrees int64, err error) {
	var snap checkpoint.Snapshot
	ap := newReplayApplier(st, &snap, 1)
	err = ap.applyBatch(0, recs)
	return ap.skippedFrees.Load(), err
}
