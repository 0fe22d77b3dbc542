package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// PipelineOptions configures ReplayPipelineFS: a segment read-ahead
// stage feeds decode workers that verify, filter and partition the
// records (or a sealed segment's footer entries), a sequential
// validator makes every torn-tail / seq-gap decision from one summary
// per segment, and the batches of the segments it admits go to
// partitioned apply workers.
type PipelineOptions struct {
	// Workers is the number of apply workers (< 1 is treated as 1).
	// Each partition id maps to exactly one worker (id % Workers), so
	// records of one partition apply in file order on one goroutine —
	// per-partition order is preserved no matter how many workers run.
	Workers int

	// ReadAhead is how many segments may be read ahead of the decode
	// workers (default 2). ReadAhead + decode workers segment buffers,
	// and as many record batches per apply worker, are all the pipeline
	// owns, and it recycles them: its memory does not grow with the log.
	ReadAhead int

	// Partition maps a record to its partition id (the serve layer uses
	// the store's index stripe, a run of bins, so applies to different
	// partitions commute). It is called from the decode workers,
	// concurrently, and for a footer entry with a Record that carries
	// only its Bin. nil sends every record to partition 0 — one apply
	// worker does all the work, the others idle.
	Partition func(Record) int

	// ApplyBatch applies one ordered batch of records belonging to
	// worker (a batch never mixes records of two different workers, and
	// batches for one worker arrive in file order, one call at a time).
	// recs is recycled after the call returns and must not be retained.
	// An error aborts the replay; see ReplayPipelineFS.
	ApplyBatch func(worker int, recs []Record) error

	// ApplySummary applies worker's share of a sealed segment's footer
	// in place of its records, in order with the worker's batches: for
	// a segment whose footer has entries, whose records all lie past
	// max(afterSeq, Floor), and whose bytes match the footer's CRC. nil
	// decodes every segment.
	ApplySummary func(worker int, s Summary) error

	// Floor is the checkpoint's highest section watermark, if any.
	Floor uint64
}

// rawSegment is a segment read whole, or only its footer's tail (skip).
type rawSegment struct {
	idx     int
	data    []byte  // back on the free list once the validator has passed the segment
	readErr bool    // mid-read failure: the undecoded tail counts as torn
	skip    *footer // set when nothing past the footer tail was read
}

// decodedSegment is what the validator learns about one segment,
// delivered strictly in segment order: enough to make every gap / torn
// / stop decision without looking at a record.
type decodedSegment struct {
	data     []byte // the segment's buffer, on its way back to the free list
	firstSeq uint64
	hdrOK    bool
	records  int64      // valid records, whatever their seq
	maxSeq   uint64     // highest seq among them (0 when none)
	batches  [][]Record // per apply worker: the records to apply, in file order
	sums     []Summary  // per apply worker, instead of batches: the footer's entries
	skipped  bool       // read no further than the footer's tail
	clean    bool       // ended exactly at a record boundary (or its footer) with no corruption
	openErr  error      // fatal: a segment that cannot be opened fails the replay
}

// readSegment reads one segment file whole into buf, or into a fresh
// buffer when buf cannot hold it — unless the footer tail at the size
// Stat reports shows afterSeq covers it. The size sizes the buffer (a
// failed Stat is zero), but the read runs to EOF whatever it said. An
// open failure is returned; a failure mid-read keeps the bytes read and
// taints the tail, so the segment counts as torn after that prefix.
func readSegment(fsys vfs.FS, path string, idx int, buf []byte, afterSeq uint64) (rawSegment, error) {
	raw := rawSegment{idx: idx}
	size, _ := fsys.Stat(path)
	f, err := fsys.Open(path)
	if err != nil {
		return raw, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	if ft, ok := readTail(f, size); ok && ft.records > 0 && ft.maxSeq <= afterSeq {
		raw.data, raw.skip = buf, &ft
		return raw, nil
	}
	if int64(cap(buf)) <= size {
		// A rotated segment overshoots the rotation size by part of one
		// batch; the slack lets one buffer fit all of them.
		buf = make([]byte, 0, size+size/16+512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			raw.data, raw.readErr = buf, err != io.EOF
			return raw, nil
		}
	}
}

// applyItem is a record batch or a footer share for an apply worker.
type applyItem struct {
	recs []Record
	sum  *Summary
}

// replay is the state the stages of one ReplayPipelineFS call share.
// Its free lists bound the call's memory: they start full of nil slots,
// and a stage waits for a slot (and makes the buffer if it is nil).
type replay struct {
	afterSeq uint64
	workers  int
	opts     PipelineOptions
	bufs     chan []byte   // segment buffers: one per segment between the reader and the validator
	recs     chan []Record // record batches: enough for those segments, back once applied
}

// worker is the apply worker of rec's partition.
func (r *replay) worker(rec Record) int {
	w := 0
	if r.opts.Partition != nil {
		if w = r.opts.Partition(rec) % r.workers; w < 0 {
			w += r.workers
		}
	}
	return w
}

// decode turns one segment into what the validator needs: a skipped
// segment's footer; a summarized one's footer entries, one share per
// apply worker; or else its records verified one by one, stopping at
// the first torn or corrupted one (a segment contributes its valid
// prefix and nothing after it), with those the caller wants — seq past
// afterSeq — sorted into one batch per apply worker.
func (r *replay) decode(raw rawSegment) (d decodedSegment) {
	if t := raw.skip; t != nil {
		return decodedSegment{firstSeq: t.minSeq, hdrOK: true, records: t.records,
			maxSeq: t.maxSeq, skipped: true, clean: true}
	}
	if d.firstSeq, d.hdrOK = parseSegmentHeader(raw.data); !d.hdrOK {
		return d // torn at segment birth
	}
	body := raw.data[segHeaderSize:]
	if ft, ok := segmentFooter(raw.data); ok && !raw.readErr {
		if r.summarize(ft, raw.data, &d) {
			return d
		}
		body = body[:ft.records*RecordSize]
	}
	n := len(body) / RecordSize
	d.batches = make([][]Record, r.workers)
	for i := 0; i < n; i++ {
		rec, ok := DecodeRecord(body[i*RecordSize : (i+1)*RecordSize])
		if !ok {
			return d // corrupted record: valid prefix ends here
		}
		d.records++
		d.maxSeq = max(d.maxSeq, rec.Seq)
		if rec.Seq <= r.afterSeq || r.opts.ApplyBatch == nil {
			continue
		}
		w := r.worker(rec)
		if d.batches[w] == nil {
			if d.batches[w] = (<-r.recs)[:0]; d.batches[w] == nil {
				rest := n - i // an even share of what is left, and a margin
				d.batches[w] = make([]Record, 0, (rest+rest/8)/r.workers+16)
			}
		}
		d.batches[w] = append(d.batches[w], rec)
	}
	d.clean = len(body)%RecordSize == 0 && !raw.readErr
	return d
}

// summarize fills d from seg's footer ft when it can stand in for the
// records (see PipelineOptions.ApplySummary).
func (r *replay) summarize(ft footer, seg []byte, d *decodedSegment) bool {
	end := ft.bodyLen()
	if ft.entries == 0 || r.opts.ApplySummary == nil || ft.minSeq <= max(r.afterSeq, r.opts.Floor) ||
		crc32.Checksum(seg[:end], crcTable) != ft.bodyCRC {
		return false
	}
	d.sums = make([]Summary, r.workers)
	d.sums[0] = Summary{Records: ft.records, Allocs: ft.allocs, Frees: ft.frees}
	le := binary.LittleEndian
	for e := seg[end-int64(ft.entries)*entrySize : end]; len(e) > 0; e = e[entrySize:] {
		bd := BinDelta{Bin: le.Uint32(e), Delta: int16(le.Uint16(e[4:])),
			Low: int16(le.Uint16(e[6:])), High: int16(le.Uint16(e[8:]))}
		s := &d.sums[r.worker(Record{Bin: bd.Bin})]
		s.Entries = append(s.Entries, bd)
	}
	d.records, d.maxSeq, d.clean = ft.records, ft.maxSeq, true
	return true
}

// ReplayPipelineFS is the WAL replay: it walks the segments of dir in
// order and hands every valid record with Seq > afterSeq to
// opts.ApplyBatch, or a sealed segment's footer sums to
// opts.ApplySummary in place of its records. A read-ahead goroutine
// reads each segment's footer tail, skips a segment whose records
// afterSeq all covers, and loads the others whole; decode workers
// verify CRCs, drop the records afterSeq covers and partition the rest
// (or the footer's entries) concurrently; and a sequential validator —
// consuming one summary per segment, strictly in segment order —
// decides which segments are sound to apply before handing their
// batches to opts.Workers apply workers. Records (and entries) of one
// partition are always applied, in file order, by one worker, so
// callers whose partitions commute (the store's index stripes) get a
// final state that does not depend on the worker count; Workers == 1
// is the same pipeline with a single apply lane. Segment buffers and record batches come from free
// lists of fixed size owned by this call (see PipelineOptions.ReadAhead),
// so the replay allocates for the segments in flight, not for the log.
//
// A torn or corrupted record (CRC mismatch, partial tail, or bad
// segment header) ends the current segment without error and sets
// stats.Torn; a valid footer is a clean end. Replay continues into a
// later segment — after a torn tail or a clean end alike — only when
// that segment's header proves no record would be skipped (see
// opensGap), and stops for good at the first segment that would:
// recovery is "everything reachable without skipping a record". The records past a gap stay on disk but are
// unsound to apply until a checkpoint covers it; the reader is by then
// as far past the gap as the pipeline is deep, and stops there.
//
// On an ApplyBatch or ApplySummary error the pipeline stops and returns the first error
// observed; records already handed to other workers may or may not
// have been applied, so the store's state is unspecified and stats are
// best-effort. A segment that cannot be opened is fatal too, after the
// sound prefix before it was applied.
//
// Stage totals are returned in stats and observed into the
// wal.replay.read_ns / wal.replay.decode_ns / wal.replay.apply_ns
// timers, and the worker count into the wal.replay.workers gauge.
func ReplayPipelineFS(fsys vfs.FS, dir string, afterSeq uint64, opts PipelineOptions) (ReplayStats, error) {
	workers := max(opts.Workers, 1)
	readAhead := opts.ReadAhead
	if readAhead < 1 {
		readAhead = 2
	}
	decoders := min(workers, 4)
	metrics.SetGauge("wal.replay.workers", float64(workers))

	var stats ReplayStats
	paths, err := listSegments(fsys, dir)
	if err != nil {
		return stats, fmt.Errorf("wal: replay: %w", err)
	}
	if len(paths) == 0 {
		return stats, nil
	}

	// A segment's buffer is its place in the pipeline: the reader takes
	// one per segment and the validator hands it back when it has passed
	// the segment on. Each such segment decodes into at most one batch per
	// apply worker, so with that many batches a decode worker only ever
	// waits for an apply worker to finish one.
	depth := readAhead + decoders
	r := &replay{afterSeq: afterSeq, workers: workers, opts: opts,
		bufs: make(chan []byte, depth), recs: make(chan []Record, depth*workers)}
	for i := 0; i < depth; i++ {
		r.bufs <- nil
	}
	for i := 0; i < cap(r.recs); i++ {
		r.recs <- nil
	}
	var readNs, decodeNs, applyNs atomic.Int64
	stop := make(chan struct{})

	// Every segment's result travels through its own single-use buffered
	// channel, so the validator consumes them strictly in order no matter
	// which decode worker finishes first.
	outs := make([]chan decodedSegment, len(paths))
	for i := range outs {
		outs[i] = make(chan decodedSegment, 1)
	}

	// Read-ahead stage: segments are read whole and stop after the first
	// fatal open error (the validator fails at that segment; nothing past
	// it can be applied). A validator that stops closes the free list, and
	// the reader goes on for exactly the buffers left in it: how far a
	// replay reads past a gap depends on the directory alone, never on
	// goroutine timing (the schedule explorer counts on that).
	rawCh := make(chan rawSegment, readAhead)
	go func() {
		defer close(rawCh)
		for i, p := range paths {
			buf, ok := <-r.bufs
			if !ok {
				return
			}
			t := time.Now()
			raw, err := readSegment(fsys, p, i, buf[:0], afterSeq)
			readNs.Add(time.Since(t).Nanoseconds())
			if err != nil {
				outs[i] <- decodedSegment{openErr: err}
				return
			}
			rawCh <- raw // never blocks for long: the decode workers only ever wait on it
		}
	}()

	// Decode stage: CRC verification is the CPU-heavy part of replay,
	// and segments decode independently.
	var decodeWg sync.WaitGroup
	for i := 0; i < decoders; i++ {
		decodeWg.Add(1)
		go func() {
			defer decodeWg.Done()
			for raw := range rawCh {
				var d decodedSegment
				select {
				case <-stop: // read past a gap: nobody will look
				default:
					t := time.Now()
					d = r.decode(raw)
					decodeNs.Add(time.Since(t).Nanoseconds())
				}
				d.data = raw.data
				outs[raw.idx] <- d // cap 1, sole sender: never blocks
			}
		}()
	}

	// Apply stage: one goroutine per worker, fed per-segment batches.
	// After an error the workers keep draining (so the validator never
	// blocks on a full channel) but apply nothing further.
	applyCh := make([]chan applyItem, workers)
	for w := range applyCh {
		applyCh[w] = make(chan applyItem, 4)
	}
	var applyErr atomic.Pointer[error] // the first apply error
	var applyWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		applyWg.Add(1)
		go func(w int) {
			defer applyWg.Done()
			for it := range applyCh[w] {
				if applyErr.Load() == nil {
					t := time.Now()
					var err error
					if it.sum != nil {
						err = opts.ApplySummary(w, *it.sum)
					} else {
						err = opts.ApplyBatch(w, it.recs)
					}
					applyNs.Add(time.Since(t).Nanoseconds())
					if err != nil {
						applyErr.CompareAndSwap(nil, &err)
					}
				}
				if it.sum == nil {
					r.recs <- it.recs
				}
			}
		}(w)
	}

	// Sequential validator: the single place replay decisions are made.
	// It consumes segment summaries in order, so stats.LastSeq/Torn
	// evolve as in a plain front-to-back walk whatever the decode
	// interleaving, and only batches of segments it admits reach the
	// apply workers.
	var finalErr error
	for idx := range paths {
		if applyErr.Load() != nil {
			break
		}
		d := <-outs[idx]
		// An unreadable header falls through: nothing is applied from
		// such a segment, so contiguity is preserved.
		if d.hdrOK && opensGap(d.firstSeq, max(stats.LastSeq, afterSeq)) {
			break
		}
		stats.Segments++
		if finalErr = d.openErr; finalErr != nil {
			break // the reader stopped here too
		}
		stats.Records += d.records
		stats.LastSeq = max(stats.LastSeq, d.maxSeq)
		stats.Torn = stats.Torn || !d.clean
		switch {
		case d.skipped:
			stats.Skipped++
		case d.sums != nil:
			stats.Summarized++
			stats.Applied += d.records
		default:
			stats.Decoded++
		}
		// Blocking sends are safe: workers always drain their channel,
		// discarding batches after an error.
		for w, b := range d.batches {
			if len(b) > 0 {
				stats.Applied += int64(len(b))
				applyCh[w] <- applyItem{recs: b}
			}
		}
		for w := range d.sums {
			if w == 0 || len(d.sums[w].Entries) > 0 {
				applyCh[w] <- applyItem{sum: &d.sums[w]}
			}
		}
		r.bufs <- d.data
	}

	close(stop)
	close(r.bufs)
	for _, ch := range applyCh {
		close(ch)
	}
	applyWg.Wait()
	decodeWg.Wait()

	stats.ReadNs, stats.DecodeNs, stats.ApplyNs = readNs.Load(), decodeNs.Load(), applyNs.Load()
	metrics.ObserveTimer("wal.replay.read_ns", time.Duration(stats.ReadNs))
	metrics.ObserveTimer("wal.replay.decode_ns", time.Duration(stats.DecodeNs))
	metrics.ObserveTimer("wal.replay.apply_ns", time.Duration(stats.ApplyNs))

	if p := applyErr.Load(); finalErr == nil && p != nil {
		finalErr = *p
	}
	return stats, finalErr
}
