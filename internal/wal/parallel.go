package wal

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// PipelineOptions configures ReplayPipelineFS: a segment read-ahead
// stage feeds decode workers that verify, filter and partition the
// records, a sequential validator makes every torn-tail / seq-gap
// decision from one summary per segment, and the batches of the
// segments it admits go to partitioned apply workers.
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
	// the store's lock-stripe index, so applies to different partitions
	// commute). It is called from the decode workers, concurrently. nil
	// sends every record to partition 0 — one apply worker does all the
	// work, the others idle.
	Partition func(Record) int

	// ApplyBatch applies one ordered batch of records belonging to
	// worker (a batch never mixes records of two different workers, and
	// batches for one worker arrive in file order, one call at a time).
	// recs is recycled after the call returns and must not be retained.
	// An error aborts the replay; see ReplayPipelineFS.
	ApplyBatch func(worker int, recs []Record) error
}

// rawSegment is one segment file read whole by the read-ahead stage.
type rawSegment struct {
	idx     int
	data    []byte // back on the free list once the validator has passed the segment
	readErr bool   // mid-read failure: the undecoded tail counts as torn
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
	clean    bool       // ended exactly at a record boundary with no corruption
	openErr  error      // fatal: a segment that cannot be opened fails the replay
}

// readSegment reads one segment file whole into buf, or into a fresh
// buffer when buf cannot hold it. The file's size only sizes the buffer
// (with room for the read that reports EOF; a failed Stat is a size of
// zero): the read loop runs to EOF whatever the size said. That Stat
// makes a replay's filesystem schedule one op per segment longer than
// Open + Reads + Close. An open failure is returned; a failure mid-read
// keeps the bytes already read and taints the tail, so the segment
// counts as torn after its readable prefix.
func readSegment(fsys vfs.FS, path string, idx int, buf []byte) (rawSegment, error) {
	raw := rawSegment{idx: idx}
	size, _ := fsys.Stat(path)
	f, err := fsys.Open(path)
	if err != nil {
		return raw, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
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

// decode verifies one segment's bytes record by record, stopping at the
// first torn or corrupted one (a segment contributes its valid prefix
// and nothing after it), and sorts the records the caller wants — seq
// past afterSeq — into one batch per apply worker.
func (r *replay) decode(raw rawSegment) (d decodedSegment) {
	if d.firstSeq, d.hdrOK = parseSegmentHeader(raw.data); !d.hdrOK {
		return d // torn at segment birth
	}
	body := raw.data[segHeaderSize:]
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
		w := 0
		if r.opts.Partition != nil {
			if w = r.opts.Partition(rec) % r.workers; w < 0 {
				w += r.workers
			}
		}
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

// ReplayPipelineFS is the WAL replay: it walks the segments of dir in
// order and hands every valid record with Seq > afterSeq to
// opts.ApplyBatch. A read-ahead goroutine loads segments whole; decode
// workers verify CRCs, drop the records afterSeq covers and partition
// the rest concurrently; and a sequential validator — consuming one
// summary per segment, strictly in segment order — decides which
// segments are sound to apply before handing their batches to
// opts.Workers apply workers. Records of one partition are always
// applied, in file order, by one worker, so callers whose partitions
// commute (the store's index stripes) get a final state that does not
// depend on the worker count; Workers == 1 is the same pipeline with a
// single apply lane. Segment buffers and record batches come from free
// lists of fixed size owned by this call (see PipelineOptions.ReadAhead),
// so the replay allocates for the segments in flight, not for the log.
//
// A torn or corrupted record (CRC mismatch, partial tail, or bad
// segment header) ends the current segment without error and sets
// stats.Torn. Replay continues into a later segment — after a torn tail
// or a clean end alike — only when that segment's header proves no
// record would be skipped (see opensGap), and stops for good at the
// first segment that would: recovery is "everything reachable without
// skipping a record". The records past a gap stay on disk but are
// unsound to apply until a checkpoint covers it; the reader is by then
// as far past the gap as the pipeline is deep, and stops there.
//
// On an ApplyBatch error the pipeline stops and returns the first error
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
			raw, err := readSegment(fsys, p, i, buf[:0])
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
	applyCh := make([]chan []Record, workers)
	for w := range applyCh {
		applyCh[w] = make(chan []Record, 4)
	}
	var applyErr atomic.Pointer[error] // the first ApplyBatch error
	var applyWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		applyWg.Add(1)
		go func(w int) {
			defer applyWg.Done()
			for b := range applyCh[w] {
				if applyErr.Load() == nil {
					t := time.Now()
					err := opts.ApplyBatch(w, b)
					applyNs.Add(time.Since(t).Nanoseconds())
					if err != nil {
						applyErr.CompareAndSwap(nil, &err)
					}
				}
				r.recs <- b
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
		stats.Bytes += d.records * RecordSize
		stats.LastSeq = max(stats.LastSeq, d.maxSeq)
		stats.Torn = stats.Torn || !d.clean
		for w, b := range d.batches {
			if len(b) > 0 {
				stats.Applied += int64(len(b))
				// Blocking send is safe: workers always drain their
				// channel, discarding batches after an error.
				applyCh[w] <- b
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
