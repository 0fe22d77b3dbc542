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
// stage feeds record-decode workers, a sequential validator makes every
// torn-tail / seq-gap decision, and validated records fan out to
// partitioned apply workers.
type PipelineOptions struct {
	// Workers is the number of apply workers (< 1 is treated as 1).
	// Each partition id maps to exactly one worker (id % Workers), so
	// records of one partition apply in file order on one goroutine —
	// per-partition order is preserved no matter how many workers run.
	Workers int

	// ReadAhead bounds how many whole segments the read stage may hold
	// in flight ahead of the validator (default 2). Segments are
	// bounded by the log's rotation size, so this also bounds pipeline
	// memory.
	ReadAhead int

	// Partition maps a record to its partition id (the serve layer uses
	// the store's lock-stripe index, so applies to different partitions
	// commute). nil sends every record to partition 0 — one apply
	// worker does all the work, the others idle.
	Partition func(Record) int

	// ApplyBatch applies one ordered batch of records belonging to
	// worker (a batch never mixes records of two different workers, and
	// batches for one worker arrive in file order). An error aborts the
	// replay; see ReplayPipelineFS.
	ApplyBatch func(worker int, recs []Record) error
}

// rawSegment is one segment file read whole by the read-ahead stage.
type rawSegment struct {
	idx     int
	data    []byte
	openErr error // fatal: a segment that cannot be opened fails the replay
	readErr bool  // mid-read failure: the undecoded tail counts as torn
}

// decodedSegment is one segment's decode result, delivered to the
// validator strictly in segment order.
type decodedSegment struct {
	firstSeq uint64
	hdrOK    bool
	recs     []Record
	clean    bool // ended exactly at a record boundary with no corruption
	openErr  error
}

// readSegment reads one segment file whole. Open failures are fatal; a
// failure mid-read keeps the bytes already read and taints the tail, so
// the segment counts as torn after its readable prefix.
func readSegment(fsys vfs.FS, path string, idx int) rawSegment {
	raw := rawSegment{idx: idx}
	f, err := fsys.Open(path)
	if err != nil {
		raw.openErr = fmt.Errorf("wal: replay: %w", err)
		return raw
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	raw.data = data
	raw.readErr = err != nil
	return raw
}

// decodeSegmentData decodes one segment's bytes into records, stopping
// at the first torn or corrupted record: a segment contributes its
// valid prefix and nothing after it.
func decodeSegmentData(raw rawSegment) decodedSegment {
	d := decodedSegment{openErr: raw.openErr}
	if raw.openErr != nil {
		return d
	}
	if d.firstSeq, d.hdrOK = parseSegmentHeader(raw.data); !d.hdrOK {
		return d // torn at segment birth
	}
	body := raw.data[segHeaderSize:]
	n := len(body) / RecordSize
	d.recs = make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec, ok := DecodeRecord(body[i*RecordSize : (i+1)*RecordSize])
		if !ok {
			return d // corrupted record: valid prefix ends here
		}
		d.recs = append(d.recs, rec)
	}
	d.clean = len(body)%RecordSize == 0 && !raw.readErr
	return d
}

// ReplayPipelineFS is the WAL replay: it walks the segments of dir in
// order and hands every valid record with Seq > afterSeq to
// opts.ApplyBatch. A read-ahead goroutine loads segments whole, decode
// workers verify CRCs and parse records concurrently, and a sequential
// validator — consuming decode results strictly in segment order —
// decides what is sound to apply before fanning records out to
// opts.Workers apply workers by partition. Records of one partition are
// always applied, in file order, by one worker, so callers whose
// partitions commute (the store's lock stripes) get a final state that
// does not depend on the worker count; Workers == 1 is the same
// pipeline with a single apply lane.
//
// A torn or corrupted record (CRC mismatch, partial tail, or bad
// segment header) ends the current segment without error and sets
// stats.Torn. Replay continues into a later segment — after a torn tail
// or a clean end alike — only when that segment's header proves no
// record would be skipped (see opensGap), and stops for good at the
// first segment that would: recovery is "everything reachable without
// skipping a record". The records past a gap stay on disk but are
// unsound to apply until a checkpoint covers it.
//
// On an ApplyBatch error the pipeline stops and returns the first error
// observed; records already handed to other workers may or may not
// have been applied, so the store's state is unspecified and stats are
// best-effort. A segment that cannot be opened is fatal too, after the
// sound prefix before it was applied.
//
// Stage totals are observed into the wal.replay.read_ns /
// wal.replay.decode_ns / wal.replay.apply_ns timers, and the worker
// count into the wal.replay.workers gauge.
func ReplayPipelineFS(fsys vfs.FS, dir string, afterSeq uint64, opts PipelineOptions) (ReplayStats, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	readAhead := opts.ReadAhead
	if readAhead < 1 {
		readAhead = 2
	}
	metrics.SetGauge("wal.replay.workers", float64(workers))

	var stats ReplayStats
	paths, err := listSegments(fsys, dir)
	if err != nil {
		return stats, fmt.Errorf("wal: replay: %w", err)
	}
	if len(paths) == 0 {
		return stats, nil
	}

	var readNs, decodeNs, applyNs atomic.Int64
	stop := make(chan struct{})

	// Read-ahead stage: segments are read whole, at most readAhead in
	// flight, and stop after the first fatal open error (the validator
	// fails at that segment; nothing past it can be applied).
	rawCh := make(chan rawSegment, readAhead)
	go func() {
		defer close(rawCh)
		for i, p := range paths {
			t := time.Now()
			raw := readSegment(fsys, p, i)
			readNs.Add(time.Since(t).Nanoseconds())
			select {
			case rawCh <- raw:
			case <-stop:
				return
			}
			if raw.openErr != nil {
				return
			}
		}
	}()

	// Decode stage: CRC verification is the CPU-heavy part of replay,
	// and segments decode independently. Results are delivered through
	// one single-use buffered channel per segment so the validator can
	// consume them strictly in order no matter which worker finishes
	// first.
	outs := make([]chan decodedSegment, len(paths))
	for i := range outs {
		outs[i] = make(chan decodedSegment, 1)
	}
	decoders := workers
	if decoders > 4 {
		decoders = 4
	}
	var decodeWg sync.WaitGroup
	for i := 0; i < decoders; i++ {
		decodeWg.Add(1)
		go func() {
			defer decodeWg.Done()
			for raw := range rawCh {
				t := time.Now()
				d := decodeSegmentData(raw)
				decodeNs.Add(time.Since(t).Nanoseconds())
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
	var (
		applyWg   sync.WaitGroup
		errMu     sync.Mutex
		applyErr  error
		errFlag   atomic.Bool
		noteError = func(err error) {
			errMu.Lock()
			if applyErr == nil {
				applyErr = err
			}
			errMu.Unlock()
			errFlag.Store(true)
		}
	)
	for w := 0; w < workers; w++ {
		applyWg.Add(1)
		go func(w int) {
			defer applyWg.Done()
			for batch := range applyCh[w] {
				if errFlag.Load() {
					continue
				}
				t := time.Now()
				err := opts.ApplyBatch(w, batch)
				applyNs.Add(time.Since(t).Nanoseconds())
				if err != nil {
					noteError(err)
				}
			}
		}(w)
	}

	// Sequential validator: the single place replay decisions are made.
	// It consumes decoded segments in order, so stats.LastSeq/Torn evolve
	// as in a plain front-to-back walk whatever the decode interleaving,
	// and only records it admits reach the apply workers.
	var finalErr error
	batches := make([][]Record, workers)
	for idx := range paths {
		if errFlag.Load() {
			break
		}
		d := <-outs[idx]
		// An unreadable header falls through: nothing is applied from
		// such a segment, so contiguity is preserved.
		if d.hdrOK && opensGap(d.firstSeq, max(stats.LastSeq, afterSeq)) {
			break
		}
		stats.Segments++
		if d.openErr != nil {
			finalErr = d.openErr
			break
		}
		est := len(d.recs)/workers + 16
		for w := range batches {
			batches[w] = nil
		}
		for _, rec := range d.recs {
			stats.Records++
			stats.Bytes += RecordSize
			if rec.Seq > stats.LastSeq {
				stats.LastSeq = rec.Seq
			}
			if rec.Seq <= afterSeq || opts.ApplyBatch == nil {
				continue
			}
			w := 0
			if opts.Partition != nil {
				w = opts.Partition(rec) % workers
				if w < 0 {
					w += workers
				}
			}
			if batches[w] == nil {
				batches[w] = make([]Record, 0, est)
			}
			batches[w] = append(batches[w], rec)
			stats.Applied++
		}
		for w, b := range batches {
			if len(b) == 0 {
				continue
			}
			// Blocking send is safe: workers always drain their channel,
			// discarding batches after an error instead of stopping.
			applyCh[w] <- b
			batches[w] = nil
		}
		if !d.clean {
			stats.Torn = true
		}
	}

	close(stop)
	for _, ch := range applyCh {
		close(ch)
	}
	applyWg.Wait()
	decodeWg.Wait()

	metrics.ObserveTimer("wal.replay.read_ns", time.Duration(readNs.Load()))
	metrics.ObserveTimer("wal.replay.decode_ns", time.Duration(decodeNs.Load()))
	metrics.ObserveTimer("wal.replay.apply_ns", time.Duration(applyNs.Load()))

	if finalErr == nil {
		errMu.Lock()
		finalErr = applyErr
		errMu.Unlock()
	}
	return stats, finalErr
}
