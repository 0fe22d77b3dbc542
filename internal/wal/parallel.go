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

// PipelineOptions configures ReplayPipelineFS: a reader streams each
// segment through a fixed pool of record-aligned chunks, decode workers
// verify, filter and partition whichever chunk comes next (or a sealed
// segment's footer entries), a sequential validator makes every
// torn-tail / seq-gap decision once per segment, in segment order, and
// the batches of the segments it admits go, chunk by chunk, to
// partitioned apply workers.
type PipelineOptions struct {
	// Workers is the number of apply workers (< 1 is treated as 1).
	// Each partition id maps to exactly one worker (id % Workers), so
	// records of one partition apply in file order on one goroutine —
	// per-partition order is preserved no matter how many workers run.
	Workers int

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
	// a segment whose footer has entries that fit one chunk, whose
	// records all lie past max(afterSeq, Floor), and whose bytes match
	// the footer's CRC. s.Entries is recycled after the call returns and
	// must not be retained. nil decodes every segment.
	ApplySummary func(worker int, s Summary) error

	// Floor is the checkpoint's highest section watermark, if any.
	Floor uint64
}

// chunkRecords is how many records a chunk holds past the segment
// header: about 512 KiB, which also holds the footer entries of any
// segment the log rotates at its default 4 MiB (a footer has at most
// one entry per 4 records). Only tests change it (export_test.go).
var chunkRecords = (512 << 10) / RecordSize

// chunkPool is how many chunks one replay owns. A chunk keeps its place
// from the read to the validator, so the pool is all the reader may run
// ahead, and with the record batches of its chunks it is all the
// pipeline holds: its memory depends on neither segment size nor count.
const chunkPool = 8

func chunkBytes() int { return segHeaderSize + chunkRecords*RecordSize }

// What a chunk carries past the reader.
const (
	kindRecords = iota // a run of a segment's bytes, to decode as records
	kindEntries        // a summarized segment's footer entries
	kindSkip           // no bytes: a segment afterSeq covers, or one that would not open
)

// chunk is one pool slot: a buffer, the piece of a segment read into
// it, and what a decode worker made of that piece. It travels reader →
// decode worker → validator, which puts it back in the pool.
type chunk struct {
	buf  []byte
	seq  int   // dispatch order: the validator consumes chunks in it
	seg  int   // segment index
	kind int   // kind*
	off  int64 // file offset of data[0]
	data []byte
	last bool // the segment's last chunk: readErr and recEnd are set

	firstSeq uint64 // from the header, on a segment's first chunk
	hdrOK    bool
	ft       footer // kindSkip and kindEntries: the segment's footer
	openErr  error
	readErr  bool  // a read failed here: the segment's tail is unread
	recEnd   int64 // where a valid footer at the segment's true end says its records end; -1 without one

	// What the decode made of it: the valid records before stopAt, and
	// those past afterSeq (or the entries) per apply worker.
	records int64
	maxSeq  uint64
	stopAt  int64 // file offset of the bad or partial record that ended the records; -1: none
	out     []*batch
}

// batch is one apply worker's share of a chunk: records, or footer
// entries. The pipeline owns chunkPool × Workers of them.
type batch struct {
	recs    []Record
	sum     Summary
	summary bool
}

// replay is the state the stages of one ReplayPipelineFS call share.
type replay struct {
	fsys     vfs.FS
	afterSeq uint64
	workers  int
	opts     PipelineOptions

	pool    chan *chunk   // free chunks (nil until first used); closed when the validator stops
	batches chan *batch   // free batches (nil until first used)
	work    chan *chunk   // to the decode workers
	ring    []chan *chunk // decoded chunks, by seq % chunkPool
	seq     int           // the reader's next send

	poolBytes, readNs, decodeNs, applyNs atomic.Int64
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

// take returns a free chunk for segment seg; ok=false once the
// validator has stopped and the pool is dry.
func (r *replay) take(seg int) (*chunk, bool) {
	c, ok := <-r.pool
	if !ok {
		return nil, false
	}
	if c == nil {
		c = &chunk{out: make([]*batch, r.workers)}
	}
	*c = chunk{buf: c.buf, out: c.out, seg: seg, stopAt: -1, recEnd: -1}
	return c, true
}

// grow returns c's buffer resliced to n bytes, growing it first if it
// is shorter: a chunk is no bigger than the segments it has held.
func (r *replay) grow(c *chunk, n int) []byte {
	if cap(c.buf) < n {
		r.poolBytes.Add(int64(n - cap(c.buf)))
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

// send hands c to the decode workers, numbered for the validator.
// Its ring slot is free by then: the pool bounds the chunks in flight,
// and the validator takes them in order.
func (r *replay) send(c *chunk) {
	c.seq = r.seq
	r.seq++
	r.work <- c
}

// segStream reads an open segment front to back: with Read, or with
// ReadAt for a second pass over the file.
type segStream struct {
	f        vfs.File
	at       bool
	off      int64 // bytes read so far
	eof, err bool
	ns       *atomic.Int64 // read time, when non-nil
}

// fill reads into buf until it is full, at EOF, or a read fails, and
// returns the bytes read.
func (s *segStream) fill(buf []byte) []byte {
	t := time.Now()
	n := 0
	for n < len(buf) && !s.eof && !s.err {
		var k int
		var err error
		if s.at {
			k, err = s.f.ReadAt(buf[n:], s.off)
		} else {
			k, err = s.f.Read(buf[n:])
		}
		n += k
		s.off += int64(k)
		s.eof, s.err = err == io.EOF, err != nil && err != io.EOF
	}
	if s.ns != nil {
		s.ns.Add(time.Since(t).Nanoseconds())
	}
	return buf[:n]
}

// readSegment sends the idx-th segment down the pipeline — chunks of
// records, a skip, or a summary's entries — and reports whether the
// reader goes on: not past an open error, nor once the validator has
// stopped and the pool is dry.
func (r *replay) readSegment(idx int, path string) bool {
	c, ok := r.take(idx)
	if !ok {
		return false
	}
	size, _ := r.fsys.Stat(path)
	f, err := r.fsys.Open(path)
	if err != nil {
		c.kind, c.openErr, c.last = kindSkip, fmt.Errorf("wal: replay: %w", err), true
		r.send(c)
		return false
	}
	defer f.Close()
	ft, ftOK := readTail(f, size)
	if ftOK && ft.records > 0 && ft.maxSeq <= r.afterSeq {
		c.kind, c.ft, c.firstSeq, c.hdrOK, c.last = kindSkip, ft, ft.minSeq, true, true
		r.send(c)
		return true
	}
	s := segStream{f: f, ns: &r.readNs}
	limit := int64(-1)
	if ftOK {
		limit = segHeaderSize + ft.records*RecordSize
		if r.summarize(&s, c, ft) {
			return true
		}
	}
	for {
		base, n := int64(0), int64(chunkRecords*RecordSize)
		if c.off = s.off; c.off == 0 {
			base, n = segHeaderSize, n+segHeaderSize
		}
		if rest := size - c.off - base + 1; rest > 0 && rest < n-base {
			// The segment ends in this chunk, by Stat: room for its records
			// and one more byte, so the read that sees EOF lands here too.
			n = base + (rest+RecordSize-1)/RecordSize*RecordSize
		}
		if c.data = s.fill(r.grow(c, int(n))); limit >= 0 {
			c.data = c.data[:min(max(limit-c.off, 0), int64(len(c.data)))]
		}
		if s.eof || s.err {
			if s.off != size { // the footer, if any, is at the size read
				ft, ftOK = readTail(f, s.off)
			}
			if c.last, c.readErr = true, s.err; ftOK {
				c.recEnd = segHeaderSize + ft.records*RecordSize
			}
			r.send(c)
			return true
		}
		r.send(c)
		if c, ok = r.take(idx); !ok {
			return false
		}
	}
}

// summarize tries a sealed segment's footer ft in place of its
// records: when it has entries that fit a chunk and covers only
// records past afterSeq and Floor, it reads the body through c, folding
// it into the CRC, and the entries last into c. If the CRC and the
// header check out it sends c and reports true; otherwise c and s are
// ready for the records to be decoded, from the top.
func (r *replay) summarize(s *segStream, c *chunk, ft footer) bool {
	end := ft.bodyLen()
	entStart := end - int64(ft.entries)*entrySize
	if ft.entries == 0 || r.opts.ApplySummary == nil || ft.minSeq <= max(r.afterSeq, r.opts.Floor) ||
		end-entStart > int64(chunkBytes()) {
		return false
	}
	crc := uint32(0)
	for s.off < end && !s.eof && !s.err {
		upTo := end
		if s.off < entStart {
			upTo = min(entStart, s.off+int64(chunkBytes()))
		}
		c.off = s.off
		if c.data = s.fill(r.grow(c, int(upTo-c.off))); c.off == 0 {
			c.firstSeq, c.hdrOK = parseSegmentHeader(c.data)
		}
		t := time.Now()
		crc = crc32.Update(crc, crcTable, c.data)
		r.readNs.Add(time.Since(t).Nanoseconds())
	}
	if s.off != end || crc != ft.bodyCRC || !c.hdrOK {
		*s = segStream{f: s.f, at: true, ns: s.ns}
		return false
	}
	c.kind, c.ft, c.last = kindEntries, ft, true
	r.send(c)
	return true
}

// decode turns one chunk into what the validator needs: its records
// verified one by one, stopping at the first torn or corrupted one,
// with those the caller wants — seq past afterSeq — sorted into one
// batch per apply worker; or a footer's entries, one share per worker,
// worker 0's carrying the segment's counts.
func (r *replay) decode(c *chunk) {
	data, off := c.data, c.off
	switch c.kind {
	case kindSkip:
		return
	case kindEntries:
		c.out[0] = r.takeBatch(true)
		c.out[0].sum.Records, c.out[0].sum.Allocs, c.out[0].sum.Frees = c.ft.records, c.ft.allocs, c.ft.frees
		le := binary.LittleEndian
		for e := data; len(e) >= entrySize; e = e[entrySize:] {
			bd := BinDelta{Bin: le.Uint32(e), Delta: int16(le.Uint16(e[4:])),
				Low: int16(le.Uint16(e[6:])), High: int16(le.Uint16(e[8:]))}
			w := r.worker(Record{Bin: bd.Bin})
			if c.out[w] == nil {
				c.out[w] = r.takeBatch(true)
			}
			c.out[w].sum.Entries = append(c.out[w].sum.Entries, bd)
		}
		return
	}
	if off == 0 {
		if c.firstSeq, c.hdrOK = parseSegmentHeader(data); !c.hdrOK {
			c.stopAt = 0 // torn at segment birth
			return
		}
		data, off = data[segHeaderSize:], segHeaderSize
	}
	n := len(data) / RecordSize
	for i := 0; i < n; i++ {
		rec, ok := DecodeRecord(data[i*RecordSize : (i+1)*RecordSize])
		if !ok {
			c.stopAt = off + int64(i*RecordSize)
			return
		}
		c.records++
		c.maxSeq = max(c.maxSeq, rec.Seq)
		if rec.Seq <= r.afterSeq || r.opts.ApplyBatch == nil {
			continue
		}
		w := r.worker(rec)
		if c.out[w] == nil {
			c.out[w] = r.takeBatch(false)
			if cap(c.out[w].recs) == 0 {
				rest := n - i // an even share of what is left, and a margin
				if r.opts.Partition != nil {
					rest /= r.workers
				}
				c.out[w].recs = make([]Record, 0, rest+rest/8+16)
			}
		}
		c.out[w].recs = append(c.out[w].recs, rec)
	}
	if len(data)%RecordSize != 0 {
		c.stopAt = off + int64(n*RecordSize) // a partial record
	}
}

// takeBatch returns a free batch, waiting for an apply worker to hand
// one back if there is none.
func (r *replay) takeBatch(summary bool) *batch {
	b := <-r.batches
	if b == nil {
		b = &batch{}
	}
	b.summary = summary
	return b
}

// recycle empties b and puts it back in the pool.
func (r *replay) recycle(b *batch) {
	b.recs = b.recs[:0]
	b.sum = Summary{Entries: b.sum.Entries[:0]}
	r.batches <- b
}

// ReplayPipelineFS is the WAL replay: it walks the segments of dir in
// order and hands every valid record with Seq > afterSeq to
// opts.ApplyBatch, or a sealed segment's footer sums to
// opts.ApplySummary in place of its records. A reader goroutine reads
// each segment's footer tail, skips a segment whose records afterSeq
// all covers, checks a summarizable one's bytes against its footer's
// CRC, and streams the others in record-aligned chunks; decode workers
// verify CRCs, drop the records afterSeq covers and partition the rest
// (or the footer's entries), each taking whichever chunk comes next;
// and a sequential validator — consuming the chunks strictly in file
// order — decides once per segment whether it is sound to apply, then
// hands each chunk's batches to opts.Workers apply workers as it
// passes, so a segment's apply starts at its first chunk. Records (and
// entries) of one partition are always applied, in file order, by one
// worker, so callers whose partitions commute (the store's index
// stripes) get a final state that does not depend on the worker count;
// Workers == 1 is the same pipeline with a single apply lane. Chunks
// and record batches come from pools of fixed size owned by this call
// (see chunkPool), so the replay's memory depends on neither the log's
// length nor its segments' size.
//
// A torn or corrupted record (CRC mismatch, partial tail, or bad
// segment header) ends the current segment without error and sets
// stats.Torn; a valid footer is a clean end. Replay continues into a
// later segment — after a torn tail or a clean end alike — only when
// that segment's header proves no record would be skipped (see
// opensGap), and stops for good at the first segment that would:
// recovery is "everything reachable without skipping a record". The
// records past a gap stay on disk but are unsound to apply until a
// checkpoint covers it. The reader is by then as far past the gap as
// the pool is deep, and stops there: when the validator stops it
// closes the pool, and the reader goes on for exactly the chunks left
// in it, so how far a replay reads past a gap depends on the directory
// alone, never on goroutine timing (the schedule explorer counts on
// that). A summarized segment whose bytes do not match its footer is
// read again from the top and decoded.
//
// On an ApplyBatch or ApplySummary error the pipeline stops and returns
// the first error observed; records already handed to other workers
// may or may not have been applied, so the store's state is unspecified
// and stats are best-effort. A segment that cannot be opened is fatal
// too, after the sound prefix before it was applied.
//
// Stage totals are returned in stats and observed into the
// wal.replay.read_ns / wal.replay.decode_ns / wal.replay.apply_ns
// timers, and the worker count into the wal.replay.workers gauge.
func ReplayPipelineFS(fsys vfs.FS, dir string, afterSeq uint64, opts PipelineOptions) (ReplayStats, error) {
	workers := max(opts.Workers, 1)
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

	// A chunk holds at most one batch per apply worker, so with that
	// many batches per chunk a decode worker only ever waits for an
	// apply worker to finish one. The work queue holds every chunk in
	// flight, so the reader never waits on a decode worker.
	r := &replay{fsys: fsys, afterSeq: afterSeq, workers: workers, opts: opts,
		pool: make(chan *chunk, chunkPool), batches: make(chan *batch, chunkPool*workers),
		work: make(chan *chunk, chunkPool), ring: make([]chan *chunk, chunkPool)}
	for i := range r.ring {
		r.pool <- nil
		r.ring[i] = make(chan *chunk, 1)
	}
	for i := 0; i < cap(r.batches); i++ {
		r.batches <- nil
	}
	stop := make(chan struct{})

	// Read stage: stops after a fatal open error (the validator fails at
	// that segment; nothing past it can be applied).
	go func() {
		defer close(r.work)
		for i, p := range paths {
			if !r.readSegment(i, p) {
				return
			}
		}
	}()

	// Decode stage: CRC verification is the CPU-heavy part of replay,
	// and chunks decode independently.
	var decodeWg sync.WaitGroup
	for i := 0; i < decoders; i++ {
		decodeWg.Add(1)
		go func() {
			defer decodeWg.Done()
			for c := range r.work {
				select {
				case <-stop: // read past a gap: nobody will look
				default:
					t := time.Now()
					r.decode(c)
					r.decodeNs.Add(time.Since(t).Nanoseconds())
				}
				r.ring[c.seq%chunkPool] <- c // cap 1, sole sender: never blocks
			}
		}()
	}

	// Apply stage: one goroutine per worker, fed batch by batch. After
	// an error the workers keep draining (so the validator never blocks
	// on a full channel) but apply nothing further.
	applyCh := make([]chan *batch, workers)
	for w := range applyCh {
		applyCh[w] = make(chan *batch, 4)
	}
	var applyErr atomic.Pointer[error] // the first apply error
	var applyWg sync.WaitGroup
	for w := 0; w < workers; w++ {
		applyWg.Add(1)
		go func(w int) {
			defer applyWg.Done()
			for b := range applyCh[w] {
				if applyErr.Load() == nil {
					t := time.Now()
					var err error
					if b.summary {
						err = opts.ApplySummary(w, b.sum)
					} else {
						err = opts.ApplyBatch(w, b.recs)
					}
					r.applyNs.Add(time.Since(t).Nanoseconds())
					if err != nil {
						applyErr.CompareAndSwap(nil, &err)
					}
				}
				r.recycle(b)
			}
		}(w)
	}

	// Sequential validator: the single place replay decisions are made.
	// It consumes chunks in file order, so stats.LastSeq/Torn evolve as
	// in a plain front-to-back walk whatever the decode interleaving,
	// and only batches of segments it admits, up to their first bad
	// record, reach the apply workers.
	var finalErr error
	var (
		seg     = -1 // the segment the chunks are of
		records int64
		maxSeq  uint64
		stopAt  int64
	)
	for next := 0; ; next++ {
		if applyErr.Load() != nil {
			break
		}
		c := <-r.ring[next%chunkPool]
		if c.seg != seg {
			seg = c.seg
			// An unreadable header falls through: nothing is applied from
			// such a segment, so contiguity is preserved.
			if c.hdrOK && opensGap(c.firstSeq, max(stats.LastSeq, afterSeq)) {
				break
			}
			stats.Segments++
			if finalErr = c.openErr; finalErr != nil {
				break // the reader stopped here too
			}
			records, maxSeq, stopAt = 0, 0, -1
			if c.kind == kindSkip || c.kind == kindEntries {
				records, maxSeq = c.ft.records, c.ft.maxSeq
			}
		}
		// Blocking sends are safe: workers always drain their channel,
		// discarding batches after an error.
		live := stopAt < 0
		if c.kind == kindRecords && live {
			records += c.records
			maxSeq = max(maxSeq, c.maxSeq)
			stopAt = c.stopAt
		}
		for w, b := range c.out {
			if b == nil {
				continue
			}
			c.out[w] = nil
			if !live {
				r.recycle(b)
				continue
			}
			stats.Applied += int64(len(b.recs))
			applyCh[w] <- b
		}
		if c.last {
			stats.Records += records
			stats.LastSeq = max(stats.LastSeq, maxSeq)
			switch c.kind {
			case kindSkip:
				stats.Skipped++
			case kindEntries:
				stats.Summarized++
				stats.Applied += records
			default:
				stats.Decoded++
				// A valid footer is a clean end; without one the
				// records must run to EOF.
				stats.Torn = stats.Torn || c.readErr || stopAt >= 0 && stopAt != c.recEnd
			}
		}
		done := c.last && seg == len(paths)-1
		r.pool <- c
		if done {
			break
		}
	}

	close(stop)
	close(r.pool)
	for _, ch := range applyCh {
		close(ch)
	}
	applyWg.Wait()
	decodeWg.Wait()

	stats.ReadNs, stats.DecodeNs, stats.ApplyNs = r.readNs.Load(), r.decodeNs.Load(), r.applyNs.Load()
	stats.PoolBytes = r.poolBytes.Load()
	metrics.ObserveTimer("wal.replay.read_ns", time.Duration(stats.ReadNs))
	metrics.ObserveTimer("wal.replay.decode_ns", time.Duration(stats.DecodeNs))
	metrics.ObserveTimer("wal.replay.apply_ns", time.Duration(stats.ApplyNs))

	if p := applyErr.Load(); finalErr == nil && p != nil {
		finalErr = *p
	}
	return stats, finalErr
}
