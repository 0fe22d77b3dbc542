package wal

import (
	"fmt"
	"io"

	"dynalloc/internal/vfs"
)

// This file is the log's read-only streaming surface, built for the
// replication layer (internal/replica): segment enumeration for the
// primary's streamer, and a tail-follow reader that turns a live log
// directory into an ordered record stream without the streamer ever
// groveling the directory layout itself.

// SegmentInfo describes one on-disk segment.
type SegmentInfo struct {
	Path     string
	FirstSeq uint64 // from the header: the seq the segment was opened for
	Size     int64  // current size in bytes (header included)
}

// SegmentsFS enumerates the valid-headered segments of dir in
// first-seq order. Files the segment glob does not match — notably the
// `.dead.N` names a crash collision leaves behind — are excluded by
// construction, and files whose header is missing or torn are skipped
// (replay applies nothing from them either).
func SegmentsFS(fsys vfs.FS, dir string) ([]SegmentInfo, error) {
	paths, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("wal: segments: %w", err)
	}
	out := make([]SegmentInfo, 0, len(paths))
	for _, p := range paths {
		first, ok := readSegmentFirstSeq(fsys, p)
		if !ok {
			continue
		}
		size, err := fsys.Stat(p)
		if err != nil {
			continue // raced with truncation: gone is just absent
		}
		out = append(out, SegmentInfo{Path: p, FirstSeq: first, Size: size})
	}
	return out, nil
}

// Seal flushes, fsyncs (unless the policy is FsyncNever) and closes
// the current segment; the next append opens a fresh one. A follower
// mirrors the primary's rotation points by calling Seal on its local
// log when the stream announces a segment boundary.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.sealLocked(); err != nil {
		l.abortSegmentLocked()
		return err
	}
	return nil
}

// TailEvent classifies what TailReader.Next produced.
type TailEvent uint8

const (
	// TailCaughtUp: the reader is at the live end of the log; poll
	// again after a delay.
	TailCaughtUp TailEvent = iota
	// TailSegment: a segment boundary; TailResult.FirstSeq is its
	// header seq. Emitted before the segment's records.
	TailSegment
	// TailRecords: TailResult.Records holds 1..max decoded records in
	// file order, which is seq order (see the package comment).
	TailRecords
	// TailGap: the next segment's header opens a true seq gap —
	// records were truncated or lost under the reader. The stream
	// cannot continue soundly; the caller must resync (snapshot).
	TailGap
)

// TailResult is one TailReader.Next outcome. Records aliases an
// internal buffer, valid until the next call.
type TailResult struct {
	Event    TailEvent
	FirstSeq uint64
	Records  []Record
}

// TailReader follows a live log directory as an ordered record stream:
// the record walk of ReplayPipelineFS — including its seq-continuity
// rule at every segment boundary, and a sealed segment's footer read
// as the end of its records — but incremental, holding its
// position at the live tail and picking up appended bytes and new
// segments as they arrive. A record split across two flushes is held
// as a partial until the rest lands; a torn or corrupted record parks
// the reader until a successor segment proves continuity (the crash →
// heal-onto-fresh-segment layout) or opens a gap (TailGap).
//
// It is single-goroutine; the replication streamer owns one per
// subscription.
type TailReader struct {
	fsys  vfs.FS
	dir   string
	after uint64 // subscription floor: records with Seq <= after are skipped

	covered uint64 // max(after, highest valid seq seen) — the continuity watermark

	f       vfs.File
	curPath string
	hdrRead bool
	torn    bool // current segment ended in a torn/corrupt record; await successor

	buf  []byte // unconsumed stream bytes buf[r:w]; partial records persist here
	r, w int
	out  []Record // grow-only result buffer
}

// tailBufSize is the read-chunk size: large enough that catch-up
// streaming is not syscall-bound.
const tailBufSize = 1 << 16

// NewTailReaderFS returns a TailReader over dir that yields records
// with Seq > afterSeq.
func NewTailReaderFS(fsys vfs.FS, dir string, afterSeq uint64) *TailReader {
	return &TailReader{
		fsys:    fsys,
		dir:     dir,
		after:   afterSeq,
		covered: afterSeq,
		buf:     make([]byte, tailBufSize),
	}
}

// Covered returns the continuity watermark: the highest seq the reader
// has decoded (or the subscription floor if higher).
func (t *TailReader) Covered() uint64 { return t.covered }

// Close releases the open segment handle.
func (t *TailReader) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Next advances the stream and returns the next event: a segment
// boundary, a batch of up to max records, caught-up (poll later), or a
// gap (resync required). Filesystem errors are returned as errors; the
// reader stays usable and the caller may retry.
func (t *TailReader) Next(max int) (TailResult, error) {
	if max <= 0 {
		max = 1
	}
	for {
		if t.f == nil || t.torn {
			res, err := t.advance()
			return res, err
		}
		if !t.hdrRead {
			res, done, err := t.readHeader()
			if err != nil || done {
				return res, err
			}
			continue
		}
		// Decode complete records out of the buffer, filling as needed.
		// Once a successor segment is observed the current one is sealed
		// (appends happen-before rotation), so one more drain round
		// closes the race where bytes landed between our EOF read and
		// the rotation.
		t.out = t.out[:0]
		sawSuccessor := false
		for len(t.out) < max {
			if t.w-t.r < RecordSize {
				n, err := t.fill()
				if err != nil {
					return TailResult{}, err
				}
				if n == 0 {
					if !sawSuccessor && t.successorExists() {
						sawSuccessor = true
						continue
					}
					break // live tail (or drained sealed segment)
				}
				continue
			}
			rec, ok := DecodeRecord(t.buf[t.r : t.r+RecordSize])
			if !ok {
				// Torn/corrupt record: this segment contributes nothing
				// further. Park until a successor proves continuity.
				t.torn = true
				break
			}
			t.r += RecordSize
			if rec.Seq > t.covered {
				t.covered = rec.Seq
			}
			if rec.Seq > t.after {
				t.out = append(t.out, rec)
			}
		}
		if len(t.out) > 0 {
			return TailResult{Event: TailRecords, Records: t.out}, nil
		}
		if t.torn {
			continue // try to advance past the torn segment
		}
		// Fully drained with no records to hand out. A successor means
		// the primary rotated — move on; otherwise we are caught up.
		if !sawSuccessor {
			return TailResult{Event: TailCaughtUp}, nil
		}
		res, err := t.advance()
		return res, err
	}
}

// fill reads more bytes from the current segment handle into the
// buffer, compacting first. It returns the byte count (0 at the live
// EOF — the handle keeps its offset, so a later fill sees appended
// bytes).
func (t *TailReader) fill() (int, error) {
	if t.r > 0 {
		t.w = copy(t.buf, t.buf[t.r:t.w])
		t.r = 0
	}
	if t.w == len(t.buf) {
		return 0, nil // buffer full (cannot happen: tailBufSize >> RecordSize)
	}
	n, err := t.f.Read(t.buf[t.w:])
	t.w += n
	if err != nil && err != io.EOF {
		return n, fmt.Errorf("wal: tail read: %w", err)
	}
	return n, nil
}

// readHeader consumes the current segment's header. done=true means
// the caller should return res to its caller (caught up on a header
// still being written); done=false means the header was consumed and
// reading can proceed.
func (t *TailReader) readHeader() (res TailResult, done bool, err error) {
	sawSuccessor := false
	for t.w-t.r < segHeaderSize {
		n, err := t.fill()
		if err != nil {
			return TailResult{}, true, err
		}
		if n == 0 {
			// Header still being written. A successor segment means this
			// one is sealed; drain once more (the header bytes may have
			// raced our read), then treat a still-short header as torn
			// at birth and move past it.
			if !sawSuccessor && t.successorExists() {
				sawSuccessor = true
				continue
			}
			if sawSuccessor {
				t.torn = true
				return TailResult{}, false, nil
			}
			return TailResult{Event: TailCaughtUp}, true, nil
		}
	}
	first, ok := parseSegmentHeader(t.buf[t.r : t.r+segHeaderSize])
	if !ok {
		t.torn = true // not a segment; contributes nothing
		return TailResult{}, false, nil
	}
	if opensGap(first, t.covered) {
		return TailResult{Event: TailGap, FirstSeq: first}, true, nil // records were lost under us
	}
	t.r += segHeaderSize
	t.hdrRead = true
	return TailResult{Event: TailSegment, FirstSeq: first}, true, nil
}

// successorExists reports whether a segment after curPath is on disk.
func (t *TailReader) successorExists() bool {
	paths, err := listSegments(t.fsys, t.dir)
	if err != nil {
		return false
	}
	for _, p := range paths {
		if p > t.curPath {
			return true
		}
	}
	return false
}

// advance moves to the next segment (the first path after curPath in
// name = first-seq order), skipping unusable segments (bad magic, torn
// at birth) when a successor proves there is more log to read. It
// returns TailSegment (header consumed, records follow), TailCaughtUp
// (nothing further yet — including parked on a torn segment whose
// successor has not appeared), or TailGap.
func (t *TailReader) advance() (TailResult, error) {
	for {
		paths, err := listSegments(t.fsys, t.dir)
		if err != nil {
			return TailResult{}, fmt.Errorf("wal: tail: %w", err)
		}
		var next string
		for _, p := range paths {
			if p > t.curPath {
				next = p
				break
			}
		}
		if next == "" {
			// Nothing past curPath yet. If we are parked on a torn
			// segment the primary may still heal onto a fresh one.
			return TailResult{Event: TailCaughtUp}, nil
		}
		f, err := t.fsys.Open(next)
		if err != nil {
			if vfs.IsNotExist(err) {
				return TailResult{Event: TailCaughtUp}, nil // raced with truncation
			}
			return TailResult{}, fmt.Errorf("wal: tail: %w", err)
		}
		if t.f != nil {
			t.f.Close()
		}
		t.f, t.curPath = f, next
		t.hdrRead, t.torn = false, false
		t.r, t.w = 0, 0
		res, done, err := t.readHeader()
		if err != nil {
			return TailResult{}, err
		}
		if !done {
			continue // unusable segment with a successor: keep moving
		}
		return res, nil // TailSegment, TailCaughtUp or TailGap
	}
}
