package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// ReplayStats summarizes one ReplayPipelineFS pass.
type ReplayStats struct {
	Segments int    // segment files visited
	Records  int64  // valid records decoded (including ones skipped by seq)
	Applied  int64  // records handed to the apply callback
	LastSeq  uint64 // highest seq seen (0 if none)
	Torn     bool   // a torn tail or corrupted record was encountered

	// Segments skipped (afterSeq covers them), summarized, decoded.
	Skipped, Summarized, Decoded int

	// Time spent in each stage, summed over the stage's goroutines (so
	// they can exceed the wall time of the pass). Decode includes waiting
	// for a record batch to come back from the apply stage.
	ReadNs, DecodeNs, ApplyNs int64
}

// parseSegmentHeader is the one parser of the on-disk segment header:
// the magic followed by the first record seq the segment was opened
// for. ok=false when hdr is short or carries the wrong magic — a
// segment torn at birth, or not a segment at all; every reader applies
// nothing from such a file.
func parseSegmentHeader(hdr []byte) (firstSeq uint64, ok bool) {
	if len(hdr) < segHeaderSize || [8]byte(hdr[:8]) != segMagic {
		return 0, false
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), true
}

// opensGap is the continuity rule every segment walker checks at EVERY
// segment boundary, torn predecessor or not, first segment included: a
// header opening past covered+1 — covered being the highest seq already
// accounted for (valid records seen, or the caller's checkpoint seq) —
// means records are missing, and everything from that segment on is
// unsound to apply. The shapes that produce it: a head segment whose
// predecessors were truncated (or whose first append was aborted), and
// a segment aborted after a failed append whose bytes never reached the
// disk, which the log heals past by opening a fresh segment for the
// next append (see Log.abortSegmentLocked). The opposite case matters
// as much: the crash → restore → traffic → crash-again layout leaves a
// torn pre-crash segment under a post-restore segment that opens at the
// restored seq + 1, and that one must be walked into.
func opensGap(firstSeq, covered uint64) bool { return firstSeq > covered+1 }

// RemoveStaleFS deletes every segment that replay pinned at lastSeq
// (the seq the restored state is consistent with) can never soundly
// apply: those whose header firstSeq opens past lastSeq. Such a
// suffix arises when replay stops at a seq gap — a record dropped by
// an aborted append left segments on disk that are unsound to apply.
// It must be removed at restore time, BEFORE the log reopens: the next
// incarnation re-issues seqs from lastSeq+1, so a stale suffix left
// behind overlaps the new history's seq range, and a later replay
// would walk the stale segment (its firstSeq looks contiguous against
// the new, higher covered seq) and apply records from the dead
// timeline on top of the live one. Nothing acknowledged durable is
// lost: the journal's error froze the durable watermark before the
// gap, so every record past it was never acknowledged. Segments with
// unreadable headers are left alone — replay applies nothing from
// them, and a name collision with a future segment truncates them.
func RemoveStaleFS(fsys vfs.FS, dir string, lastSeq uint64) (int, error) {
	paths, err := listSegments(fsys, dir)
	if err != nil {
		return 0, fmt.Errorf("wal: remove stale: %w", err)
	}
	removed := 0
	for _, p := range paths {
		first, ok := readSegmentFirstSeq(fsys, p)
		if !ok || first <= lastSeq {
			continue
		}
		if err := fsys.Remove(p); err != nil {
			return removed, fmt.Errorf("wal: remove stale: %w", err)
		}
		removed++
	}
	if removed > 0 {
		// The unlinks must be durable before the log reopens: without the
		// directory fsync a power cut resurrects the stale segments —
		// now overlapping the seqs the new incarnation has re-issued.
		if err := fsys.SyncDir(dir); err != nil {
			return removed, fmt.Errorf("wal: remove stale: %w", err)
		}
		metrics.AddCounter("wal.segment.stale_removed", int64(removed))
	}
	return removed, nil
}

// readSegmentFirstSeq reads just a segment's header and returns the
// first record seq it was opened for; ok=false when the header is
// missing, truncated or has the wrong magic.
func readSegmentFirstSeq(fsys vfs.FS, path string) (uint64, bool) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var hdr [segHeaderSize]byte
	n, _ := io.ReadFull(f, hdr[:])
	return parseSegmentHeader(hdr[:n])
}

// segmentInfo reads what TruncateThrough needs of a segment: its
// footer's tail, or — without a valid footer — its header and valid
// records, streamed so a checkpoint never pulls a whole segment into
// the heap.
func segmentInfo(fsys vfs.FS, path string) (d decodedSegment, err error) {
	size, _ := fsys.Stat(path)
	f, err := fsys.Open(path)
	if err != nil {
		return d, err
	}
	defer f.Close()
	if ft, ok := readTail(f, size); ok && ft.records > 0 {
		return decodedSegment{firstSeq: ft.minSeq, records: ft.records, maxSeq: ft.maxSeq}, nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var buf [RecordSize]byte
	n, _ := io.ReadFull(br, buf[:segHeaderSize])
	d.firstSeq, d.hdrOK = parseSegmentHeader(buf[:n])
	for d.hdrOK {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			break
		}
		rec, ok := DecodeRecord(buf[:])
		if !ok {
			break
		}
		d.records, d.maxSeq = d.records+1, max(d.maxSeq, rec.Seq)
	}
	return d, nil
}
