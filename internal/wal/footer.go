package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"dynalloc/internal/vfs"
)

// A sealed segment ends in a footer that carries the segment's sum:
//
//	segment = header (16) ‖ records (count × 21) ‖ footer
//	footer  = mark (1) ‖ entries (k × 10) ‖ tail (60)
//	entry   = bin u32 ‖ delta i16 ‖ low i16 ‖ high i16
//	tail    = records u64 ‖ allocs u64 ‖ frees u64 ‖ minSeq u64 ‖
//	          maxSeq u64 ‖ k u32 ‖ bodyCRC u32 ‖ tailCRC u32 ‖ magic (8)
//
// An entry is a bin's net step over the records (+1 alloc, −1 free, +K
// crash) and the minimum and maximum of its running sum, in bin order.
// bodyCRC covers everything before the tail, tailCRC the tail's first
// 48 bytes, and the mark is not a valid Op, so record walkers stop at a
// footer as at a torn tail. Validity, the rules for k and compatibility
// are in docs/SERVING.md, "Segment footers".

const (
	footerMark  = 0xff
	entrySize   = 10
	tailSize    = 60
	tailCRCSpan = 48
)

var footerMagic = [8]byte{'d', 'w', 'a', 'l', 's', 'u', 'm', '1'}

// sumMaxBins caps the writer's per-bin state: a record for a bin past
// it drops the segment's entries, so a forged bin cannot allocate.
const sumMaxBins = 1 << 22

// BinDelta is one footer entry: a bin's net step over a segment, and
// the minimum and maximum its running sum reached.
type BinDelta struct {
	Bin              uint32
	Delta, Low, High int16
}

// Summary is one apply worker's share of a sealed segment: the entries
// of its partition and, on worker 0's share only, the segment's counts.
// The records take a bin holding x0 balls to x0 + Delta + s, skipping
// s = max(0, −(x0+Low)) frees on the empty bin, and peak at x0 + High.
type Summary struct {
	Records, Allocs, Frees int64
	Entries                []BinDelta
}

// footer is a parsed, validated tail.
type footer struct {
	records, allocs, frees int64
	minSeq, maxSeq         uint64
	entries                int
	bodyCRC                uint32
}

// bodyLen is the length of the bytes bodyCRC covers.
func (f footer) bodyLen() int64 {
	return segHeaderSize + f.records*RecordSize + 1 + int64(f.entries)*entrySize
}

// parseTail validates the last tailSize bytes of a size-byte segment.
func parseTail(tail []byte, size int64) (footer, bool) {
	if len(tail) != tailSize || [8]byte(tail[52:]) != footerMagic ||
		crc32.Checksum(tail[:tailCRCSpan], crcTable) != binary.LittleEndian.Uint32(tail[48:52]) {
		return footer{}, false
	}
	le := binary.LittleEndian
	f := footer{
		records: int64(le.Uint64(tail[0:])), allocs: int64(le.Uint64(tail[8:])), frees: int64(le.Uint64(tail[16:])),
		minSeq: le.Uint64(tail[24:]), maxSeq: le.Uint64(tail[32:]),
		entries: int(le.Uint32(tail[40:])), bodyCRC: le.Uint32(tail[44:]),
	}
	if f.records < 0 || f.records > size/RecordSize || f.bodyLen()+tailSize != size {
		return footer{}, false
	}
	return f, true
}

// segmentFooter parses the footer of a whole segment held in memory.
func segmentFooter(seg []byte) (footer, bool) {
	return parseTail(seg[max(0, len(seg)-tailSize):], int64(len(seg)))
}

// readTail reads and validates an open segment's tail in one read.
func readTail(f vfs.File, size int64) (footer, bool) {
	var tail [tailSize]byte
	if _, err := f.ReadAt(tail[:], size-tailSize); err != nil && err != io.EOF {
		return footer{}, false
	}
	return parseTail(tail[:], size)
}

// FooterLen returns the length of the valid footer of seg, a whole
// segment file, or 0 when it has none.
func FooterLen(seg []byte) int {
	f, ok := segmentFooter(seg)
	if !ok {
		return 0
	}
	return len(seg) - segHeaderSize - int(f.records)*RecordSize
}

// segSum accumulates the open segment's footer as its records are
// written: counts, seq range, body CRC, and a dense per-bin running sum
// — 6 bytes a bin, so a sum leaving int16 costs the segment its entries
// — grown on demand up to sumMaxBins and zeroed by the seal's scan.
type segSum struct {
	bins           []binSum
	records        int64
	allocs, frees  int64
	minSeq, maxSeq uint64
	crc            uint32
	inexact        bool   // the entries could not be exact: write the tail alone
	buf            []byte // the footer's staging buffer, reused
}

type binSum struct{ delta, low, high int16 }

// reset starts a segment whose first bytes are hdr.
func (s *segSum) reset(hdr []byte) {
	*s = segSum{bins: s.bins, buf: s.buf, minSeq: math.MaxUint64, crc: crc32.Checksum(hdr, crcTable)}
}

// add folds written records, encoded in buf, into the sum.
func (s *segSum) add(recs []Record, buf []byte) {
	s.crc = crc32.Update(s.crc, crcTable, buf)
	s.records += int64(len(recs))
	for i := range recs {
		r := &recs[i]
		s.minSeq, s.maxSeq = min(s.minSeq, r.Seq), max(s.maxSeq, r.Seq)
		b := int(r.Bin)
		if b >= len(s.bins) && b < sumMaxBins {
			s.bins = append(s.bins, make([]binSum, max(64, 1<<bits.Len(uint(b)))-len(s.bins))...)
		}
		if b >= len(s.bins) {
			s.inexact = true
			continue
		}
		e := &s.bins[b]
		switch {
		case r.Op == OpAlloc && e.high < math.MaxInt16:
			s.allocs++
			e.delta++
			e.high = max(e.high, e.delta)
		case r.Op == OpFree && e.low > math.MinInt16:
			s.frees++
			e.delta--
			e.low = min(e.low, e.delta)
		case r.Op == OpCrash && r.K >= 0 && int(e.delta)+int(r.K) <= math.MaxInt16:
			e.delta += int16(r.K)
			e.high = max(e.high, e.delta)
		default:
			s.inexact = true
		}
	}
}

// write streams the footer through w and zeroes the per-bin state.
func (s *segSum) write(w io.Writer) error {
	k := 0
	for _, e := range s.bins {
		if e != (binSum{}) {
			k++
		}
	}
	if s.inexact || int64(k)*4 > s.records {
		k = 0
	}
	le := binary.LittleEndian
	buf := append(s.buf[:0], footerMark)
	for b, e := range s.bins {
		if e == (binSum{}) {
			continue
		}
		s.bins[b] = binSum{}
		if k == 0 {
			continue
		}
		if len(buf)+entrySize > 32<<10 { // a few writes a footer, not one an entry
			if err := s.emit(w, buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = le.AppendUint16(le.AppendUint32(buf, uint32(b)), uint16(e.delta))
		buf = le.AppendUint16(le.AppendUint16(buf, uint16(e.low)), uint16(e.high))
	}
	if err := s.emit(w, buf); err != nil {
		return err
	}
	t := le.AppendUint64(le.AppendUint64(le.AppendUint64(buf[:0], uint64(s.records)), uint64(s.allocs)), uint64(s.frees))
	t = le.AppendUint32(le.AppendUint32(le.AppendUint64(le.AppendUint64(t, s.minSeq), s.maxSeq), uint32(k)), s.crc)
	t = append(le.AppendUint32(t, crc32.Checksum(t, crcTable)), footerMagic[:]...)
	s.buf = t
	_, err := w.Write(t)
	return err
}

// emit writes body bytes of the footer, folding them into the body CRC.
func (s *segSum) emit(w io.Writer, p []byte) error {
	s.crc = crc32.Update(s.crc, crcTable, p)
	_, err := w.Write(p)
	return err
}
