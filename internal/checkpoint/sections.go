// Checkpoint format version 2, the only format WriteFS produces: the
// striped-checkpoint layout. A v2 file carries a CRC-sealed header
// (seq, counters, bin count) plus a section table — one entry per lock
// stripe of the store that wrote it, or a single entry for a snapshot
// taken at one uniform watermark — where each
// section records the bin range it covers, the WAL seq watermark its
// copy is consistent with, and a CRC32C over its own loads payload.
// Per-section CRCs are what make encode and decode parallelizable:
// every section verifies and parses independently, so a large
// checkpoint loads on all cores.
//
// The file is still written via temp + fsync + rename (one atomic
// unit); sections change what is *inside* the file, not the crash
// atomicity of writing it. A power cut between section writes leaves
// only a stray temp file, and restore falls back to the previous
// checkpoint.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
)

// Section is one stripe of a v2 checkpoint: the bin range [Lo, Hi) and
// the WAL seq watermark the stripe's copy is consistent with — every
// record targeting a bin in the range with seq <= Watermark is
// reflected in the section's loads, none with a higher seq is.
type Section struct {
	Lo        int
	Hi        int
	Watermark uint64
}

// magicV2 identifies a sectioned (format version 2) checkpoint file.
var magicV2 = [8]byte{'d', 'c', 'k', 'p', 't', '0', '0', '2'}

// v2HeaderSize is magic(8) + seq(8) + allocs(8) + frees(8) + n(4) +
// nsections(4) + header crc(4).
const v2HeaderSize = 8 + 8 + 8 + 8 + 4 + 4 + 4

// v2SectionSize is one section table entry: lo(4) + hi(4) +
// watermark(8) + payload crc(4).
const v2SectionSize = 4 + 4 + 8 + 4

// WatermarkFor returns the seq watermark governing bin: the section's
// watermark when the snapshot is sectioned, Seq otherwise (an
// in-memory snapshot without sections has one uniform watermark).
func (s *Snapshot) WatermarkFor(bin int) uint64 {
	secs := s.Sections
	lo, hi := 0, len(secs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case bin < secs[mid].Lo:
			hi = mid
		case bin >= secs[mid].Hi:
			lo = mid + 1
		default:
			return secs[mid].Watermark
		}
	}
	return s.Seq
}

// MaxWatermark returns the highest section watermark (Seq when the
// snapshot has no sections). Restore uses it to decide whether any
// per-record watermark filtering is needed at all.
func (s *Snapshot) MaxWatermark() uint64 {
	max := s.Seq
	for _, sec := range s.Sections {
		if sec.Watermark > max {
			max = sec.Watermark
		}
	}
	return max
}

// validateSections checks that a snapshot's sections tile [0, n)
// contiguously in ascending order (none at all when n == 0) and that
// no watermark is below Seq. WriteFS refuses to persist a snapshot
// that would not decode.
func validateSections(s Snapshot) error {
	n := len(s.Loads)
	prev := 0
	for i, sec := range s.Sections {
		if sec.Lo != prev || sec.Hi <= sec.Lo || sec.Hi > n {
			return fmt.Errorf("checkpoint: section %d range [%d,%d) does not tile %d bins", i, sec.Lo, sec.Hi, n)
		}
		if sec.Watermark < s.Seq {
			return fmt.Errorf("checkpoint: section %d watermark %d below snapshot seq %d", i, sec.Watermark, s.Seq)
		}
		prev = sec.Hi
	}
	if prev != n {
		return fmt.Errorf("checkpoint: sections cover %d of %d bins", prev, n)
	}
	return nil
}

// forSections runs fn for every section index, in parallel when the
// payload is large enough for the goroutines to pay for themselves.
// The first error wins; fn must be safe to run concurrently for
// distinct indices.
func forSections(nsec, bins int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), nsec, 8)
	if workers < 2 || bins < 1<<15 {
		for i := 0; i < nsec; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < nsec; i += workers {
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// encodeV2 serializes a snapshot into chunks: the header + section
// table first, then one chunk per section's loads payload. A snapshot
// without sections is one section [0, n) whose watermark is Seq, so
// restore's MaxWatermark() > Seq test still skips per-record filtering.
// WriteFS issues one Write per chunk, so a simulated power cut can
// land between any two section writes — the torn temp file never
// becomes visible (rename happens after all writes + fsync), which the
// crash tests pin. Section payload CRCs are computed in parallel.
func encodeV2(s Snapshot) ([][]byte, error) {
	if len(s.Sections) == 0 && len(s.Loads) > 0 {
		s.Sections = []Section{{Lo: 0, Hi: len(s.Loads), Watermark: s.Seq}}
	}
	if err := validateSections(s); err != nil {
		return nil, err
	}
	nsec := len(s.Sections)
	head := make([]byte, v2HeaderSize+v2SectionSize*nsec+4)
	copy(head[:8], magicV2[:])
	binary.LittleEndian.PutUint64(head[8:16], s.Seq)
	binary.LittleEndian.PutUint64(head[16:24], uint64(s.Allocs))
	binary.LittleEndian.PutUint64(head[24:32], uint64(s.Frees))
	binary.LittleEndian.PutUint32(head[32:36], uint32(len(s.Loads)))
	binary.LittleEndian.PutUint32(head[36:40], uint32(nsec))
	binary.LittleEndian.PutUint32(head[40:44], crc32.Checksum(head[:40], crcTable))

	chunks := make([][]byte, 1+nsec)
	chunks[0] = head
	err := forSections(nsec, len(s.Loads), func(i int) error {
		sec := s.Sections[i]
		payload := make([]byte, 4*(sec.Hi-sec.Lo))
		for j, l := range s.Loads[sec.Lo:sec.Hi] {
			binary.LittleEndian.PutUint32(payload[4*j:], uint32(l))
		}
		ent := head[v2HeaderSize+v2SectionSize*i:]
		binary.LittleEndian.PutUint32(ent[0:4], uint32(sec.Lo))
		binary.LittleEndian.PutUint32(ent[4:8], uint32(sec.Hi))
		binary.LittleEndian.PutUint64(ent[8:16], sec.Watermark)
		binary.LittleEndian.PutUint32(ent[16:20], crc32.Checksum(payload, crcTable))
		chunks[1+i] = payload
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl := head[v2HeaderSize : v2HeaderSize+v2SectionSize*nsec]
	binary.LittleEndian.PutUint32(head[len(head)-4:], crc32.Checksum(tbl, crcTable))
	return chunks, nil
}

// decodeV2 parses and validates a sectioned checkpoint file. Sections
// verify their CRCs and decode their loads in parallel. Every length
// is validated against the actual buffer before any allocation sized
// from file contents.
func decodeV2(buf []byte) (Snapshot, error) {
	if len(buf) < v2HeaderSize+4 {
		return Snapshot{}, errors.New("checkpoint: v2 file too short")
	}
	if crc32.Checksum(buf[:40], crcTable) != binary.LittleEndian.Uint32(buf[40:44]) {
		return Snapshot{}, errors.New("checkpoint: v2 header CRC mismatch")
	}
	n := int(binary.LittleEndian.Uint32(buf[32:36]))
	nsec := int(binary.LittleEndian.Uint32(buf[36:40]))
	want := uint64(v2HeaderSize) + uint64(v2SectionSize)*uint64(nsec) + 4 + 4*uint64(n)
	if uint64(len(buf)) != want {
		return Snapshot{}, fmt.Errorf("checkpoint: v2 size %d does not match n=%d nsec=%d", len(buf), n, nsec)
	}
	tbl := buf[v2HeaderSize : v2HeaderSize+v2SectionSize*nsec]
	if crc32.Checksum(tbl, crcTable) != binary.LittleEndian.Uint32(buf[v2HeaderSize+v2SectionSize*nsec:]) {
		return Snapshot{}, errors.New("checkpoint: v2 section table CRC mismatch")
	}
	s := Snapshot{
		Seq:      binary.LittleEndian.Uint64(buf[8:16]),
		Allocs:   int64(binary.LittleEndian.Uint64(buf[16:24])),
		Frees:    int64(binary.LittleEndian.Uint64(buf[24:32])),
		Loads:    make([]int32, n),
		Sections: make([]Section, nsec),
	}
	prev := 0
	for i := range s.Sections {
		ent := tbl[v2SectionSize*i:]
		sec := Section{
			Lo:        int(binary.LittleEndian.Uint32(ent[0:4])),
			Hi:        int(binary.LittleEndian.Uint32(ent[4:8])),
			Watermark: binary.LittleEndian.Uint64(ent[8:16]),
		}
		if sec.Lo != prev || sec.Hi <= sec.Lo || sec.Hi > n {
			return Snapshot{}, fmt.Errorf("checkpoint: v2 section %d range [%d,%d) does not tile %d bins", i, sec.Lo, sec.Hi, n)
		}
		prev = sec.Hi
		s.Sections[i] = sec
	}
	if prev != n {
		return Snapshot{}, fmt.Errorf("checkpoint: v2 sections cover %d of %d bins", prev, n)
	}
	payload := buf[len(buf)-4*n:]
	err := forSections(nsec, n, func(i int) error {
		sec := s.Sections[i]
		body := payload[4*sec.Lo : 4*sec.Hi]
		ent := tbl[v2SectionSize*i:]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(ent[16:20]) {
			return fmt.Errorf("checkpoint: v2 section %d payload CRC mismatch", i)
		}
		for j := range s.Loads[sec.Lo:sec.Hi] {
			s.Loads[sec.Lo+j] = int32(binary.LittleEndian.Uint32(body[4*j:]))
		}
		return nil
	})
	if err != nil {
		return Snapshot{}, err
	}
	return s, nil
}
