package wal_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// fuzzBins is the store the fuzzed directories restore into; records
// for bins fuzzBins..fuzzBins+3 are out of range.
const fuzzBins = 8

// fuzzRecords turns fuzz bytes into a record stream, six bytes a
// record: the op (an unknown one now and then), the bin (out of range
// now and then), a crash size that can be negative or near 2^31, and a
// seq step of 1, or 0 (a duplicate) or 2 (a hole) now and then.
func fuzzRecords(ops []byte) []wal.Record {
	var recs []wal.Record
	seq := uint64(0)
	for ; len(ops) >= 6 && len(recs) < 240; ops = ops[6:] {
		r := wal.Record{Op: wal.OpAlloc, Bin: uint32(ops[1] % fuzzBins), K: 1}
		switch ops[0] % 8 {
		case 3, 4, 5:
			r.Op = wal.OpFree
		case 6:
			r.Op = wal.OpCrash
			r.K = int32(int16(binary.LittleEndian.Uint16(ops[2:]))) << (ops[4] % 20)
		case 7:
			r.Op = wal.Op(4 + ops[2]%8)
		}
		if ops[1] >= 250 {
			r.Bin = fuzzBins + uint32(ops[1]%4)
		}
		switch ops[5] % 16 {
		case 0:
		case 1:
			seq += 2
		default:
			seq++
		}
		r.Seq = max(seq, 1)
		recs = append(recs, r)
	}
	return recs
}

// fuzzModel is what a restore of dir must produce, computed the oldest
// way there is: each segment read from the front, record by record,
// stopping at the first bad one and at the first header that opens a
// seq gap, applying through the replay's rules one record at a time,
// and refusing a store that ends up past the ball bound.
type fuzzModel struct {
	loads                  []int
	allocs, frees, skipped int64
	last                   uint64
	refused                bool
}

func replayModel(files [][]byte) fuzzModel {
	m := fuzzModel{loads: make([]int, fuzzBins)}
	for _, data := range files {
		if len(data) < 16 || string(data[:8]) != "dwalseg1" {
			continue
		}
		if binary.LittleEndian.Uint64(data[8:16]) > m.last+1 {
			break
		}
		for off := 16; off+wal.RecordSize <= len(data); off += wal.RecordSize {
			r, ok := wal.DecodeRecord(data[off : off+wal.RecordSize])
			if !ok {
				break
			}
			m.last = max(m.last, r.Seq)
			if int(r.Bin) >= fuzzBins || r.Op == wal.OpCrash && r.K < 0 {
				m.refused = true
				return m
			}
			l := &m.loads[r.Bin]
			switch {
			case r.Op == wal.OpFree && *l == 0:
				m.skipped++
			case r.Op == wal.OpFree:
				*l--
				m.frees++
			case int64(*l)+int64(r.K) > math.MaxInt32:
				m.refused = true
				return m
			default:
				*l += int(r.K)
				if r.Op == wal.OpAlloc {
					m.allocs++
				}
			}
		}
	}
	total := 0
	for _, l := range m.loads {
		total += l
	}
	m.refused = total > math.MaxInt32
	return m
}

// fuzzChunks are the replay chunk sizes, in records, every fuzzed
// directory restores at besides the replay's own: at 2 a footer of
// more than 5 entries spans two chunks, so its segment is decoded; at
// 7 it fits, and a 64-record segment breaks across chunks at record
// offsets that move with every segment.
var fuzzChunks = []int{2, 7}

// restoreAgainst restores files, as the segments at paths, into a fresh
// store at the replay's chunk size and at each of fuzzChunks, checks
// every restore against the model, and returns the restores' Torn flag,
// which must not depend on the chunk size.
func restoreAgainst(t *testing.T, paths []string, files [][]byte, m fuzzModel, how string) bool {
	torn := restoreAt(t, paths, files, m, how)
	for _, n := range fuzzChunks {
		chunkTorn := func() bool {
			defer wal.SetChunkRecords(n)()
			return restoreAt(t, paths, files, m, fmt.Sprintf("%s, chunks of %d", how, n))
		}()
		if chunkTorn != torn {
			t.Fatalf("%s: torn %v, %v in chunks of %d", how, torn, chunkTorn, n)
		}
	}
	return torn
}

// restoreAt is one restore of restoreAgainst.
func restoreAt(t *testing.T, paths []string, files [][]byte, m fuzzModel, how string) bool {
	t.Helper()
	fs := simfs.New()
	for i, p := range paths {
		if err := fs.WriteFile(p, files[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := serve.NewStoreShards(fuzzBins, 4)
	res, err := serve.RestoreFSOpts(st, fs, filepath.Dir(paths[0]), serve.RestoreOptions{Workers: 2})
	if (err != nil) != m.refused {
		t.Fatalf("%s: restore error %v, the record-by-record model refused: %v", how, err, m.refused)
	}
	if err != nil {
		return false
	}
	got := fuzzModel{loads: st.LoadsCopy(), allocs: st.Allocs(), frees: st.Frees(),
		skipped: res.SkippedFrees, last: res.LastSeq}
	if !slices.Equal(got.loads, m.loads) || got.allocs != m.allocs || got.frees != m.frees ||
		got.skipped != m.skipped || got.last != m.last {
		t.Fatalf("%s: restored %+v, the record-by-record model says %+v (%+v)", how, got, m, res)
	}
	return res.Torn
}

// FuzzReplaySegment: whatever the bytes of a segment's header, records
// and footer, a restore yields what a record-by-record walk of the same
// bytes yields — a clean prefix that no record past a bad CRC or a seq
// gap joins, or a refusal — never a panic; and a directory whose sealed
// segments carry valid footers restores exactly as it does with every
// footer cut off. The log is written by wal.Log (so footers are the
// writer's own), then damaged: a byte flipped, a run of bytes deleted
// (a count that no longer agrees with the size), the last segment's
// end torn off.
func FuzzReplaySegment(f *testing.F) {
	honest := make([]byte, 0, 6*200)
	for i := 0; i < 200; i++ {
		honest = append(honest, byte(i*7), byte(i%5), 3, 0, 1, 2)
	}
	f.Add(honest, uint32(0), byte(0), uint16(0), false)
	// A torn footer: the last segment loses part of its tail.
	f.Add(honest, uint32(0), byte(0), uint16(17), false)
	// A body-CRC mismatch: one record byte flipped inside a sealed segment.
	f.Add(honest, uint32(16+5*wal.RecordSize+3), byte(0x40), uint16(0), false)
	// A count that disagrees with the size: one record cut out of the
	// middle of the first segment, its footer intact.
	f.Add(honest, uint32(16+7*wal.RecordSize), byte(wal.RecordSize), uint16(0), true)
	// Frees on empty bins: footers whose entries must reflect at zero.
	reflect := make([]byte, 0, 6*200)
	for i := 0; i < 200; i++ {
		reflect = append(reflect, byte(3*min(i%3, 1)), byte(i%4), 0, 0, 0, 2)
	}
	f.Add(reflect, uint32(0), byte(0), uint16(0), false)
	// An entry for a bin >= n.
	outOfRange := slices.Clone(honest)
	outOfRange[6*40+1] = 251
	f.Add(outOfRange, uint32(0), byte(0), uint16(0), false)
	// Allocations over all 8 bins: sealed segments of 64 records whose
	// footers carry 8 entries, which span two chunks of 2 records (the
	// segments are decoded) and fit one of 7 (they are summarized). The
	// first segment is 16 + 64×21 + 141 bytes, the last one 8 records
	// and a 61-byte footer.
	allocs := make([]byte, 0, 6*200)
	for i := 0; i < 200; i++ {
		allocs = append(allocs, 0, byte(i%8), 0, 0, 0, 2)
	}
	f.Add(allocs, uint32(0), byte(0), uint16(0), false)
	// A footer entry's byte flipped: the body CRC fails, the fallback
	// decodes the first segment's intact records.
	f.Add(allocs, uint32(16+64*wal.RecordSize+1+3), byte(0x01), uint16(0), false)
	// A corrupt record at 16 + 14×21, the first of the third chunk of 7.
	f.Add(allocs, uint32(16+14*wal.RecordSize+5), byte(0x40), uint16(0), false)
	// The last segment torn 10 bytes into its 8th record, the one that
	// starts the second chunk of 7.
	f.Add(allocs, uint32(0), byte(0), uint16(16+8*wal.RecordSize+61-(16+7*wal.RecordSize+10)), false)

	f.Fuzz(func(t *testing.T, ops []byte, hit uint32, mask byte, cut uint16, del bool) {
		recs := fuzzRecords(ops)
		if len(recs) == 0 {
			return
		}
		fs := simfs.New()
		const dir = "/wal"
		l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncNever, SegmentBytes: 16 + 60*wal.RecordSize})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(recs); i += 8 {
			if err := l.AppendBatch(recs[i:min(i+8, len(recs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		paths, _ := fs.Glob(filepath.Join(dir, "wal-*.seg"))
		files := make([][]byte, len(paths))
		total := 0
		for i, p := range paths {
			files[i], _ = fs.ReadFile(p)
			total += len(files[i])
		}
		// Damage the bytes: hit picks a file and an offset in it.
		at := int(hit % uint32(total))
		i := 0
		for ; at >= len(files[i]); i++ {
			at -= len(files[i])
		}
		switch {
		case del && mask > 0:
			files[i] = append(files[i][:at:at], files[i][min(at+int(mask), len(files[i])):]...)
		case mask > 0:
			files[i][at] ^= mask
		}
		last := len(files) - 1
		files[last] = files[last][:len(files[last])-int(cut)%len(files[last])]

		m := replayModel(files)
		torn := restoreAgainst(t, paths, files, m, "with footers")
		for i, f := range files {
			files[i] = f[:len(f)-wal.FooterLen(f)]
		}
		if cutTorn := restoreAgainst(t, paths, files, m, "footers cut off"); !m.refused && cutTorn != torn {
			t.Fatalf("torn %v with footers, %v with them cut off", torn, cutTorn)
		}
	})
}

// TestFuzzSeedsTakeEveryPath pins that the corpus above reaches the
// paths it is there for: the honest seed restores its sealed segments
// from their footers, and a flipped record byte sends its segment back
// to record-by-record decoding.
func TestFuzzSeedsTakeEveryPath(t *testing.T) {
	for _, c := range []struct {
		flip          bool
		summ, decoded int
	}{{false, 3, 1}, {true, 2, 2}} {
		fs := simfs.New()
		l, err := wal.Open(wal.Options{Dir: "/wal", FS: fs, Fsync: wal.FsyncNever, SegmentBytes: 16 + 60*wal.RecordSize})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 200; seq++ {
			if err := l.Append(wal.Record{Op: wal.OpAlloc, Bin: uint32(seq % 5), K: 1, Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		// Leave the newest segment open: it has no footer yet (nor, its
		// bytes still in the writer's buffer, a header). A flip in the
		// last sealed segment ends its records there.
		paths, _ := fs.Glob("/wal/wal-*.seg")
		if c.flip {
			if err := fs.Corrupt(paths[2], 16+5*wal.RecordSize+3, 0x40); err != nil {
				t.Fatal(err)
			}
		}
		res, err := serve.RestoreFSOpts(serve.NewStoreShards(fuzzBins, 4), fs, "/wal", serve.RestoreOptions{Workers: 2})
		if err != nil || res.SegmentsSummarized != c.summ || res.SegmentsDecoded != c.decoded {
			t.Fatalf("flip %v: %+v, %v; want %d summarized, %d decoded", c.flip, res, err, c.summ, c.decoded)
		}
	}
}
