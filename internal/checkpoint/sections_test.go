package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynalloc/internal/simfs"
)

// sectioned builds a striped snapshot: n bins tiled into nsec sections
// with distinct watermarks (Seq + section index), Seq = the minimum
// watermark as the Journal produces.
func sectioned(seq uint64, n, nsec int) Snapshot {
	s := Snapshot{Seq: seq, Allocs: int64(seq) * 3, Frees: int64(seq) * 2, Loads: make([]int32, n)}
	for i := range s.Loads {
		s.Loads[i] = int32(i*7%5 + 1)
	}
	per := (n + nsec - 1) / nsec
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		s.Sections = append(s.Sections, Section{Lo: lo, Hi: hi, Watermark: seq + uint64(len(s.Sections))})
	}
	return s
}

func equalSectioned(a, b Snapshot) bool {
	if !equal(a, b) || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Sections {
		if a.Sections[i] != b.Sections[i] {
			return false
		}
	}
	return true
}

func TestV2RoundTrip(t *testing.T) {
	fs := simfs.New()
	want := sectioned(42, 13, 4)
	path, err := WriteFS(fs, dir, want)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPath, err := LoadLatestFS(fs, dir)
	if err != nil || gotPath != path || !equalSectioned(got, want) {
		t.Fatalf("LoadLatest = %+v at %q, %v; want %+v at %q", got, gotPath, err, want, path)
	}
	// Per-bin watermarks come from the owning section; out-of-range
	// bins and section-less snapshots degrade to the uniform Seq
	// watermark.
	for bin := 0; bin < 13; bin++ {
		want := got.Sections[bin/4].Watermark
		if wm := got.WatermarkFor(bin); wm != want {
			t.Fatalf("WatermarkFor(%d) = %d, want %d", bin, wm, want)
		}
	}
	if wm := got.WatermarkFor(99); wm != got.Seq {
		t.Fatalf("out-of-range WatermarkFor = %d, want Seq %d", wm, got.Seq)
	}
	if mw := got.MaxWatermark(); mw != 42+3 {
		t.Fatalf("MaxWatermark = %d, want %d", mw, 42+3)
	}
	flat := snap(7, 1, 2)
	if wm := flat.WatermarkFor(0); wm != 7 {
		t.Fatalf("section-less WatermarkFor = %d, want Seq", wm)
	}
}

// TestSectionlessSnapshotWritesV2 pins the single write format: a
// snapshot without sections (what a replica follower persists) goes to
// disk as a v2 file with one section [0, n) at watermark Seq, so it
// round-trips and MaxWatermark() == Seq still tells restore to skip
// per-record watermark filtering. An empty load vector is the empty
// tiling: a v2 file with no sections.
func TestSectionlessSnapshotWritesV2(t *testing.T) {
	for _, want := range []Snapshot{snap(42, 3, 0, 7, 1, 0, 0, 5), {Seq: 1}} {
		fs := simfs.New()
		path, err := WriteFS(fs, dir, want)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := fs.ReadFile(path)
		if err != nil || len(raw) < 8 || [8]byte(raw[:8]) != magicV2 {
			t.Fatalf("n=%d: file is not format v2 (err %v)", len(want.Loads), err)
		}
		got, _, err := LoadLatestFS(fs, dir)
		if err != nil || !equal(got, want) {
			t.Fatalf("n=%d: roundtrip %+v, %v; want %+v", len(want.Loads), got, err, want)
		}
		wantSecs := []Section{{Lo: 0, Hi: len(want.Loads), Watermark: want.Seq}}
		if len(want.Loads) == 0 {
			wantSecs = nil
		}
		if len(got.Sections) != len(wantSecs) || (len(wantSecs) == 1 && got.Sections[0] != wantSecs[0]) {
			t.Fatalf("n=%d: sections %+v, want %+v", len(want.Loads), got.Sections, wantSecs)
		}
		if mw := got.MaxWatermark(); mw != want.Seq {
			t.Fatalf("n=%d: MaxWatermark %d, want Seq %d (restore would filter per record)", len(want.Loads), mw, want.Seq)
		}
	}
}

// encodeV1 is the retired format-v1 encoder, kept test-local so the v1
// decode branch (and the committed seed_v1 corpus entries) stays
// exercised: header, loads, one trailing CRC over everything.
func encodeV1(s Snapshot) []byte {
	buf := make([]byte, headerSize+4*len(s.Loads)+4)
	copy(buf[:8], magic[:])
	binary.LittleEndian.PutUint64(buf[8:16], s.Seq)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(s.Allocs))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(s.Frees))
	binary.LittleEndian.PutUint32(buf[32:36], uint32(len(s.Loads)))
	for i, l := range s.Loads {
		binary.LittleEndian.PutUint32(buf[headerSize+4*i:], uint32(l))
	}
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.Checksum(buf[:len(buf)-4], crcTable))
	return buf
}

// TestV1BytesStillDecode: a v1 file left on disk by an older build is
// still a loadable checkpoint, with no sections and so one uniform
// watermark.
func TestV1BytesStillDecode(t *testing.T) {
	fs := simfs.New()
	want := snap(42, 3, 0, 7, 1)
	if err := fs.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(filepath.Join(dir, fileName(want.Seq)), encodeV1(want)); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestFS(fs, dir)
	if err != nil || !equal(got, want) || len(got.Sections) != 0 {
		t.Fatalf("v1 load: %+v, %v; want %+v without sections", got, err, want)
	}
	if wm := got.WatermarkFor(2); wm != want.Seq {
		t.Fatalf("v1 WatermarkFor = %d, want Seq %d", wm, want.Seq)
	}
}

// TestV2RoundTripLarge crosses the parallel encode/decode threshold
// (bins >= 1<<15) so forSections' worker path is exercised wherever
// GOMAXPROCS allows it.
func TestV2RoundTripLarge(t *testing.T) {
	fs := simfs.New()
	want := sectioned(100, 1<<15+17, 8)
	if _, err := WriteFS(fs, dir, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestFS(fs, dir)
	if err != nil || !equalSectioned(got, want) {
		t.Fatalf("large v2 roundtrip failed: %v", err)
	}
}

func TestValidateSectionsRejects(t *testing.T) {
	base := sectioned(10, 12, 3)
	mutate := func(fn func(*Snapshot)) Snapshot {
		s := base
		s.Sections = append([]Section(nil), base.Sections...)
		fn(&s)
		return s
	}
	cases := []struct {
		name string
		s    Snapshot
	}{
		{"gap", mutate(func(s *Snapshot) { s.Sections[1].Lo = 5 })},
		{"overlap", mutate(func(s *Snapshot) { s.Sections[1].Lo = 3 })},
		{"inverted", mutate(func(s *Snapshot) { s.Sections[0].Hi = 0 })},
		{"past-end", mutate(func(s *Snapshot) { s.Sections[2].Hi = 13 })},
		{"short", mutate(func(s *Snapshot) { s.Sections = s.Sections[:2] })},
		{"stale-watermark", mutate(func(s *Snapshot) { s.Sections[1].Watermark = 9 })},
	}
	for _, tc := range cases {
		if _, err := encodeV2(tc.s); err == nil {
			t.Errorf("%s: encodeV2 accepted invalid sections %+v", tc.name, tc.s.Sections)
		}
		if _, err := WriteFS(simfs.New(), dir, tc.s); err == nil {
			t.Errorf("%s: WriteFS persisted invalid sections", tc.name)
		}
	}
	if _, err := encodeV2(base); err != nil {
		t.Fatalf("encodeV2 rejected the valid base: %v", err)
	}
}

// TestV2CorruptSectionFallsBack flips single bytes in each region of a
// v2 file — header, section table, one section payload — and checks
// LoadLatest skips the damaged file and falls back to the previous
// checkpoint every time.
func TestV2CorruptSectionFallsBack(t *testing.T) {
	build := func() (*simfs.FS, string) {
		fs := simfs.New()
		if _, err := WriteFS(fs, dir, snap(10, 1, 2, 3, 4, 5, 6, 7, 8)); err != nil {
			t.Fatal(err)
		}
		path, err := WriteFS(fs, dir, sectioned(30, 8, 4))
		if err != nil {
			t.Fatal(err)
		}
		return fs, path
	}
	fsProbe, newest := build()
	size := fsProbe.Size(newest)

	regions := map[string]int64{
		"header-seq":      9,
		"table-watermark": v2HeaderSize + 8,
		"payload":         size - 6,
	}
	for name, off := range regions {
		fs, path := build()
		if path != filepath.Join(dir, fileName(30)) {
			t.Fatalf("unexpected newest path %q", path)
		}
		if err := fs.Corrupt(path, off, 0xff); err != nil {
			t.Fatal(err)
		}
		got, _, err := LoadLatestFS(fs, dir)
		if err != nil || got.Seq != 10 {
			t.Fatalf("%s corruption: got %+v, %v; want fallback to seq 10", name, got, err)
		}
	}

	// Truncation anywhere inside the file must also fall back.
	fs, path := build()
	if err := fs.Truncate(path, size/2); err != nil {
		t.Fatal(err)
	}
	if got, _, err := LoadLatestFS(fs, dir); err != nil || got.Seq != 10 {
		t.Fatalf("truncated v2: got %+v, %v; want fallback to seq 10", got, err)
	}
}

// TestV2DecodeRejectsHostileSizes pins the decoder's
// validate-before-allocate contract: a tiny buffer claiming a huge bin
// count must be rejected on the size check (cheaply), not by
// attempting the allocation.
func TestV2DecodeRejectsHostileSizes(t *testing.T) {
	chunks, err := encodeV2(sectioned(5, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Join(chunks, nil)

	// Every truncation of a valid file must error, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := decode(buf[:i]); err == nil && i < len(buf) {
			t.Fatalf("decode accepted %d-byte truncation of a %d-byte file", i, len(buf))
		}
	}

	// Claim n = 1<<30 bins and re-seal the header CRC so the size check
	// (not the CRC) is what rejects it.
	hostile := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(hostile[32:36], 1<<30)
	binary.LittleEndian.PutUint32(hostile[40:44], crc32.Checksum(hostile[:40], crcTable))
	if _, err := decode(hostile); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("hostile n: %v; want size-mismatch error", err)
	}

	// nsec = 0 with a matching header CRC is rejected explicitly.
	nosec := append([]byte(nil), buf...)
	binary.LittleEndian.PutUint32(nosec[36:40], 0)
	binary.LittleEndian.PutUint32(nosec[40:44], crc32.Checksum(nosec[:40], crcTable))
	if _, err := decode(nosec); err == nil {
		t.Fatal("decode accepted nsec=0")
	}
}

// TestPowerCutMidStripedCheckpointIsAtomic is the striped-checkpoint
// regression test: WriteFS issues one Write per section, so this sweep
// lands a power cut between every pair of section writes (and every
// other FS op) and checks restore always produces the previous
// checkpoint or the complete new one — never an error, never a hybrid
// with some sections old and some new.
func TestPowerCutMidStripedCheckpointIsAtomic(t *testing.T) {
	old, next := sectioned(10, 16, 4), sectioned(20, 16, 4)
	sawOld, sawNew := false, false
	for cut := 1; ; cut++ {
		fs := simfs.New()
		if _, err := WriteFS(fs, dir, old); err != nil {
			t.Fatal(err)
		}
		fs.CrashAfterOps(cut)
		_, werr := WriteFS(fs, dir, next)
		crashed := fs.Crashed()
		fs.PowerCut(nil)

		got, _, err := LoadLatestFS(fs, dir)
		if err != nil {
			t.Fatalf("cut at op %d: restore failed: %v", cut, err)
		}
		switch {
		case equalSectioned(got, old):
			sawOld = true
		case equalSectioned(got, next):
			sawNew = true
		default:
			t.Fatalf("cut at op %d: hybrid snapshot %+v", cut, got)
		}
		if !crashed {
			if werr != nil {
				t.Fatalf("uncrashed write failed: %v", werr)
			}
			break
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("crash sweep unconvincing: sawOld=%v sawNew=%v", sawOld, sawNew)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes through the checkpoint
// decoder (v1 and v2 dispatch) and checks the safety contract: no
// panic, no allocation sized beyond the input, and canonical
// re-encoding — any buffer that decodes must re-encode to the exact
// same bytes. Seeds mirror the committed corpus under testdata/fuzz
// (valid v1, valid v2, truncations, CRC damage, hostile lengths);
// regenerate it with CKPT_WRITE_FUZZ_CORPUS=1 go test -run
// TestWriteFuzzCorpus ./internal/checkpoint.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decode(b)
		if err != nil {
			return
		}
		// Every decoded length was validated against the buffer.
		if 4*len(s.Loads) > len(b) {
			t.Fatalf("decoded %d loads from %d bytes", len(s.Loads), len(b))
		}
		// Sections tile [0, n) and per-bin watermarks stay within
		// [min section watermark, MaxWatermark].
		max := s.MaxWatermark()
		for bin := 0; bin < len(s.Loads); bin++ {
			if wm := s.WatermarkFor(bin); wm > max {
				t.Fatalf("WatermarkFor(%d) = %d beyond MaxWatermark %d", bin, wm, max)
			}
		}
		// Canonical form: decoded snapshots re-encode byte-identically,
		// v1 through the test-local encoder. The one v2 escape hatch is
		// a fuzzed watermark below Seq — decodable (CRCs cover it) but
		// unwritable (validateSections refuses), so the re-encode check
		// only applies when the encoder accepts the snapshot back.
		if [8]byte(b[:8]) == magicV2 {
			chunks, err := encodeV2(s)
			if err != nil {
				for _, sec := range s.Sections {
					if sec.Watermark < s.Seq {
						return
					}
				}
				t.Fatalf("encodeV2 rejected a decoded snapshot: %v", err)
			}
			if re := bytes.Join(chunks, nil); !bytes.Equal(re, b) {
				t.Fatalf("v2 re-encode differs: %d vs %d bytes", len(re), len(b))
			}
		} else if re := encodeV1(s); !bytes.Equal(re, b) {
			t.Fatalf("v1 re-encode differs: %d vs %d bytes", len(re), len(b))
		}
	})
}

// fuzzSeeds builds the seed inputs shared by FuzzDecodeSnapshot's
// f.Add calls and the committed corpus writer.
func fuzzSeeds() map[string][]byte {
	v1 := encodeV1(snap(42, 3, 0, 7, 1))
	chunks, err := encodeV2(sectioned(42, 13, 4))
	if err != nil {
		panic(err)
	}
	v2 := bytes.Join(chunks, nil)

	badCRC := append([]byte(nil), v2...)
	badCRC[len(badCRC)-2] ^= 0xff
	hostileN := append([]byte(nil), v2...)
	binary.LittleEndian.PutUint32(hostileN[32:36], 1<<30)
	binary.LittleEndian.PutUint32(hostileN[40:44], crc32.Checksum(hostileN[:40], crcTable))
	skew := append([]byte(nil), v2...)
	skew[7] = '3' // future format version

	return map[string][]byte{
		"seed_empty":     nil,
		"seed_v1":        v1,
		"seed_v1_torn":   v1[:len(v1)-5],
		"seed_v2":        v2,
		"seed_v2_header": v2[:v2HeaderSize],
		"seed_v2_torn":   v2[:len(v2)-3],
		"seed_bad_crc":   badCRC,
		"seed_hostile_n": hostileN,
		"seed_skew":      skew,
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus. It is a
// no-op unless CKPT_WRITE_FUZZ_CORPUS is set so a plain test run never
// touches testdata.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("CKPT_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set CKPT_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	corpusDir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range fuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
