package explore_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/simfs/explore"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// legacyBug names one historical replay defect the mutation self-checks
// reinstate. Both lived in the WAL segment walk and were fixed in
// earlier releases; they exist here, in test code only, so the explorer
// can prove it would have caught them.
type legacyBug int

const (
	// legacyTornStop: replay stopped at the first torn segment even when
	// the next segment's header proved the record stream stayed
	// contiguous — the double-crash data-loss defect (crash → restore →
	// traffic → crash again dropped every post-restart mutation).
	legacyTornStop legacyBug = iota + 1
	// legacyGapSkip: the seq-continuity check at segment boundaries ran
	// only after a TORN segment, so a cleanly-ended segment followed by a
	// gap-opening successor — what an aborted segment leaves behind when
	// a failed append's bytes never reached the disk — was replayed
	// across, applying records on top of missing mutations.
	legacyGapSkip
)

var segMagic = [8]byte{'d', 'w', 'a', 'l', 's', 'e', 'g', '1'}

// legacyRestore returns a restore with bug reinstated: checkpoint load,
// the old sequential segment walk with the defect in, the stale-suffix
// fence. Apart from the defect it makes the decisions
// serve.RestoreFSOpts makes, through the same exported pieces
// (checkpoint.LoadLatestFS, wal.DecodeRecord, serve.ApplyRecords,
// wal.RemoveStaleFS).
func legacyRestore(bug legacyBug) explore.RestoreFunc {
	return func(st *serve.Store, fsys vfs.FS, dir string, _ serve.RestoreOptions) (serve.RestoreResult, error) {
		var res serve.RestoreResult
		snap, path, err := checkpoint.LoadLatestFS(fsys, dir)
		switch {
		case err == nil:
			if err := st.Restore(snap.Loads, snap.Allocs, snap.Frees); err != nil {
				return res, err
			}
			res.Restored, res.CheckpointPath = true, path
			res.CheckpointSeq, res.LastSeq = snap.Seq, snap.Seq
		case !errors.Is(err, checkpoint.ErrNoCheckpoint):
			return res, err
		}

		paths, err := fsys.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			return res, err
		}
		sort.Strings(paths)
		for _, p := range paths {
			if res.Torn && bug == legacyTornStop {
				break // the defect: give up at the first tear
			}
			data, err := fsys.ReadFile(p)
			if err != nil {
				return res, err
			}
			if len(data) < 16 || [8]byte(data[:8]) != segMagic {
				res.Torn = true // torn at birth: contributes nothing
				continue
			}
			// res.LastSeq is the covered seq: max(checkpoint, records seen).
			if res.Torn || bug != legacyGapSkip { // the defect: skip the check after a clean end
				if binary.LittleEndian.Uint64(data[8:16]) > res.LastSeq+1 {
					break
				}
			}
			// A footer is not a tear: the historical walk ended cleanly
			// where the records did.
			body := data[16 : len(data)-wal.FooterLen(data)]
			var recs []wal.Record
			for ; len(body) >= wal.RecordSize; body = body[wal.RecordSize:] {
				rec, ok := wal.DecodeRecord(body[:wal.RecordSize])
				if !ok {
					break
				}
				if rec.Seq > res.LastSeq {
					res.LastSeq = rec.Seq
				}
				if rec.Seq > res.CheckpointSeq && rec.Seq > snap.WatermarkFor(int(rec.Bin)) {
					recs = append(recs, rec)
				}
			}
			if len(body) != 0 {
				res.Torn = true
			}
			skipped, err := serve.ApplyRecords(st, recs)
			if err != nil {
				return res, err
			}
			res.Replayed += int64(len(recs))
			res.SkippedFrees += skipped
		}
		if res.Replayed > 0 {
			res.Restored = true
		}
		res.StaleRemoved, err = wal.RemoveStaleFS(fsys, dir, res.LastSeq)
		return res, err
	}
}

// TestLegacyRestoreReproducesOldBugs pins the two mutants on the
// smallest layouts that trigger them, next to the real restore on the
// same bytes: a self-check that finds nothing would otherwise be
// indistinguishable from a mutant that mutates nothing.
func TestLegacyRestoreReproducesOldBugs(t *testing.T) {
	const dir = "/wal"
	appendRange := func(fs *simfs.FS, from, to uint64) {
		t.Helper()
		l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for seq := from; seq <= to; seq++ {
			if err := l.Append(wal.Record{Op: wal.OpAlloc, Bin: uint32(seq % 8), K: 1, Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	lastSeq := func(restore explore.RestoreFunc, fs *simfs.FS) uint64 {
		t.Helper()
		res, err := restore(serve.NewStoreShards(8, 4), fs.Clone(), dir, serve.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.LastSeq
	}

	// Double crash: run 1's record 10 is torn in half, run 2 reopens at
	// the restored seq + 1 = 10 and writes through 25.
	fs := simfs.New()
	appendRange(fs, 1, 10)
	segs, _ := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if err := fs.Truncate(segs[0], int64(16+9*wal.RecordSize+wal.RecordSize/2)); err != nil {
		t.Fatal(err)
	}
	appendRange(fs, 10, 25)
	if got := lastSeq(serve.RestoreFSOpts, fs); got != 25 {
		t.Fatalf("restore over a healed tear reached seq %d, want 25", got)
	}
	if got := lastSeq(legacyRestore(legacyTornStop), fs); got != 9 {
		t.Fatalf("torn-stop mutant reached seq %d; the old bug stopped at 9", got)
	}
	if got := lastSeq(legacyRestore(legacyGapSkip), fs); got != 25 {
		t.Fatalf("gap-skip mutant reached seq %d on a gapless log, want 25", got)
	}

	// Clean end, then a gap: record 7 was dropped, 8-10 healed onto a
	// fresh segment.
	fs = simfs.New()
	appendRange(fs, 1, 6)
	appendRange(fs, 8, 10)
	if got := lastSeq(serve.RestoreFSOpts, fs); got != 6 {
		t.Fatalf("restore walked across a seq gap to %d, want 6", got)
	}
	if got := lastSeq(legacyRestore(legacyGapSkip), fs); got != 10 {
		t.Fatalf("gap-skip mutant reached seq %d; the old bug replayed across the gap to 10", got)
	}
	if got := lastSeq(legacyRestore(legacyTornStop), fs); got != 6 {
		t.Fatalf("torn-stop mutant reached seq %d past a clean gap, want 6", got)
	}
}

// droppedBatchRestore is the fifth mutant: the restore of a log whose
// writer sealed each segment with a summariser that left the segment's
// last batch out of the footer — here its last record, which in the
// per-record sweep is usually the whole batch. It rewrites every valid
// footer on disk the way that writer would have written it, then
// restores as production does.
func droppedBatchRestore(st *serve.Store, fsys vfs.FS, dir string, opts serve.RestoreOptions) (serve.RestoreResult, error) {
	fs := fsys.(*simfs.FS)
	paths, err := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return serve.RestoreResult{}, err
	}
	for _, p := range paths {
		data, err := fs.ReadFile(p)
		n := wal.FooterLen(data)
		if err != nil || n == 0 {
			continue
		}
		seg := data[:len(data)-n]
		var recs []wal.Record
		for off := 16; off+wal.RecordSize <= len(seg); off += wal.RecordSize {
			if r, ok := wal.DecodeRecord(seg[off : off+wal.RecordSize]); ok {
				recs = append(recs, r)
			}
		}
		if len(recs) >= 2 && 16+len(recs)*wal.RecordSize == len(seg) {
			if err := fs.WriteFile(p, sealDroppingLast(seg, recs)); err != nil {
				return serve.RestoreResult{}, err
			}
		}
	}
	return serve.RestoreFSOpts(st, fsys, dir, opts)
}

// sealDroppingLast appends to seg (header and records) the footer the
// mutant summariser writes: per-bin sums and alloc/free counts over
// every record but the last, and the true record count and seq range
// (the log tracks those as it writes), under CRCs that check out.
func sealDroppingLast(seg []byte, recs []wal.Record) []byte {
	type sum struct{ delta, low, high int16 }
	sums := map[uint32]sum{}
	var allocs, frees, minSeq, maxSeq uint64 = 0, 0, ^uint64(0), 0
	for _, r := range recs {
		minSeq, maxSeq = min(minSeq, r.Seq), max(maxSeq, r.Seq)
	}
	for _, r := range recs[:len(recs)-1] {
		d := int16(r.K)
		switch r.Op {
		case wal.OpAlloc:
			d, allocs = 1, allocs+1
		case wal.OpFree:
			d, frees = -1, frees+1
		}
		s := sums[r.Bin]
		s.delta += d
		s.low, s.high = min(s.low, s.delta), max(s.high, s.delta)
		sums[r.Bin] = s
	}
	var bins []uint32
	for b, s := range sums {
		if s != (sum{}) {
			bins = append(bins, b)
		}
	}
	slices.Sort(bins)
	if len(bins)*4 > len(recs) {
		bins = nil
	}
	le := binary.LittleEndian
	out := append(slices.Clip(seg), 0xff)
	for _, b := range bins {
		s := sums[b]
		out = le.AppendUint16(le.AppendUint16(le.AppendUint16(le.AppendUint32(out, b), uint16(s.delta)), uint16(s.low)), uint16(s.high))
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	body := crc32.Checksum(out, castagnoli)
	tail := le.AppendUint64(le.AppendUint64(le.AppendUint64(nil, uint64(len(recs))), allocs), frees)
	tail = le.AppendUint32(le.AppendUint32(le.AppendUint64(le.AppendUint64(tail, minSeq), maxSeq), uint32(len(bins))), body)
	tail = le.AppendUint32(tail, crc32.Checksum(tail, castagnoli))
	return append(append(out, tail...), "dwalsum1"...)
}
