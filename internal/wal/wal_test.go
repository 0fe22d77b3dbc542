package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
)

// testFS returns a fresh simulated filesystem; the pure-logic tests in
// this file run entirely in memory (deterministic, no disk fsyncs).
// TestRealDiskRoundTrip keeps the default vfs.OS path covered.
func testFS() *simfs.FS {
	fs := simfs.New()
	fs.MkdirAll("/wal")
	return fs
}

// testOpen returns a log on fs with tiny segments so rotation is
// exercised constantly.
func testOpen(t *testing.T, fs *simfs.FS, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = "/wal"
	}
	if opts.FS == nil {
		opts.FS = fs
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = segHeaderSize + 8*RecordSize
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func rec(i int) Record {
	op := OpAlloc
	switch i % 3 {
	case 1:
		op = OpFree
	case 2:
		op = OpCrash
	}
	return Record{Op: op, Bin: uint32(i % 97), K: int32(1 + i%5), Seq: uint64(i)}
}

func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i <= to; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// collect replays dir with one apply lane and returns the records in
// file order plus the stats — after checking that the same replay at 2,
// 3 and 8 workers is indistinguishable: identical stats, and each
// worker observing exactly its partitions' records in file order. Every
// replay-semantics test in this package funnels through here, so the
// validator's torn-tail / seq-gap / continuity decisions are pinned at
// every worker count — and at chunks of one record and of three, so
// every segment boundary case also lands on chunk boundaries.
func collect(t *testing.T, fs *simfs.FS, dir string, afterSeq uint64) ([]Record, ReplayStats) {
	t.Helper()
	want, wantStats := collectAt(t, fs, dir, afterSeq)
	for _, n := range []int{1, 3} {
		restore := SetChunkRecords(n)
		got, stats := collectAt(t, fs, dir, afterSeq)
		restore()
		if stats != wantStats || !slices.Equal(got, want) {
			t.Fatalf("%d-record chunks: %d records, stats %+v; default chunks %d, %+v", n, len(got), stats, len(want), wantStats)
		}
	}
	return want, wantStats
}

// collectAt is collect at the current chunk size.
func collectAt(t *testing.T, fs *simfs.FS, dir string, afterSeq uint64) ([]Record, ReplayStats) {
	t.Helper()
	streams, wantStats, err := pipelineRun(t, fs, dir, afterSeq, 1)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	want := streams[0]
	for _, workers := range []int{2, 3, 8} {
		streams, stats, err := pipelineRun(t, fs, dir, afterSeq, workers)
		if err != nil {
			t.Fatalf("workers=%d: replay: %v", workers, err)
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %+v, workers=1 %+v", workers, stats, wantStats)
		}
		for w, got := range streams {
			var exp []Record
			for _, r := range want {
				if int(r.Bin)%workers == w {
					exp = append(exp, r)
				}
			}
			if len(got) != len(exp) {
				t.Fatalf("workers=%d worker %d: %d records, want %d", workers, w, len(got), len(exp))
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("workers=%d worker %d record %d: got %+v want %+v", workers, w, i, got[i], exp[i])
				}
			}
		}
	}
	return want, wantStats
}

func TestRoundTripAcrossSegments(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(fs, l.Dir())
	if len(segs) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	got, stats := collect(t, fs, l.Dir(), 0)
	if len(got) != 100 || stats.Records != 100 || stats.Torn {
		t.Fatalf("replay: %d records, stats %+v", len(got), stats)
	}
	for i, r := range got {
		if r != rec(i+1) {
			t.Fatalf("record %d: got %+v want %+v", i, r, rec(i+1))
		}
	}
	if stats.LastSeq != 100 {
		t.Fatalf("LastSeq = %d, want 100", stats.LastSeq)
	}
}

// TestRealDiskRoundTrip keeps the production vfs.OS implementation
// covered end to end (everything else in this file runs on simfs).
func TestRealDiskRoundTrip(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncNever, SegmentBytes: segHeaderSize + 8*RecordSize})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	stats, err := ReplayPipelineFS(vfs.OS, l.Dir(), 0, PipelineOptions{
		ApplyBatch: func(_ int, recs []Record) error {
			got = append(got, recs...)
			return nil
		},
	})
	if err != nil || len(got) != 30 || stats.Torn {
		t.Fatalf("real-disk replay: %d records, stats %+v, err %v", len(got), stats, err)
	}
}

func TestReplayAfterSeqFilters(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 40)
	l.Close()
	got, stats := collect(t, fs, l.Dir(), 25)
	if len(got) != 15 || got[0].Seq != 26 {
		t.Fatalf("afterSeq filter: %d records, first %+v", len(got), got[0])
	}
	if stats.Records != 40 || stats.Applied != 15 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestTornTailRecoversToLastValidRecord(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 50)
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	// Tear the tail mid-record: truncate to 48 full records plus half a
	// record.
	full := int64(segHeaderSize + 48*RecordSize)
	if err := fs.Truncate(segs[0], full+RecordSize/2); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, fs, l.Dir(), 0)
	if len(got) != 48 || !stats.Torn || stats.LastSeq != 48 {
		t.Fatalf("torn tail: %d records, stats %+v", len(got), stats)
	}
}

func TestCorruptedCRCStopsWithoutError(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 60) // several 8-record segments
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Flip one payload byte of the 3rd record in the 2nd segment:
	// records 1..10 stay valid, everything from record 11 on — including
	// the later, perfectly valid segments — must be ignored (a gap in
	// the stream would be unsound to apply).
	if err := fs.Corrupt(segs[1], segHeaderSize+2*RecordSize+3, 0xff); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, fs, l.Dir(), 0)
	if !stats.Torn {
		t.Fatalf("corruption not reported: stats %+v", stats)
	}
	if len(got) != 10 || stats.LastSeq != 10 {
		t.Fatalf("recovered %d records (LastSeq %d), want exactly 10", len(got), stats.LastSeq)
	}
}

func TestBadSegmentHeaderStopsReplay(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 4*RecordSize})
	appendN(t, l, 1, 4) // exactly one sealed segment
	appendN(t, l, 5, 6) // second (open) segment
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %d", len(segs))
	}
	if err := fs.Corrupt(segs[1], 0, 0xff); err != nil { // break the magic
		t.Fatal(err)
	}
	got, stats := collect(t, fs, l.Dir(), 0)
	if len(got) != 4 || !stats.Torn {
		t.Fatalf("bad header: %d records, stats %+v", len(got), stats)
	}
}

func TestTruncateThrough(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 10*RecordSize})
	appendN(t, l, 1, 35) // 3 sealed segments (1-10, 11-20, 21-30) + open (31-35)
	if removed, err := l.TruncateThrough(20); err != nil || removed != 2 {
		t.Fatalf("TruncateThrough(20) = %d, %v; want 2", removed, err)
	}
	// The open segment's records are still buffered (never flushed), so
	// replay sees the sealed 21-30 then stops torn at the empty open file.
	got, stats := collect(t, fs, l.Dir(), 20)
	if len(got) != 10 {
		t.Fatalf("after truncation: %d records (want 21-30 from sealed seg), stats %+v", len(got), stats)
	}
	// The open segment is never touched, even when fully covered.
	if removed, err := l.TruncateThrough(1 << 62); err != nil || removed != 1 {
		t.Fatalf("TruncateThrough(max) = %d, %v; want 1 (sealed only)", removed, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay resumes from the coverage that justified the truncation
	// (restore passes the checkpoint seq), and the open segment's
	// records follow contiguously from it.
	got, _ = collect(t, fs, l.Dir(), 30)
	if len(got) != 5 || got[0].Seq != 31 {
		t.Fatalf("open segment survived truncation wrong: %d records", len(got))
	}
	// Replaying from scratch, though, must refuse the truncated head:
	// the head segment opens at seq 31, so without the covering
	// checkpoint the first 30 records are a gap, not a prefix.
	got, stats = collect(t, fs, l.Dir(), 0)
	if len(got) != 0 || stats.Segments != 0 {
		t.Fatalf("replay from 0 walked a truncated head: %d records, stats %+v", len(got), stats)
	}
}

// TestTruncateThroughReadsTheLastRecord: a footer-less segment — the
// open tail a killed log leaves — whose last whole record is valid and
// past the cut is kept after a read of its tail and one of that record,
// whatever its length; a covered one is still streamed and removed;
// and one whose last record is corrupt falls back to the stream, which
// proves the valid prefix before it covered and removes it.
func TestTruncateThroughReadsTheLastRecord(t *testing.T) {
	for _, c := range []struct {
		name    string
		records int
		cut     uint64
		corrupt bool
		removed int
		reads   func(int64) bool
	}{
		{"uncovered", 1000, 500, false, 0, func(n int64) bool { return n == 2 }},
		{"uncovered, 20x the records", 20000, 500, false, 0, func(n int64) bool { return n == 2 }},
		{"covered", 20000, 20000, false, 1, func(n int64) bool { return n > 4 }},
		{"corrupt last record", 20000, 19999, true, 1, func(n int64) bool { return n > 4 }},
	} {
		fs := testFS()
		l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 30})
		recs := make([]Record, c.records)
		for i := range recs {
			recs[i] = rec(i + 1)
		}
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		l.Close()
		segs, _ := listSegments(fs, l.Dir())
		data, _ := fs.ReadFile(segs[0])
		if err := fs.Truncate(segs[0], int64(len(data)-FooterLen(data))); err != nil {
			t.Fatal(err)
		}
		if c.corrupt {
			if err := fs.Corrupt(segs[0], int64(segHeaderSize+(c.records-1)*RecordSize+3), 0xff); err != nil {
				t.Fatal(err)
			}
		}
		l = testOpen(t, fs, Options{Fsync: FsyncNever})
		reads := fs.Ops(simfs.OpRead)
		removed, err := l.TruncateThrough(c.cut)
		n := fs.Ops(simfs.OpRead) - reads
		if err != nil || removed != c.removed || !c.reads(n) {
			t.Errorf("%s: TruncateThrough(%d) removed %d in %d reads, %v; want %d removed", c.name, c.cut, removed, n, err, c.removed)
		}
		l.Close()
	}
}

// TestRemoveStaleFSPrunesDeadTimeline covers the stale-suffix hazard
// the chaos explorer surfaced: a dropped append opens a seq gap, the
// segments past it stay on disk, and the next incarnation re-issues
// the same seqs — so a later replay would interleave records from the
// dead timeline into the live one. RemoveStaleFS at restore time must
// prune the unreachable suffix, and the unlinks must survive a power
// cut (an unsynced directory resurrects them).
func TestRemoveStaleFSPrunesDeadTimeline(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncAlways, SegmentBytes: segHeaderSize + 4*RecordSize})
	appendN(t, l, 1, 6)

	// Drop record 7: the write fails, the segment aborts, and the log
	// heals records 8-10 onto a fresh segment that opens past the gap.
	fs.FailOp(simfs.OpWrite, 1, nil)
	if err := l.Append(rec(7)); err == nil {
		t.Fatal("append 7 succeeded through an injected write fault")
	}
	appendN(t, l, 8, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Replay stops at the gap: 8-10 are unsound to apply.
	got, _ := collect(t, fs, "/wal", 0)
	if len(got) != 6 || got[len(got)-1].Seq != 6 {
		t.Fatalf("replay across the gap: %d records, last %+v", len(got), got[len(got)-1])
	}

	// Restore-time pruning removes the unreachable suffix, durably.
	removed, err := RemoveStaleFS(fs, "/wal", 6)
	if err != nil || removed == 0 {
		t.Fatalf("RemoveStaleFS = %d, %v; want > 0, nil", removed, err)
	}
	fs.PowerCut(nil) // the unlinks must not resurrect

	// The next incarnation re-issues seqs 7.. with different payloads —
	// the dead timeline's 8-10 must not shadow or interleave them.
	l = testOpen(t, fs, Options{Fsync: FsyncAlways, SegmentBytes: segHeaderSize + 4*RecordSize})
	for i := 7; i <= 9; i++ {
		r := Record{Op: OpAlloc, Bin: 77, K: 1, Seq: uint64(i)}
		if err := l.Append(r); err != nil {
			t.Fatalf("append new %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got, stats := collect(t, fs, "/wal", 0)
	if len(got) != 9 {
		t.Fatalf("after heal: %d records, stats %+v", len(got), stats)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d; the timelines interleaved: %+v", i, r.Seq, got)
		}
	}
	for _, r := range got[6:] {
		if r.Bin != 77 {
			t.Fatalf("seq %d replayed from the dead timeline: %+v", r.Seq, r)
		}
	}
}

func TestReopenCollidingSegmentNameMovesItAside(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	// A dead segment named for seq 1 left by a previous run (e.g. a
	// crash before its header hit the disk). Its bytes must survive the
	// collision — truncating would destroy the only forensic copy.
	path := filepath.Join(dir, segmentName(1))
	if err := fs.WriteFile(path, []byte("previous run's bytes")); err != nil {
		t.Fatal(err)
	}
	l := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever})
	appendN(t, l, 1, 3)
	l.Close()
	got, stats := collect(t, fs, dir, 0)
	if len(got) != 3 || stats.Torn {
		t.Fatalf("reopen over dead segment: %d records, stats %+v", len(got), stats)
	}
	moved, err := fs.ReadFile(path + ".dead.0")
	if err != nil || string(moved) != "previous run's bytes" {
		t.Fatalf("colliding segment not preserved aside: %q, %v", moved, err)
	}
	// A second collision picks the next free .dead name.
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever})
	appendN(t, l2, 1, 2)
	l2.Close()
	if _, err := fs.Stat(path + ".dead.1"); err != nil {
		t.Fatalf("second collision not moved to .dead.1: %v", err)
	}
}

// TestReplayContinuesPastTornSegmentWhenNoGap is the double-crash
// layout: run 1 leaves a torn tail, run 2 (after restore) opens its
// segment at the restored seq + 1, then crashes too. Replay must walk
// past the torn record into run 2's segment — its header proves no
// record is skipped — or every post-restart mutation would be lost.
func TestReplayContinuesPastTornSegmentWhenNoGap(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 10)
	l1.Close()
	segs, _ := listSegments(fs, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	// Tear record 10 in half: run 1's valid prefix is 1..9.
	if err := fs.Truncate(segs[0], int64(segHeaderSize+9*RecordSize+RecordSize/2)); err != nil {
		t.Fatal(err)
	}
	got, stats := collect(t, fs, dir, 0)
	if len(got) != 9 || !stats.Torn {
		t.Fatalf("after first crash: %d records, stats %+v", len(got), stats)
	}
	// "Restart": a new log continues at the restored seq + 1 = 10.
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l2, 10, 25)
	l2.Close()
	got, stats = collect(t, fs, dir, 0)
	if len(got) != 25 || stats.LastSeq != 25 {
		t.Fatalf("after second crash: %d records (LastSeq %d), want all 25", len(got), stats.LastSeq)
	}
	if !stats.Torn || stats.Segments != 2 {
		t.Fatalf("stats %+v: want Torn (run 1's tail) and both segments visited", stats)
	}
	for i, r := range got[:9] {
		if r != rec(i+1) {
			t.Fatalf("record %d: got %+v want %+v", i, r, rec(i+1))
		}
	}
	for i, r := range got[9:] {
		if r != rec(i+10) {
			t.Fatalf("record %d: got %+v want %+v", i+9, r, rec(i+10))
		}
	}
}

// TestReplayStopsAtSeqGapAcrossSegments: when the segment after a torn
// one does NOT continue the record stream, applying it would skip
// records — replay must stop at the last reachable record instead.
func TestReplayStopsAtSeqGapAcrossSegments(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 10)
	l1.Close()
	segs, _ := listSegments(fs, dir)
	if err := fs.Truncate(segs[0], int64(segHeaderSize+9*RecordSize+RecordSize/2)); err != nil {
		t.Fatal(err)
	}
	// A later segment opening at seq 12: records 10 and 11 are missing.
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l2, 12, 20)
	l2.Close()
	got, stats := collect(t, fs, dir, 0)
	if len(got) != 9 || !stats.Torn || stats.LastSeq != 9 {
		t.Fatalf("gap not respected: %d records, stats %+v", len(got), stats)
	}
	// With a checkpoint covering seq 11, the same suffix is contiguous.
	got, stats = collect(t, fs, dir, 11)
	if len(got) != 9 || got[0].Seq != 12 || stats.LastSeq != 20 {
		t.Fatalf("checkpoint-covered gap: %d records, stats %+v", len(got), stats)
	}
}

func TestFsyncAlwaysSyncsEveryAppend(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 5)
	if got := fs.Ops(simfs.OpSync); got != 5 {
		t.Fatalf("FsyncAlways: %d syncs (want 5)", got)
	}
	l.Close()
}

func TestFsyncIntervalBatchesSyncs(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncInterval, FsyncInterval: time.Hour, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 100)
	if got := fs.Ops(simfs.OpSync); got != 0 {
		t.Fatalf("interval=1h synced %d times during appends", got)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Ops(simfs.OpSync); got != 1 {
		t.Fatalf("explicit Sync: %d syncs, want 1", got)
	}
	l.Close()
}

func TestInjectedWriteErrorSurfaces(t *testing.T) {
	fs := testFS()
	boom := errors.New("injected write failure")
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 3)
	fs.FailOp(simfs.OpWrite, 1, boom)
	// The bufio layer may absorb a few records before flushing into the
	// failing file; an error must surface by the next Sync at the latest.
	var got error
	for i := 4; i <= 4096 && got == nil; i++ {
		got = l.Append(rec(i))
	}
	if got == nil {
		got = l.Sync()
	}
	if got == nil || !errors.Is(got, boom) {
		t.Fatalf("injected write error not surfaced: %v", got)
	}
}

func TestInjectedFsyncErrorSurfaces(t *testing.T) {
	fs := testFS()
	boom := errors.New("injected fsync failure")
	l := testOpen(t, fs, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 2)
	fs.FailOp(simfs.OpSync, 1, boom)
	if err := l.Append(rec(3)); err == nil || !errors.Is(err, boom) {
		t.Fatalf("injected fsync error not surfaced: %v", err)
	}
}

// TestUnsyncedAppendsLostAtPowerCut pins what the fsync policies
// actually buy: under FsyncNever a power cut erases everything since
// the last rotation, under FsyncAlways nothing is ever lost.
func TestUnsyncedAppendsLostAtPowerCut(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 20)
	fs.PowerCut(nil)
	got, _ := collect(t, fs, "/wal", 0)
	if len(got) != 0 {
		t.Fatalf("FsyncNever survived %d records across a power cut", len(got))
	}

	fs2 := testFS()
	l2 := testOpen(t, fs2, Options{FS: fs2, Fsync: FsyncAlways, SegmentBytes: 1 << 20})
	appendN(t, l2, 1, 20)
	fs2.PowerCut(nil)
	got, stats := collect(t, fs2, "/wal", 0)
	if len(got) != 20 || stats.LastSeq != 20 {
		t.Fatalf("FsyncAlways lost records: %d survived, stats %+v", len(got), stats)
	}
}

func TestConcurrentAppendsAllSurvive(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 64*RecordSize})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	var seq struct {
		mu sync.Mutex
		n  uint64
	}
	next := func() uint64 {
		seq.mu.Lock()
		defer seq.mu.Unlock()
		seq.n++
		return seq.n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Op: OpAlloc, Bin: uint32(w), K: 1, Seq: next()}
				if err := l.Append(r); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	// The log lost nothing: every segment file decodes cleanly and
	// together they hold every record. A goroutine that drew its seq and
	// lost the CPU before Append can land an older seq behind a rotation,
	// and the replay's continuity rule (opensGap) then refuses the
	// segment whose header opens past what came before; sound is what
	// the replay must return — everything before the first such segment,
	// which is everything when there is none.
	var got, sound []Record
	var covered uint64
	gap := false
	segs, _ := listSegments(fs, l.Dir())
	for _, p := range segs {
		data, err := fs.ReadFile(p)
		data = data[:len(data)-FooterLen(data)]
		first, ok := parseSegmentHeader(data)
		if err != nil || !ok || (len(data)-segHeaderSize)%RecordSize != 0 {
			t.Fatalf("segment %s: %d bytes, header ok %v, err %v", p, len(data), ok, err)
		}
		gap = gap || opensGap(first, covered)
		for off := segHeaderSize; off < len(data); off += RecordSize {
			r, ok := DecodeRecord(data[off : off+RecordSize])
			if !ok {
				t.Fatalf("segment %s: corrupt record at byte %d", p, off)
			}
			got = append(got, r)
			if !gap {
				sound = append(sound, r)
				covered = max(covered, r.Seq)
			}
		}
	}
	if len(got) != workers*per {
		t.Fatalf("concurrent appends: %d records in %d segments, want %d", len(got), len(segs), workers*per)
	}
	replayed, stats := collect(t, fs, l.Dir(), 0)
	if !slices.Equal(replayed, sound) || stats.Torn {
		t.Fatalf("replay returned %d records, want %d of the %d on disk (gap %v), stats %+v",
			len(replayed), len(sound), len(got), gap, stats)
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "ALWAYS": FsyncAlways,
		"interval": FsyncInterval, "": FsyncInterval,
		"never": FsyncNever, " Never ": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestRecordEncodingIsFixedWidth(t *testing.T) {
	var buf [RecordSize]byte
	r := Record{Op: OpCrash, Bin: 1<<32 - 1, K: -7, Seq: 1<<64 - 1}
	r.encode(buf[:])
	got, ok := DecodeRecord(buf[:])
	if !ok || got != r {
		t.Fatalf("roundtrip: %+v ok=%v", got, ok)
	}
	// Any single bit flip must fail the CRC.
	for i := 0; i < RecordSize; i++ {
		buf[i] ^= 1
		if _, ok := DecodeRecord(buf[:]); ok {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
		buf[i] ^= 1
	}
}

func TestSegmentNameOrdering(t *testing.T) {
	a, b := segmentName(9), segmentName(10)
	if !(a < b) {
		t.Fatalf("segment names must sort by seq: %q vs %q", a, b)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], 42)
	if fmt.Sprintf("wal-%016x.seg", 42) != segmentName(42) {
		t.Fatal("segment naming drifted")
	}
}
