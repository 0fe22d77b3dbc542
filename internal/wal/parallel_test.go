package wal

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"dynalloc/internal/rng"
	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
)

// pipelineRun drives ReplayPipelineFS with a recording applier and
// returns the per-worker record streams (each in arrival order) plus
// the stats. Partitioning is by bin, so which worker owns a record is
// independent of segment layout — like the serve layer's stripe
// mapping.
func pipelineRun(t *testing.T, fs vfs.FS, dir string, afterSeq uint64, workers int) ([][]Record, ReplayStats, error) {
	t.Helper()
	streams := make([][]Record, workers)
	var mu sync.Mutex
	stats, err := ReplayPipelineFS(fs, dir, afterSeq, PipelineOptions{
		Workers:   workers,
		Partition: func(r Record) int { return int(r.Bin) },
		ApplyBatch: func(w int, recs []Record) error {
			mu.Lock()
			streams[w] = append(streams[w], recs...)
			mu.Unlock()
			return nil
		},
	})
	// Stage timings differ from run to run; everything else is compared
	// with ==.
	stats.ReadNs, stats.DecodeNs, stats.ApplyNs = 0, 0, 0
	return streams, stats, err
}

// The TestPipelineParity* cases build one crash shape each and hand it
// to collect (wal_test.go), which replays it with one apply lane and
// demands 2, 3 and 8 workers be indistinguishable from that.

func TestPipelineParityCleanRotation(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 100) // tiny segments: a dozen rotations
	l.Close()
	collect(t, fs, l.Dir(), 0)
	collect(t, fs, l.Dir(), 25) // afterSeq filter
	collect(t, fs, l.Dir(), 1000)
}

func TestPipelineParityEmptyDir(t *testing.T) {
	fs := testFS()
	collect(t, fs, "/wal", 0)
}

func TestPipelineParityTornTail(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 50)
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if err := fs.Truncate(segs[0], int64(segHeaderSize+48*RecordSize+RecordSize/2)); err != nil {
		t.Fatal(err)
	}
	collect(t, fs, l.Dir(), 0)
}

func TestPipelineParityCorruptedCRC(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 60)
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if err := fs.Corrupt(segs[1], segHeaderSize+2*RecordSize+3, 0xff); err != nil {
		t.Fatal(err)
	}
	collect(t, fs, l.Dir(), 0)
}

func TestPipelineParityBadSegmentHeader(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 4*RecordSize})
	appendN(t, l, 1, 6)
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if err := fs.Corrupt(segs[1], 0, 0xff); err != nil {
		t.Fatal(err)
	}
	collect(t, fs, l.Dir(), 0)
}

// TestPipelineParityHealedTornSegment is the double-crash layout: run
// 1's tail is torn, run 2's segment opens contiguously past it. Every
// worker count must walk through the tear into run 2's records.
func TestPipelineParityHealedTornSegment(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 10)
	l1.Close()
	segs, _ := listSegments(fs, dir)
	fs.Truncate(segs[0], int64(segHeaderSize+9*RecordSize+RecordSize/2))
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l2, 10, 25)
	l2.Close()
	collect(t, fs, dir, 0)
}

// TestPipelineParitySeqGap: the segment after the tear does NOT
// continue the stream; every worker count must stop at the last
// reachable record, and accept the suffix when a checkpoint covers the
// gap (afterSeq = 11).
func TestPipelineParitySeqGap(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 10)
	l1.Close()
	segs, _ := listSegments(fs, dir)
	fs.Truncate(segs[0], int64(segHeaderSize+9*RecordSize+RecordSize/2))
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l2, 12, 20)
	l2.Close()
	collect(t, fs, dir, 0)
	collect(t, fs, dir, 11)
}

// TestPipelineStopsReadingPastGap: the segments past a seq gap are the
// stale suffix restore fences; the replay must not walk all of them,
// and how many it had read ahead when the validator stopped must be the
// same every time (the schedule explorer replays by FS op count).
func TestPipelineStopsReadingPastGap(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 10)
	l1.Close()
	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: segHeaderSize + 4*RecordSize})
	appendN(t, l2, 12, 100)
	l2.Close()
	segs, _ := listSegments(fs, dir)
	for _, workers := range []int{1, 3, 8} {
		first := int64(-1)
		for run := 0; run < 20; run++ {
			before := fs.OpCount()
			streams, stats, err := pipelineRun(t, fs, dir, 0, workers)
			ops := fs.OpCount() - before
			if err != nil || stats.Segments != 1 || stats.LastSeq != 10 || stats.Torn {
				t.Fatalf("workers=%d: stats %+v, %v", workers, stats, err)
			}
			for _, st := range streams {
				for _, r := range st {
					if r.Seq > 10 {
						t.Fatalf("workers=%d: applied seq %d from past the gap", workers, r.Seq)
					}
				}
			}
			if first < 0 {
				first = ops
			}
			if ops != first || ops >= 3*int64(len(segs)) {
				t.Fatalf("workers=%d run %d: %d FS ops, first run %d, %d segments on disk", workers, run, ops, first, len(segs))
			}
		}
	}
}

// TestPipelineParityTruncatedHead: a head segment opening past
// afterSeq+1 is a gap from scratch but contiguous once the checkpoint
// covers it — every worker count must agree in both modes.
func TestPipelineParityTruncatedHead(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 10*RecordSize})
	appendN(t, l, 1, 35)
	if _, err := l.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}
	l.Close()
	collect(t, fs, l.Dir(), 0)
	collect(t, fs, l.Dir(), 20)
	collect(t, fs, l.Dir(), 30)
}

// TestPipelineApplyErrorAborts: an ApplyBatch error must surface from
// ReplayPipelineFS and stop the replay (later batches are drained, not
// applied).
func TestPipelineApplyErrorAborts(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 80)
	l.Close()

	boom := errors.New("apply exploded")
	var applied, calls int
	var mu sync.Mutex
	_, err := ReplayPipelineFS(fs, l.Dir(), 0, PipelineOptions{
		Workers:   3,
		Partition: func(r Record) int { return int(r.Bin) },
		ApplyBatch: func(w int, recs []Record) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			for _, r := range recs {
				if r.Seq == 30 {
					return boom
				}
				applied++
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("pipeline error = %v, want the apply error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if applied >= 80 {
		t.Fatalf("replay did not stop: %d records applied over %d calls", applied, calls)
	}
}

// TestPipelineOpenErrorIsFatal: a segment that cannot be opened fails
// the replay at every worker count, after the sound prefix was applied.
func TestPipelineOpenErrorIsFatal(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 4*RecordSize})
	appendN(t, l, 1, 10)
	l.Close()
	segs, _ := listSegments(fs, l.Dir())
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}

	// The read-ahead stage opens segments strictly in order, so the 2nd
	// Open is the second segment. Faults are one-shot; arm one per run.
	for _, workers := range []int{1, 2} {
		fs.FailOp(simfs.OpOpen, 2, nil)
		streams, _, err := pipelineRun(t, fs, l.Dir(), 0, workers)
		if err == nil || !strings.Contains(err.Error(), "wal: replay:") {
			t.Fatalf("workers=%d: error = %v, want a replay open error", workers, err)
		}
		got := 0
		for _, s := range streams {
			got += len(s)
		}
		if got != 4 {
			t.Fatalf("workers=%d: applied %d records before the fatal segment, want the first segment's 4", workers, got)
		}
	}
}

// TestPipelineNilPartitionAndApply: nil Partition routes everything to
// worker 0; nil ApplyBatch counts without applying. Stats must still
// match the partitioned replay.
func TestPipelineNilPartitionAndApply(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever})
	appendN(t, l, 1, 40)
	l.Close()
	_, wantStats := collect(t, fs, l.Dir(), 0)

	var mu sync.Mutex
	var got []Record
	stats, err := ReplayPipelineFS(fs, l.Dir(), 0, PipelineOptions{
		Workers: 4,
		ApplyBatch: func(w int, recs []Record) error {
			if w != 0 {
				t.Errorf("nil Partition sent a batch to worker %d", w)
			}
			mu.Lock()
			got = append(got, recs...)
			mu.Unlock()
			return nil
		},
	})
	stats.ReadNs, stats.DecodeNs, stats.ApplyNs = 0, 0, 0
	if err != nil || stats != wantStats {
		t.Fatalf("nil partition: stats %+v, %v; want %+v", stats, err, wantStats)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("worker 0 saw out-of-order seq %d at %d", r.Seq, i)
		}
	}

	// nil ApplyBatch scans without applying: Applied stays 0 (nothing
	// was handed to an applier), every other stat matches.
	scanStats := wantStats
	scanStats.Applied = 0
	stats, err = ReplayPipelineFS(fs, l.Dir(), 0, PipelineOptions{Workers: 3})
	stats.ReadNs, stats.DecodeNs, stats.ApplyNs = 0, 0, 0
	if err != nil || stats != scanStats {
		t.Fatalf("nil ApplyBatch: stats %+v, %v; want %+v", stats, err, scanStats)
	}
}

// TestPipelineNegativePartitionWraps: a Partition returning negatives
// (id % workers in Go keeps the sign) still lands on a valid worker.
func TestPipelineNegativePartitionWraps(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l, 1, 10)
	l.Close()
	var n int
	var mu sync.Mutex
	stats, err := ReplayPipelineFS(fs, l.Dir(), 0, PipelineOptions{
		Workers:   4,
		Partition: func(r Record) int { return -int(r.Bin) },
		ApplyBatch: func(w int, recs []Record) error {
			mu.Lock()
			n += len(recs)
			mu.Unlock()
			return nil
		},
	})
	if err != nil || stats.Applied != 10 || n != 10 {
		t.Fatalf("negative partition: stats %+v, %d applied, %v", stats, n, err)
	}
}

// hintFS reports every file's size through hint: the replay sizes its
// segment buffers by Stat and must not believe it.
type hintFS struct {
	*simfs.FS
	hint func(int64) int64
}

func (h hintFS) Stat(name string) (int64, error) {
	n, err := h.FS.Stat(name)
	return h.hint(n), err
}

// TestPipelineParitySizeHint: segments longer than the size the
// filesystem reported (read on to EOF, growing the buffer), shorter
// than it (not an error), and of unknown size all replay exactly as
// when the size was right, at every worker count.
func TestPipelineParitySizeHint(t *testing.T) {
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 300*RecordSize})
	appendN(t, l, 1, 1000) // 6.3 KB segments: several reads each once the hint is short
	l.Close()
	want, wantStats := collect(t, fs, l.Dir(), 0)
	for name, hint := range map[string]func(int64) int64{
		"longer":  func(n int64) int64 { return n / 5 },
		"shorter": func(n int64) int64 { return 3*n + 1000 },
		"unknown": func(int64) int64 { return 0 },
	} {
		reads := fs.Ops(simfs.OpRead)
		for _, workers := range []int{1, 3} {
			streams, stats, err := pipelineRun(t, hintFS{fs, hint}, l.Dir(), 0, workers)
			if err != nil || stats != wantStats {
				t.Fatalf("%s file, workers=%d: stats %+v, %v; want %+v", name, workers, stats, err, wantStats)
			}
			got := 0
			for _, st := range streams {
				got += len(st)
			}
			if got != len(want) {
				t.Fatalf("%s file, workers=%d: %d records, want %d", name, workers, got, len(want))
			}
		}
		if n := fs.Ops(simfs.OpRead) - reads; name != "shorter" && n <= 2*2*int64(wantStats.Segments) {
			t.Fatalf("%s file: %d reads for 2 passes over %d segments: the buffer never had to grow", name, n, wantStats.Segments)
		}
	}

	// A Stat that fails is an unknown size, not a failed replay.
	for _, workers := range []int{1, 3} {
		stats0 := fs.Ops(simfs.OpStat)
		fs.FailOp(simfs.OpStat, 2, errors.New("injected stat error"))
		streams, stats, err := pipelineRun(t, fs, l.Dir(), 0, workers)
		if err != nil || stats != wantStats || fs.Ops(simfs.OpStat)-stats0 != int64(wantStats.Segments) {
			t.Fatalf("stat fault, workers=%d: stats %+v, %v; want %+v", workers, stats, err, wantStats)
		}
		if workers == 1 && !slices.Equal(streams[0], want) {
			t.Fatalf("stat fault: %d records, want the %d of the clean replay", len(streams[0]), len(want))
		}
	}
}

// TestPipelineReadFaultMidSegment: a read that fails part-way through
// a segment costs the unread tail, not the bytes before it — the
// readable prefix is applied and the segment counts as torn — and a
// successor that opens at the next seq (the log of the incarnation
// that restored to that prefix) is walked into like after any torn
// tail.
func TestPipelineReadFaultMidSegment(t *testing.T) {
	fs := testFS()
	dir := "/wal"
	l1 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l1, 1, 400)
	l1.Close()
	short := hintFS{fs, func(n int64) int64 { return n / 8 }} // several reads per segment
	boom := errors.New("injected read error")

	fs.FailOp(simfs.OpRead, 3, boom)
	streams, stats, err := pipelineRun(t, short, dir, 0, 1)
	prefix := int(stats.LastSeq)
	if err != nil || !stats.Torn || prefix == 0 || prefix >= 400 || len(streams[0]) != prefix {
		t.Fatalf("read fault: %d records applied, stats %+v, %v; want a torn proper prefix", len(streams[0]), stats, err)
	}
	for i, r := range streams[0] {
		if r != rec(i+1) {
			t.Fatalf("prefix record %d: got %+v", i, r)
		}
	}

	l2 := testOpen(t, fs, Options{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l2, prefix+1, prefix+50)
	l2.Close()
	for _, workers := range []int{1, 2, 3, 8} {
		fs.FailOp(simfs.OpRead, 3, boom)
		streams, stats, err := pipelineRun(t, short, dir, 0, workers)
		want := ReplayStats{Segments: 2, Records: int64(prefix + 50), Applied: int64(prefix + 50),
			LastSeq: uint64(prefix + 50), Torn: true, Decoded: 2}
		if err != nil || stats != want {
			t.Fatalf("workers=%d: stats %+v, %v; want %+v", workers, stats, err, want)
		}
		seen := make([]bool, prefix+51)
		for w, st := range streams {
			last := uint64(0)
			for _, r := range st {
				if int(r.Bin)%workers != w || r.Seq <= last || seen[r.Seq] || r != rec(int(r.Seq)) {
					t.Fatalf("workers=%d worker %d: record %+v out of place (last seq %d)", workers, w, r, last)
				}
				last, seen[r.Seq] = r.Seq, true
			}
		}
	}

	// The fault on the very read that would have reported EOF loses no
	// byte, but the tail can no longer be called clean. (Read 1 is the
	// footer tail's positional read, read 2 the whole segment.)
	fs2 := testFS()
	l3 := testOpen(t, fs2, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	appendN(t, l3, 1, 40)
	l3.Close()
	fs2.FailOp(simfs.OpRead, 3, boom)
	streams, stats, err = pipelineRun(t, fs2, l3.Dir(), 0, 1)
	if err != nil || len(streams[0]) != 40 || !stats.Torn {
		t.Fatalf("fault at EOF: %d records, stats %+v, %v; want all 40 and torn", len(streams[0]), stats, err)
	}
}

// TestPipelinePartitionContract pins, in this module, the contract the
// frozen benchmark harness's applier relies on (benchmark/layers.go):
// it writes a plain array with no lock, one slot per bin, because one
// partition is one worker and a worker's batches come in file order,
// never two at a time. The same applier here, under -race, at every
// worker count, must rebuild what a sequential fold of the log does —
// and see each partition's seqs ascend, which the commutative fold
// alone would not notice.
func TestPipelinePartitionContract(t *testing.T) {
	const bins, stripes, stripe, records = 96, 8, 12, 3000
	fs := testFS()
	l := testOpen(t, fs, Options{Fsync: FsyncNever, SegmentBytes: segHeaderSize + 170*RecordSize})
	r := rng.New(21)
	want := make([]int32, bins)
	batch := make([]Record, 0, 64)
	for seq := uint64(1); seq <= records; seq++ {
		rc := Record{Op: OpAlloc, Bin: uint32(r.Intn(bins)), K: 1, Seq: seq}
		switch p := r.Intn(10); {
		case p == 0:
			rc.Op, rc.K = OpCrash, int32(r.Intn(5))
		case p < 5:
			rc.Op = OpFree
		}
		if rc.Op == OpFree {
			want[rc.Bin] -= rc.K
		} else {
			want[rc.Bin] += rc.K
		}
		if batch = append(batch, rc); len(batch) == cap(batch) || seq == records {
			if err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	l.Close()

	for _, workers := range []int{1, 2, 3, 8} {
		loads := make([]int32, bins)
		lastSeq := make([]uint64, stripes)
		outOfOrder := make([]bool, stripes)
		stats, err := ReplayPipelineFS(fs, l.Dir(), 0, PipelineOptions{
			Workers:   workers,
			Partition: func(rec Record) int { return int(rec.Bin) / stripe },
			ApplyBatch: func(_ int, recs []Record) error {
				for _, rec := range recs {
					if rec.Op == OpFree {
						loads[rec.Bin] -= rec.K
					} else {
						loads[rec.Bin] += rec.K
					}
					p := int(rec.Bin) / stripe
					outOfOrder[p] = outOfOrder[p] || rec.Seq <= lastSeq[p]
					lastSeq[p] = rec.Seq
				}
				return nil
			},
		})
		if err != nil || stats.Applied != records || stats.Torn || stats.Segments < 10 {
			t.Fatalf("workers=%d: stats %+v, %v", workers, stats, err)
		}
		for b := range want {
			if loads[b] != want[b] {
				t.Fatalf("workers=%d: bin %d holds %d, sequential fold %d", workers, b, loads[b], want[b])
			}
		}
		for p, bad := range outOfOrder {
			if bad {
				t.Fatalf("workers=%d: partition %d saw its records out of file order", workers, p)
			}
		}
	}
}
