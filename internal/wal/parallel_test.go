package wal

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"dynalloc/internal/simfs"
)

// pipelineRun drives ReplayPipelineFS with a recording applier and
// returns the per-worker record streams (each in arrival order) plus
// the stats. Partitioning is by bin, so which worker owns a record is
// independent of segment layout — like the serve layer's stripe
// mapping.
func pipelineRun(t *testing.T, fs *simfs.FS, dir string, afterSeq uint64, workers int) ([][]Record, ReplayStats, error) {
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
