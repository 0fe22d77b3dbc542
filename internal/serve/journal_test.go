package serve

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// The tests in this file run the journal against the simulated
// filesystem (internal/simfs): deterministic, no disk, and trial
// forks are cheap Clone calls instead of directory copies. The
// crash-schedule explorer (internal/simfs/explore) drives the same
// stack through randomized crash points; these tests pin the
// hand-picked layouts with exact assertions.
func newJournaled(t *testing.T, n, shards int, opts wal.Options) (*Store, *Journal, *simfs.FS, string) {
	t.Helper()
	fs := simfs.New()
	dir := "/wal"
	opts.Dir = dir
	opts.FS = fs
	if opts.SegmentBytes == 0 {
		// Tiny segments so every test exercises rotation.
		opts.SegmentBytes = 16 + 20*wal.RecordSize
	}
	if opts.Fsync == 0 {
		opts.Fsync = wal.FsyncNever
	}
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(n, shards)
	// A small MaxBatch so rotation still happens every few records
	// against the tiny segments above — and every test here exercises
	// the batched append path.
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 64, MaxBatch: 4})
	return st, j, fs, dir
}

// refOp is one successful mutation of the reference model.
type refOp struct {
	op     wal.Op
	bin, k int
}

// applyRef replays a prefix of the reference op log onto plain ints.
func applyRef(n int, ops []refOp) (loads []int, allocs, frees int64) {
	loads = make([]int, n)
	for _, o := range ops {
		switch o.op {
		case wal.OpAlloc:
			loads[o.bin]++
			allocs++
		case wal.OpFree:
			loads[o.bin]--
			frees++
		case wal.OpCrash:
			loads[o.bin] += o.k
		}
	}
	return loads, allocs, frees
}

func assertStoreMatchesRef(t *testing.T, st *Store, n int, ops []refOp, what string) {
	t.Helper()
	want, allocs, frees := applyRef(n, ops)
	got := st.LoadsCopy()
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("%s: bin %d restored to %d, reference says %d (prefix %d ops)",
				what, b, got[b], want[b], len(ops))
		}
	}
	if st.Allocs() != allocs || st.Frees() != frees {
		t.Fatalf("%s: op clocks allocs=%d frees=%d, reference %d/%d",
			what, st.Allocs(), st.Frees(), allocs, frees)
	}
}

func TestJournalRoundTripThroughRestore(t *testing.T) {
	const n = 16
	st, j, fs, dir := newJournaled(t, n, 4, wal.Options{})
	st.FillBalanced(10)
	admitOne(st, 3)
	admitOne(st, 3)
	if _, err := st.FreeBin(3); err != nil {
		t.Fatal(err)
	}
	st.Crash(7, 5)
	want := st.LoadsCopy()
	wantAllocs, wantFrees := st.Allocs(), st.Frees()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := NewStoreShards(n, 4)
	res, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored || res.Torn || res.SkippedFrees != 0 {
		t.Fatalf("restore result %+v", res)
	}
	got := fresh.LoadsCopy()
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bin %d: restored %d, want %d", b, got[b], want[b])
		}
	}
	if fresh.Allocs() != wantAllocs || fresh.Frees() != wantFrees {
		t.Fatalf("restored clocks %d/%d, want %d/%d", fresh.Allocs(), fresh.Frees(), wantAllocs, wantFrees)
	}
	if res.LastSeq != j.LastSeq() {
		t.Fatalf("restored LastSeq %d, journal wrote %d", res.LastSeq, j.LastSeq())
	}
}

// TestRealDiskRestore keeps restore over the production vfs.OS
// covered end to end; everything else runs on simfs.
func TestRealDiskRestore(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(8, 2)
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 16})
	for i := 0; i < 20; i++ {
		admitOne(st, i%8)
	}
	if _, _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := NewStoreShards(8, 2)
	res, err := RestoreFSOpts(fresh, vfs.OS, dir, RestoreOptions{})
	if err != nil || !res.Restored {
		t.Fatalf("real-disk restore: %+v, %v", res, err)
	}
	assertStoreMatchesRef(t, fresh, 8, allocRef(20, 8), "real-disk restore")
}

// TestCrashRecoveryProperty is the acceptance property test: drive a
// randomized traffic prefix through a journaled store, kill it at an
// arbitrary record boundary (and mid-record via truncation, and via a
// corrupted CRC, and with the newest checkpoint destroyed), restore,
// and require the rebuilt store to equal the reference replay exactly.
func TestCrashRecoveryProperty(t *testing.T) {
	const (
		n      = 24
		shards = 4
		opsLen = 400
	)
	r := rng.New(20260805)

	st, j, fs, dir := newJournaled(t, n, shards, wal.Options{})
	var ops []refOp
	var ckptSeqs []int // op-counts at which checkpoints were taken
	mutate := func() {
		switch r.Intn(10) {
		case 0: // crash injection
			b, k := r.Intn(n), 1+r.Intn(4)
			st.Crash(b, k)
			ops = append(ops, refOp{wal.OpCrash, b, k})
		case 1, 2, 3: // departure (may hit an empty bin: then no record)
			b := r.Intn(n)
			if _, err := st.FreeBin(b); err == nil {
				ops = append(ops, refOp{wal.OpFree, b, 1})
			}
		default: // admission
			b := r.Intn(n)
			admitOne(st, b)
			ops = append(ops, refOp{wal.OpAlloc, b, 1})
		}
	}
	for len(ops) < opsLen {
		mutate()
		// Two checkpoints mid-stream: the second's truncation must leave
		// enough WAL for the first to restore from (two are kept).
		if len(ops) == opsLen/3 || len(ops) == 2*opsLen/3 {
			if _, _, err := j.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ckptSeqs = append(ckptSeqs, len(ops))
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	newestCkpt := ckptSeqs[len(ckptSeqs)-1]
	oldestCkpt := ckptSeqs[0]

	// Checkpoint truncation deletes fully-covered segments, so file
	// positions no longer map to sequence numbers. The cut point is
	// instead read out of the record bytes themselves: traffic was
	// single-threaded, so file order equals seq order and the seq field
	// (record offset 9..17) of the last surviving record IS the highest
	// surviving seq.
	recordsIn := func(cfs *simfs.FS, path string) int {
		data, err := cfs.ReadFile(path)
		if err != nil {
			t.Fatalf("missing segment %s", path)
		}
		return (len(data) - 16 - wal.FooterLen(data)) / wal.RecordSize
	}
	seqAt := func(cfs *simfs.FS, path string, idx int) int {
		data, err := cfs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := 16 + idx*wal.RecordSize + 9
		var v uint64
		for i := 7; i >= 0; i-- { // little-endian
			v = v<<8 | uint64(data[off+i])
		}
		return int(v)
	}
	sortedSegs := func(cfs *simfs.FS) []string {
		segs, err := cfs.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments: %v", err)
		}
		return segs
	}
	// lastSeqBefore returns the seq of the final record strictly before
	// position idx of segment si (0 if none survives in any segment).
	lastSeqBefore := func(cfs *simfs.FS, segs []string, si, idx int) int {
		for ; si >= 0; si-- {
			if idx > 0 {
				return seqAt(cfs, segs[si], idx-1)
			}
			if si > 0 {
				idx = recordsIn(cfs, segs[si-1])
			}
		}
		return 0
	}

	type trial struct {
		name      string
		mutateDir func(t *testing.T, cfs *simfs.FS) int // returns highest surviving seq (or -1 = all)
	}
	trials := []trial{
		{"no-cut", func(t *testing.T, cfs *simfs.FS) int { return -1 }},
		{"boundary-cut", func(t *testing.T, cfs *simfs.FS) int {
			segs := sortedSegs(cfs)
			last := len(segs) - 1
			keep := r.Intn(recordsIn(cfs, segs[last]) + 1)
			if err := cfs.Truncate(segs[last], int64(16+keep*wal.RecordSize)); err != nil {
				t.Fatal(err)
			}
			return lastSeqBefore(cfs, segs, last, keep)
		}},
		{"mid-record-cut", func(t *testing.T, cfs *simfs.FS) int {
			segs := sortedSegs(cfs)
			last := len(segs) - 1
			keep := r.Intn(recordsIn(cfs, segs[last])) // at least one partial record remains
			off := int64(16 + keep*wal.RecordSize + 1 + r.Intn(wal.RecordSize-2))
			if err := cfs.Truncate(segs[last], off); err != nil {
				t.Fatal(err)
			}
			return lastSeqBefore(cfs, segs, last, keep)
		}},
		{"corrupt-crc", func(t *testing.T, cfs *simfs.FS) int {
			segs := sortedSegs(cfs)
			// Pick a random record across all segments, flip a bin byte;
			// the CRC no longer matches and replay stops inside that
			// segment.
			si := r.Intn(len(segs))
			inSeg := recordsIn(cfs, segs[si])
			if inSeg == 0 {
				return -1
			}
			ri := r.Intn(inSeg)
			if err := cfs.Corrupt(segs[si], int64(16+ri*wal.RecordSize+2), 0x55); err != nil {
				t.Fatal(err)
			}
			// When the whole corrupted segment is already covered by the
			// newest checkpoint, replay bridges into the next segment (no
			// record would be skipped) and nothing is lost at all;
			// otherwise the corruption cuts the stream right there.
			if si < len(segs)-1 && seqAt(cfs, segs[si], inSeg-1) <= newestCkpt {
				return -1
			}
			return lastSeqBefore(cfs, segs, si, ri)
		}},
		{"newest-checkpoint-destroyed", func(t *testing.T, cfs *simfs.FS) int {
			metas, err := checkpoint.ListFS(cfs, dir)
			if err != nil || len(metas) != 2 {
				t.Fatalf("want 2 retained checkpoints, got %d (%v)", len(metas), err)
			}
			// Truncate the newest checkpoint file: LoadLatest must fall
			// back to the older one and replay the longer suffix.
			if err := cfs.Truncate(metas[1].Path, 9); err != nil {
				t.Fatal(err)
			}
			return -1
		}},
	}

	for round := 0; round < 8; round++ {
		for _, tr := range trials {
			cfs := fs.Clone()
			surviving := tr.mutateDir(t, cfs)

			prefix := len(ops)
			if surviving >= 0 {
				prefix = surviving
			}
			// The checkpoint floor: a kill cannot un-write a durable
			// checkpoint, so the restored state is at least that advanced.
			floor := newestCkpt
			if tr.name == "newest-checkpoint-destroyed" {
				floor = oldestCkpt
			}
			if prefix < floor {
				prefix = floor
			}

			fresh := NewStoreShards(n, shards)
			res, err := RestoreFSOpts(fresh, cfs, dir, RestoreOptions{})
			if err != nil {
				t.Fatalf("%s round %d: restore: %v", tr.name, round, err)
			}
			if !res.Restored {
				t.Fatalf("%s round %d: nothing restored (%+v)", tr.name, round, res)
			}
			if res.SkippedFrees != 0 {
				t.Fatalf("%s round %d: replay skipped %d frees on an honest log", tr.name, round, res.SkippedFrees)
			}
			assertStoreMatchesRef(t, fresh, n, ops[:prefix], tr.name)
		}
	}
}

// TestJournalUnderConcurrentTraffic drives 4 concurrent mutators, each
// its own Batcher on its own rng stream, against a journaled store and
// requires the restored replica to match the final state bin for bin:
// per-bin record order is preserved by the store's lock even though the
// global interleaving is racy.
func TestJournalUnderConcurrentTraffic(t *testing.T) {
	const n, mutators, passes = 128, 4, 5000
	st, j, fs, dir := newJournaled(t, n, 8, wal.Options{SegmentBytes: 1 << 16})
	st.FillBalanced(n)

	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bt := NewBatcher(st, NewABKUPolicy(2), process.ScenarioA, 1)
			r := rng.NewStream(99, uint64(w))
			for i := 0; i < passes; i++ {
				if _, err := bt.Pass(r, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st.Crash(0, 64)
	want := st.LoadsCopy()
	wantAllocs, wantFrees := st.Allocs(), st.Frees()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := NewStoreShards(n, 8)
	res, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.SkippedFrees != 0 {
		t.Fatalf("restore result %+v", res)
	}
	got := fresh.LoadsCopy()
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bin %d: restored %d, want %d", b, got[b], want[b])
		}
	}
	if fresh.Allocs() != wantAllocs || fresh.Frees() != wantFrees {
		t.Fatalf("clocks: %d/%d want %d/%d", fresh.Allocs(), fresh.Frees(), wantAllocs, wantFrees)
	}
}

func TestCheckpointTruncatesCoveredSegments(t *testing.T) {
	st, j, fs, dir := newJournaled(t, 8, 2, wal.Options{SegmentBytes: 16 + 4*wal.RecordSize})
	for i := 0; i < 40; i++ {
		admitOne(st, i%8)
	}
	// Let the writer drain so sealed segments exist on disk.
	waitForSeq(t, j, 40)
	before, _ := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(before) < 5 {
		t.Fatalf("expected several sealed segments, got %d", len(before))
	}
	if _, _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Checkpoint(); err != nil { // second: oldest retained seq == 40 too
		t.Fatal(err)
	}
	after, _ := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint truncated nothing: %d -> %d segments", len(before), len(after))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := NewStoreShards(8, 2)
	res, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{})
	if err != nil || !res.Restored {
		t.Fatalf("restore after truncation: %+v, %v", res, err)
	}
	assertStoreMatchesRef(t, fresh, 8, allocRef(40, 8), "post-truncation restore")
}

func allocRef(count, n int) []refOp {
	ops := make([]refOp, count)
	for i := range ops {
		ops[i] = refOp{wal.OpAlloc, i % n, 1}
	}
	return ops
}

// waitForSeq drains the journal queue (Drain blocks until the writer
// has handed every enqueued record to the WAL) and forces the tail
// into the segment file with one Sync.
func waitForSeq(t *testing.T, j *Journal, seq uint64) {
	t.Helper()
	j.Drain()
	if j.LastSeq() < seq {
		t.Fatalf("journal at seq %d, want >= %d", j.LastSeq(), seq)
	}
	if err := j.log.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreSkipsFreeOfEmptyBinFromForgedLog(t *testing.T) {
	fs := simfs.New()
	dir := "/wal"
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// A forged log: free before any alloc, then normal traffic.
	recs := []wal.Record{
		{Op: wal.OpFree, Bin: 2, K: 1, Seq: 1},
		{Op: wal.OpAlloc, Bin: 2, K: 1, Seq: 2},
		{Op: wal.OpCrash, Bin: 0, K: 3, Seq: 3},
		{Op: wal.OpFree, Bin: 0, K: 1, Seq: 4},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	st := NewStoreShards(4, 2)
	res, err := RestoreFSOpts(st, fs, dir, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedFrees != 1 {
		t.Fatalf("skipped frees = %d, want 1", res.SkippedFrees)
	}
	if got := st.LoadsCopy(); got[2] != 1 || got[0] != 2 {
		t.Fatalf("forged-log state: %v", got)
	}
}

// TestDoubleCrashKeepsPostRestartMutations is the
// crash → restore → traffic → crash-again property test: run 1 takes a
// mid-run checkpoint (so boot-time truncation, which only reaches the
// oldest retained checkpoint's seq, cannot delete run 1's torn
// segment), dies mid-record, run 2 restores, takes the boot checkpoint
// exactly like cmd/dynallocd, serves more traffic, and dies mid-record
// too. The second restore must keep every acknowledged run 2 mutation:
// replay has to walk past run 1's torn tail into run 2's segment.
func TestDoubleCrashKeepsPostRestartMutations(t *testing.T) {
	const n = 16
	r := rng.New(77)
	var ops1, ops2 []refOp
	mutate := func(st *Store, ops *[]refOp) {
		switch r.Intn(10) {
		case 0:
			b, k := r.Intn(n), 1+r.Intn(4)
			st.Crash(b, k)
			*ops = append(*ops, refOp{wal.OpCrash, b, k})
		case 1, 2, 3:
			b := r.Intn(n)
			if _, err := st.FreeBin(b); err == nil {
				*ops = append(*ops, refOp{wal.OpFree, b, 1})
			}
		default:
			b := r.Intn(n)
			admitOne(st, b)
			*ops = append(*ops, refOp{wal.OpAlloc, b, 1})
		}
	}
	tearLastSegment := func(fs *simfs.FS, dir string) {
		segs, err := fs.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments to tear: %v", err)
		}
		last := segs[len(segs)-1]
		size := fs.Size(last)
		if size <= 16+wal.RecordSize {
			t.Fatalf("last segment too small to tear: %d bytes", size)
		}
		if err := fs.Truncate(last, size-wal.RecordSize/2); err != nil {
			t.Fatal(err)
		}
	}

	// Run 1: traffic, a mid-run checkpoint, more traffic, kill -9.
	st, j, fs, dir := newJournaled(t, n, 4, wal.Options{SegmentBytes: 1 << 20})
	for len(ops1) < 30 {
		mutate(st, &ops1)
	}
	if _, _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for len(ops1) < 60 {
		mutate(st, &ops1)
	}
	waitForSeq(t, j, uint64(len(ops1)))
	tearLastSegment(fs, dir) // run 1's last acknowledged record is lost

	// Run 2: restore, boot checkpoint (as cmd/dynallocd does), traffic.
	surviving1 := ops1[:len(ops1)-1]
	st2 := NewStoreShards(n, 4)
	res, err := RestoreFSOpts(st2, fs, dir, RestoreOptions{})
	if err != nil || !res.Restored || !res.Torn {
		t.Fatalf("first restore: %+v, %v", res, err)
	}
	assertStoreMatchesRef(t, st2, n, surviving1, "first restore")
	l2, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncNever, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewJournal(st2, l2, res.LastSeq, JournalOptions{Buffer: 64})
	if _, _, err := j2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for len(ops2) < 40 {
		mutate(st2, &ops2)
	}
	waitForSeq(t, j2, res.LastSeq+uint64(len(ops2)))
	// Run 1's torn segment must still be there (boot truncation reaches
	// only the oldest retained checkpoint) — the hazard under test.
	if segs, _ := fs.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) < 2 {
		t.Fatalf("expected run 1's torn segment to survive the boot checkpoint, have %d segments", len(segs))
	}
	tearLastSegment(fs, dir) // run 2 dies mid-record too

	// Second restore: every acknowledged mutation of BOTH runs except
	// the two torn-off records must be present.
	want := append(append([]refOp{}, surviving1...), ops2[:len(ops2)-1]...)
	st3 := NewStoreShards(n, 4)
	res3, err := RestoreFSOpts(st3, fs, dir, RestoreOptions{})
	if err != nil || !res3.Restored || !res3.Torn {
		t.Fatalf("second restore: %+v, %v", res3, err)
	}
	if res3.SkippedFrees != 0 {
		t.Fatalf("second restore skipped %d frees on an honest log", res3.SkippedFrees)
	}
	assertStoreMatchesRef(t, st3, n, want, "double crash")
}

// TestCheckpointMaintenanceFailureIsNonFatal: once the snapshot file
// is durably written, a failure to prune/truncate (here: an injected
// Remove failure on the first covered segment) must not surface as a
// Checkpoint error — it is reported via MaintErr and retried by the
// next checkpoint.
func TestCheckpointMaintenanceFailureIsNonFatal(t *testing.T) {
	st, j, fs, dir := newJournaled(t, 8, 2, wal.Options{SegmentBytes: 16 + 4*wal.RecordSize})
	for i := 0; i < 12; i++ {
		admitOne(st, i%8)
	}
	waitForSeq(t, j, 12)
	fs.FailOp(simfs.OpRemove, 1, errors.New("injected remove failure"))
	snap, path, err := j.Checkpoint()
	if err != nil {
		t.Fatalf("maintenance failure escalated into a checkpoint error: %v", err)
	}
	if path == "" || snap.Seq != 12 {
		t.Fatalf("checkpoint result degraded: seq %d path %q", snap.Seq, path)
	}
	if j.MaintErr() == nil {
		t.Fatal("maintenance failure not recorded in MaintErr")
	}
	// The snapshot really is on disk and restorable despite the error.
	fresh := NewStoreShards(8, 2)
	if res, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{}); err != nil || !res.Restored {
		t.Fatalf("restore after degraded checkpoint: %+v, %v", res, err)
	}
	// The fault has disarmed: the next checkpoint's maintenance succeeds.
	if _, _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.MaintErr(); err != nil {
		t.Fatalf("MaintErr not cleared after clean checkpoint: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDeferMaint: the boot sequence's split checkpoint. The
// snapshot half is durable and restorable on its own and removes
// nothing; Maintain then does exactly what Checkpoint's own pass would
// have (same segments gone, failures through MaintErr); and after Close
// a late Maintain touches nothing.
func TestCheckpointDeferMaint(t *testing.T) {
	st, j, fs, dir := newJournaled(t, 8, 2, wal.Options{SegmentBytes: 16 + 4*wal.RecordSize})
	for i := 0; i < 12; i++ {
		admitOne(st, i%8)
	}
	waitForSeq(t, j, 12)
	segments := func() int {
		paths, err := fs.Glob(dir + "/wal-*.seg")
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}
	before := segments()
	snap, path, err := j.CheckpointDeferMaint()
	if err != nil || path == "" || snap.Seq != 12 {
		t.Fatalf("deferred checkpoint: seq %d path %q, %v", snap.Seq, path, err)
	}
	if got := segments(); got != before {
		t.Fatalf("the snapshot half removed segments: %d -> %d", before, got)
	}
	fresh := NewStoreShards(8, 2)
	if res, err := RestoreFSOpts(fresh, fs.Clone(), dir, RestoreOptions{}); err != nil || res.CheckpointSeq != 12 || res.Replayed != 0 {
		t.Fatalf("restore before maintenance: %+v, %v", res, err)
	}

	fs.FailOp(simfs.OpRemove, 1, errors.New("injected remove failure"))
	if removed := j.Maintain(); removed != 0 || j.MaintErr() == nil {
		t.Fatalf("failed maintenance: %d segments removed, MaintErr %v", removed, j.MaintErr())
	}
	removed := j.Maintain() // the fault has disarmed
	if err := j.MaintErr(); err != nil || removed == 0 || segments() != before-removed {
		t.Fatalf("maintenance: removed %d of %d segments, %d left, MaintErr %v", removed, before, segments(), err)
	}

	admitOne(st, 0)
	if _, _, err := j.CheckpointDeferMaint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	left := segments()
	if removed := j.Maintain(); removed != 0 || segments() != left {
		t.Fatalf("Maintain after Close removed %d segments (%d -> %d)", removed, left, segments())
	}
}

// gateFS wraps a vfs.FS so every write to files it creates blocks
// until the gate channel is closed — a hung (not erroring) disk.
type gateFS struct {
	vfs.FS
	gate chan struct{}
}

func (g gateFS) Create(name string) (vfs.File, error) {
	f, err := g.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, gate: g.gate}, nil
}

type gateFile struct {
	vfs.File
	gate chan struct{}
}

func (g *gateFile) Write(p []byte) (int, error) { <-g.gate; return g.File.Write(p) }

// TestJournalGroupCommit: with a SyncWriter journal (deterministic
// batch boundaries) under FsyncAlways, a burst of mutations shares
// fsyncs — ceil(burst/MaxBatch) of them, not one per record.
func TestJournalGroupCommit(t *testing.T) {
	fs := simfs.New()
	l, err := wal.Open(wal.Options{Dir: "/wal", FS: fs, Fsync: wal.FsyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(8, 2)
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 256, MaxBatch: 16, SyncWriter: true})
	for i := 0; i < 64; i++ {
		admitOne(st, i%8)
	}
	j.Drain()
	if got := fs.Ops(simfs.OpSync); got != 4 {
		t.Fatalf("64 mutations at MaxBatch=16 issued %d fsyncs, want 4", got)
	}
	if j.LastSeq() != 64 || j.Err() != nil {
		t.Fatalf("seq %d err %v after drain", j.LastSeq(), j.Err())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := NewStoreShards(8, 2)
	res, err := RestoreFSOpts(fresh, fs, "/wal", RestoreOptions{})
	if err != nil || res.LastSeq != 64 {
		t.Fatalf("restore: %+v, %v", res, err)
	}
	assertStoreMatchesRef(t, fresh, 8, allocRef(64, 8), "group commit")
}

// TestJournalBatchErrorAccounting: when a batch append fails, the
// first error is retained in Err and EVERY record of the batch counts
// toward wal.append.errors — none of them may be presumed durable.
func TestJournalBatchErrorAccounting(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()

	fs := simfs.New()
	boom := errors.New("injected write failure")
	l, err := wal.Open(wal.Options{Dir: "/wal", FS: fs, Fsync: wal.FsyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(8, 2)
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 64, MaxBatch: 8, SyncWriter: true})
	fs.FailOp(simfs.OpWrite, 1, boom)
	for i := 0; i < 8; i++ {
		admitOne(st, i%8)
	}
	j.Drain()
	if err := j.Err(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("first batch error not retained: %v", err)
	}
	snap := metrics.Default().Snapshot()
	if got := snap.Counters["wal.append.errors"]; got != 8 {
		t.Fatalf("wal.append.errors = %d, want the whole batch (8)", got)
	}
	// Availability is intact: the store took every mutation.
	if st.Total() != 8 {
		t.Fatalf("store lost mutations: %d balls", st.Total())
	}
	j.Close() // surfaces the retained error; expected
}

// TestDrainWaitsWithoutSpinning: Drain must block (on the writer's
// condition variable, not a Gosched spin) across a slow WAL write and
// return promptly once the writer settles.
func TestDrainWaitsWithoutSpinning(t *testing.T) {
	fs := simfs.New()
	gate := make(chan struct{})
	l, err := wal.Open(wal.Options{
		Dir: "/wal", Fsync: wal.FsyncAlways,
		FS: gateFS{FS: fs, gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(8, 2)
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 64})
	admitOne(st, 1)
	admitOne(st, 2)

	done := make(chan struct{})
	go func() {
		j.Drain()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Drain returned while the writer was wedged inside the WAL write")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate) // the disk un-wedges; the writer settles and wakes Drain
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never woke after the writer settled")
	}
	if j.LastSeq() != 2 || j.Err() != nil {
		t.Fatalf("seq %d err %v after drain", j.LastSeq(), j.Err())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCloseIdempotentAndDetaches(t *testing.T) {
	st, j, _, _ := newJournaled(t, 8, 2, wal.Options{})
	admitOne(st, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The hook is detached: further mutations don't panic or block.
	admitOne(st, 2)
	if st.Total() != 2 {
		t.Fatalf("store unusable after journal close: %+v", st.Stats())
	}
}

// TestJournalLogIsInSeqOrderAcrossRotations: the log is in seq order
// whatever the stripes' pushers do. Eight goroutines, each on a stripe
// of its own, mix OnAllocRun, OnFree and OnCrash through segments of
// about 4 KiB. A record that drew its seq before a rotation and
// reached the log after it would open the next segment past
// covered + 1, and replay would refuse acknowledged records from
// there on; seqs are drawn under the mutex that orders the slab, so
// every segment reads strictly upward from where the one before
// stopped, replay takes them all, and a restore is the live store.
func TestJournalLogIsInSeqOrderAcrossRotations(t *testing.T) {
	const stripes, perStripe, ops = 8, 8, 1500
	st, j, fs, dir := newJournaled(t, stripes*perStripe, stripes, wal.Options{SegmentBytes: 4 << 10})
	var wg sync.WaitGroup
	for g := 0; g < stripes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.NewStream(24, uint64(g))
			run := make([]int, 5)
			for i := 0; i < ops; i++ {
				bin := g*perStripe + r.Intn(perStripe)
				switch r.Intn(8) {
				case 0:
					st.Crash(bin, 1+r.Intn(3))
				case 1, 2, 3:
					st.FreeBin(bin) // an empty bin journals nothing
				default:
					run = run[:1+r.Intn(5)]
					for k := range run {
						run[k] = g*perStripe + r.Intn(perStripe)
					}
					st.AdmitBatch(run, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	want, wantAllocs, wantFrees := st.LoadsCopy(), st.Allocs(), st.Frees()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 50 {
		t.Fatalf("%d segments (%v), want at least 50 rotations", len(segs), err)
	}
	var last uint64
	for _, p := range segs {
		data, err := fs.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for off := 16; off < len(data)-wal.FooterLen(data); off += wal.RecordSize {
			rec, ok := wal.DecodeRecord(data[off : off+wal.RecordSize])
			if !ok || rec.Seq != last+1 {
				t.Fatalf("%s byte %d: seq %d (ok=%v) after seq %d", p, off, rec.Seq, ok, last)
			}
			last = rec.Seq
		}
	}
	if last != j.LastSeq() {
		t.Fatalf("the segments end at seq %d, the journal drew %d", last, j.LastSeq())
	}
	stats, err := wal.ReplayPipelineFS(fs, dir, 0, wal.PipelineOptions{ApplyBatch: func(int, []wal.Record) error { return nil }})
	if err != nil || stats.Torn || stats.Segments != len(segs) || stats.Applied != int64(last) {
		t.Fatalf("replay refused part of the log: %+v, %v (%d segments, %d records on disk)", stats, err, len(segs), last)
	}
	fresh := NewStoreShards(stripes*perStripe, stripes)
	res, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{})
	if err != nil || res.Torn || res.SkippedFrees != 0 || res.LastSeq != last {
		t.Fatalf("restore: %+v, %v", res, err)
	}
	if got := fresh.LoadsCopy(); !slices.Equal(got, want) || fresh.Allocs() != wantAllocs || fresh.Frees() != wantFrees {
		t.Fatalf("restore is not the live store: clocks %d/%d want %d/%d", fresh.Allocs(), fresh.Frees(), wantAllocs, wantFrees)
	}
}

// TestCloseWakesPushBlockedOnFullSlab: queued-but-unappended records
// never exceed Buffer, a push short of room when Close runs wakes,
// sees the journal closed and is counted in serve.journal.dropped by
// records — it neither hangs nor reaches a log that is closing — and
// its wait in serve.journal.waits and wait_ns.
func TestCloseWakesPushBlockedOnFullSlab(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	fs := simfs.New()
	gate := make(chan struct{})
	l, err := wal.Open(wal.Options{Dir: "/wal", Fsync: wal.FsyncAlways, FS: gateFS{FS: fs, gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreShards(8, 1) // one stripe: an AdmitBatch is one run
	j := NewJournal(st, l, 0, JournalOptions{Buffer: 8})
	st.AdmitBatch([]int{0, 1, 2}, nil)
	st.AdmitBatch([]int{3, 4, 5}, nil) // 6 queued behind the wedged write

	pushed := make(chan struct{})
	go func() {
		defer close(pushed)
		st.AdmitBatch([]int{6, 7, 0}, nil) // 6 + 3 > 8: waits whole
	}()
	for st.Total() != 9 { // applied; its hook call is next
		runtime.Gosched()
	}
	select {
	case <-pushed:
		t.Fatal("a run of 3 got past the bound with 6 of 8 queued")
	case <-time.After(50 * time.Millisecond):
	}
	j.mu.Lock()
	queued := j.seq.Load() - j.appended
	j.mu.Unlock()
	if queued != 6 {
		t.Fatalf("%d records queued and unappended, want the 6 that fit Buffer 8", queued)
	}

	closed := make(chan error, 1)
	go func() { closed <- j.Close() }()
	select {
	case <-pushed: // woken by Close, the disk still wedged
	case <-time.After(10 * time.Second):
		t.Fatal("the blocked push did not wake when the journal closed")
	}
	close(gate)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	snap := metrics.Default().Snapshot()
	if got := snap.Counters["serve.journal.dropped"]; got != 3 {
		t.Fatalf("serve.journal.dropped = %d, want the run's 3 records", got)
	}
	// The one push that found no room waited at least the 50 ms above;
	// the two that found room recorded nothing.
	if w, h := snap.Counters["serve.journal.waits"], snap.Histograms["serve.journal.wait_ns"]; w != 1 || h.Count != 1 || h.Sum < int64(50*time.Millisecond) {
		t.Fatalf("serve.journal.waits = %d, wait_ns %d samples summing %d ns; want one wait of 50 ms or more", w, h.Count, h.Sum)
	}
	fresh := NewStoreShards(8, 1)
	res, err := RestoreFSOpts(fresh, fs, "/wal", RestoreOptions{})
	if err != nil || res.LastSeq != 6 || j.LastSeq() != 6 || fresh.Total() != 6 {
		t.Fatalf("restore: %+v, %v; journal at seq %d, %d balls restored", res, err, j.LastSeq(), fresh.Total())
	}
}

// TestJournaledDriveWithinFactorOfBare holds the gap between the bare
// admission lane and the journaled one as a gate, not a reading: the
// same drive (n = 2^15, passes of 64) through a journal on a
// real directory, fsync never, must keep at least 0.55 of the bare
// drive's phases/s. A ratio of timings taken back to back on one
// machine does not depend on the runner's speed; best of 3 interleaved
// rounds, so one preemption does not trip it.
func TestJournaledDriveWithinFactorOfBare(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: skipped under -short and -race")
	}
	const n, steps = 1 << 15, 1 << 20
	drive := func(st *Store) float64 {
		res := NewEngine(Config{
			Store: st, Policy: NewABKUPolicy(2), Scenario: process.ScenarioA,
			Seed: 1998, MaxSteps: steps, Batch: 64,
		}).Run(context.Background())
		return float64(res.Steps) / res.Wall.Seconds()
	}
	var bare, journaled float64
	for round := 0; round < 3; round++ {
		st := NewStore(n)
		st.FillBalanced(n)
		bare = max(bare, drive(st))

		l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		j := NewJournal(st, l, 0, JournalOptions{})
		journaled = max(journaled, drive(st))
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ratio := journaled / bare
	t.Logf("bare %.2fM phases/s, journaled %.2fM phases/s, ratio %.2f", bare/1e6, journaled/1e6, ratio)
	if ratio < 0.55 {
		t.Errorf("the journaled drive runs at %.2f of the bare one; want >= 0.55", ratio)
	}
}
