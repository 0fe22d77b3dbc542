package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/rng"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// diffResults compares two RestoreResults on every field except the
// worker count and the phase timings (those legitimately differ across
// restore modes). Empty string means equal.
func diffResults(a, b RestoreResult) string {
	a.Workers, b.Workers = 0, 0
	a.CheckpointNs, b.CheckpointNs = 0, 0
	a.ReplayNs, b.ReplayNs = 0, 0
	a.FenceNs, b.FenceNs = 0, 0
	a.ReadNs, a.DecodeNs, a.ApplyNs = b.ReadNs, b.DecodeNs, b.ApplyNs
	if a != b {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}

// assertStoresEqual compares every externally observable piece of
// store state two restore modes must agree on.
func assertStoresEqual(t *testing.T, what string, a, b *Store) {
	t.Helper()
	if a.Total() != b.Total() || a.NonEmpty() != b.NonEmpty() ||
		a.Allocs() != b.Allocs() || a.Frees() != b.Frees() {
		t.Fatalf("%s: counters total=%d/%d nonEmpty=%d/%d allocs=%d/%d frees=%d/%d",
			what, a.Total(), b.Total(), a.NonEmpty(), b.NonEmpty(),
			a.Allocs(), b.Allocs(), a.Frees(), b.Frees())
	}
	la, lb := a.LoadsCopy(), b.LoadsCopy()
	for bin := range la {
		if la[bin] != lb[bin] {
			t.Fatalf("%s: bin %d loads %d vs %d", what, bin, la[bin], lb[bin])
		}
	}
}

// TestParallelRestoreMatchesSequential is the serve-level equivalence
// property: randomized journaled traffic with mid-stream (striped)
// checkpoints, then a restore with one apply lane (workers=1, so every
// record applies in file order) and at several parallel widths of the
// same pipeline — every RestoreResult field except timings and the
// full store state must be bit-identical.
func TestParallelRestoreMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		const n, shards = 64, 8
		st, j, fs, dir := newJournaled(t, n, shards, wal.Options{})
		r := rng.New(uint64(seed))
		for i := 0; i < 600; i++ {
			switch {
			case r.Float64() < 0.55:
				admitOne(st, int(r.Uint64n(n)))
			case r.Float64() < 0.5:
				st.FreeBin(int(r.Uint64n(n))) // may fail on empty: fine
			default:
				st.Crash(int(r.Uint64n(n)), int(r.Uint64n(4)))
			}
			if i%180 == 99 {
				if _, _, err := j.Checkpoint(); err != nil {
					t.Fatalf("seed %d: checkpoint: %v", seed, err)
				}
			}
		}
		want := st.LoadsCopy()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		seqSt := NewStoreShards(n, shards)
		seqRes, err := RestoreFSOpts(seqSt, fs.Clone(), dir, RestoreOptions{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential restore: %v", seed, err)
		}
		got := seqSt.LoadsCopy()
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("seed %d: sequential restore bin %d = %d, live store %d", seed, b, got[b], want[b])
			}
		}
		for _, workers := range []int{2, 3, shards, shards + 5} {
			parSt := NewStoreShards(n, shards)
			parRes, err := RestoreFSOpts(parSt, fs.Clone(), dir, RestoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if msg := diffResults(parRes, seqRes); msg != "" {
				t.Fatalf("seed %d workers %d: results diverge: %s", seed, workers, msg)
			}
			assertStoresEqual(t, fmt.Sprintf("seed %d workers %d", seed, workers), parSt, seqSt)
			if wantW := min(workers, shards); parRes.Workers != wantW {
				t.Fatalf("seed %d: ran with %d workers, want %d (clamped)", seed, parRes.Workers, wantW)
			}
		}
	}
}

// TestStripedCheckpointCarriesSections pins the striped checkpoint's
// on-disk shape: one section per non-empty stripe, tiling the bins,
// every section at watermark Seq — the checkpoint is one exact cut —
// and restore consuming it back to the exact live state.
func TestStripedCheckpointCarriesSections(t *testing.T) {
	const n, shards = 32, 4
	st, j, fs, dir := newJournaled(t, n, shards, wal.Options{})
	for i := 0; i < 200; i++ {
		admitOne(st, i%n)
	}
	written, path, err := j.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap, gotPath, err := checkpoint.LoadLatestFS(fs, dir)
	if err != nil || gotPath != path {
		t.Fatalf("LoadLatest: %q, %v; want %q", gotPath, err, path)
	}
	if len(snap.Sections) != shards {
		t.Fatalf("checkpoint has %d sections, want one per stripe (%d)", len(snap.Sections), shards)
	}
	prev := 0
	for i, sec := range snap.Sections {
		if sec.Lo != prev || sec.Hi <= sec.Lo {
			t.Fatalf("section %d [%d,%d) does not tile (prev end %d)", i, sec.Lo, sec.Hi, prev)
		}
		prev = sec.Hi
		if sec.Watermark != snap.Seq {
			t.Fatalf("section %d at watermark %d, Seq %d: not one cut", i, sec.Watermark, snap.Seq)
		}
	}
	if prev != n {
		t.Fatalf("sections cover %d of %d bins", prev, n)
	}
	if written.Seq != snap.Seq || snap.Seq != j.LastSeq() {
		t.Fatalf("Seq %d (Checkpoint returned %d), last seq %d", snap.Seq, written.Seq, j.LastSeq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := NewStoreShards(n, shards)
	if _, err := RestoreFSOpts(fresh, fs, dir, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, "sectioned restore", fresh, st)
}

// TestSectionlessCheckpointRestoresUnfiltered: a snapshot without
// sections (what a replica follower checkpoints) is persisted as one
// v2 section at watermark Seq, so restore takes the afterSeq filter
// only — no per-record watermark lookup — and lands on checkpoint +
// suffix exactly, at one apply lane and at several.
func TestSectionlessCheckpointRestoresUnfiltered(t *testing.T) {
	const n, shards = 8, 4
	fs := simfs.New()
	dir := "/wal"
	snap := checkpoint.Snapshot{Seq: 5, Allocs: 9, Frees: 3, Loads: []int32{2, 0, 1, 0, 0, 3, 0, 0}}
	if _, err := checkpoint.WriteFS(fs, dir, snap); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(4); seq <= 8; seq++ { // 4 and 5 are already in the checkpoint
		if err := l.Append(wal.Record{Op: wal.OpAlloc, Bin: uint32(seq % n), K: 1, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := checkpoint.LoadLatestFS(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Sections) != 1 || newReplayApplier(NewStoreShards(n, shards), &loaded).snap != nil {
		t.Fatalf("sections %+v: restore would filter per record against a uniform watermark", loaded.Sections)
	}
	for _, workers := range []int{1, 2, shards} {
		st := NewStoreShards(n, shards)
		res, err := RestoreFSOpts(st, fs.Clone(), dir, RestoreOptions{Workers: workers})
		if err != nil || res.CheckpointSeq != 5 || res.Replayed != 3 || res.LastSeq != 8 {
			t.Fatalf("workers=%d: restore %+v, %v", workers, res, err)
		}
		want := []int{3, 0, 1, 0, 0, 3, 1, 1} // checkpoint + allocs into bins 6, 7, 0
		got := st.LoadsCopy()
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("workers=%d: bin %d = %d, want %d", workers, b, got[b], want[b])
			}
		}
		if st.Allocs() != 12 || st.Frees() != 3 {
			t.Fatalf("workers=%d: clocks %d/%d, want 12/3", workers, st.Allocs(), st.Frees())
		}
	}
}

// TestStripedCheckpointUnderConcurrentTraffic checkpoints repeatedly
// while mutator goroutines hammer the journaled store. Every checkpoint
// taken during the storm must be one exact cut — every section at
// watermark Seq — and the last must restore (with the WAL suffix on
// top) to the final state, with one apply lane and with one per stripe.
func TestStripedCheckpointUnderConcurrentTraffic(t *testing.T) {
	const n, shards = 128, 8
	st, j, fs, dir := newJournaled(t, n, shards, wal.Options{SegmentBytes: 1 << 16})
	st.FillBalanced(n)

	var mutators sync.WaitGroup
	for g := 0; g < 4; g++ {
		mutators.Add(1)
		go func(g int) {
			defer mutators.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 4000; i++ {
				if r.Float64() < 0.6 {
					admitOne(st, int(r.Uint64n(n)))
				} else {
					st.FreeBin(int(r.Uint64n(n)))
				}
			}
		}(g)
	}
	stopCh := make(chan struct{})
	ckptDone := make(chan int)
	go func() {
		taken := 0
		for {
			select {
			case <-stopCh:
				ckptDone <- taken
				return
			default:
			}
			snap, _, err := j.Checkpoint()
			if err != nil {
				t.Errorf("checkpoint under traffic: %v", err)
				ckptDone <- taken
				return
			}
			for _, sec := range snap.Sections {
				if sec.Watermark != snap.Seq {
					t.Errorf("checkpoint at seq %d has section [%d,%d) at watermark %d", snap.Seq, sec.Lo, sec.Hi, sec.Watermark)
				}
			}
			taken++
		}
	}()
	mutators.Wait()
	close(stopCh)
	if taken := <-ckptDone; taken == 0 && !t.Failed() {
		t.Fatal("no checkpoint completed during the traffic storm")
	}

	want := st.LoadsCopy()
	wantAllocs, wantFrees := st.Allocs(), st.Frees()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Also into stores striped differently from the one checkpointed.
	for _, geo := range [][2]int{{1, shards}, {shards, shards}, {2, 2}, {4, 4}, {4, 16}, {1, 1}} {
		workers := geo[0]
		fresh := NewStoreShards(n, geo[1])
		res, err := RestoreFSOpts(fresh, fs.Clone(), dir, RestoreOptions{Workers: workers})
		if err != nil || !res.Restored {
			t.Fatalf("workers=%d stripes=%d: restore %+v, %v", workers, geo[1], res, err)
		}
		got := fresh.LoadsCopy()
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("workers=%d stripes=%d: bin %d restored %d, want %d", workers, geo[1], b, got[b], want[b])
			}
		}
		if fresh.Allocs() != wantAllocs || fresh.Frees() != wantFrees {
			t.Fatalf("workers=%d: clocks %d/%d want %d/%d", workers, fresh.Allocs(), fresh.Frees(), wantAllocs, wantFrees)
		}
	}
}

// TestOldStripedCheckpointRestoresExactly keeps the reader of
// checkpoints with distinct section watermarks under test: older
// releases copied the store one stripe at a time under traffic, and
// such files (the frozen benchmark's fixture among them) must still
// restore exactly. The test builds one by hand over a live WAL — one
// stripe copied every 64 records, its section at the seq drawn last,
// Seq the first copy's — and restores it into stores striped inside,
// along and across its sections (a stripe spanning sections filters
// bin by bin), at several worker counts.
func TestOldStripedCheckpointRestoresExactly(t *testing.T) {
	const n, stripes, stagger = 128, 8, 64
	st, j, fs, dir := newJournaled(t, n, stripes, wal.Options{})
	st.FillBalanced(n)
	const size = n / stripes
	var stripeAllocs, stripeFrees [stripes]int64
	var snap checkpoint.Snapshot
	snap.Loads = make([]int32, n)
	r := rng.New(7)
	const ops, ckptAt = 3000, 1000
	for i := 1; i <= ops; i++ {
		b := int(r.Uint64n(n))
		switch x := r.Float64(); {
		case x < 0.55:
			admitOne(st, b)
			stripeAllocs[b/size]++
		case x < 0.95:
			if _, err := st.FreeBin(b); err == nil {
				stripeFrees[b/size]++
			}
		default:
			st.Crash(b, 1+int(r.Uint64n(3)))
		}
		if s := (i - ckptAt) / stagger; i >= ckptAt && (i-ckptAt)%stagger == 0 && s < stripes {
			loads := st.LoadsCopy()
			for b := s * size; b < (s+1)*size; b++ {
				snap.Loads[b] = int32(loads[b])
			}
			snap.Sections = append(snap.Sections, checkpoint.Section{Lo: s * size, Hi: (s + 1) * size, Watermark: j.LastSeq()})
			snap.Allocs += stripeAllocs[s]
			snap.Frees += stripeFrees[s]
		}
	}
	snap.Seq = snap.Sections[0].Watermark
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.WriteFS(fs, dir, snap); err != nil {
		t.Fatal(err)
	}
	if loaded, _, err := checkpoint.LoadLatestFS(fs, dir); err != nil || loaded.MaxWatermark() <= loaded.Seq {
		t.Fatalf("hand-built checkpoint: max watermark %d, Seq %d, %v", loaded.MaxWatermark(), loaded.Seq, err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, geo := range []int{1, 4, 8, 16} {
			fresh := NewStoreShards(n, geo)
			res, err := RestoreFSOpts(fresh, fs.Clone(), dir, RestoreOptions{Workers: workers})
			if err != nil || res.CheckpointSeq != snap.Seq {
				t.Fatalf("workers=%d stripes=%d: restore %+v, %v", workers, geo, res, err)
			}
			assertStoresEqual(t, fmt.Sprintf("workers=%d stripes=%d", workers, geo), fresh, st)
		}
	}
}

// applyOne replays one WAL record into st through the store's public
// per-ball verbs — the one-record apply the batch applier replaced,
// kept as the independent reference TestApplyRecordsMatchesApply holds
// it against. skippedFree reports a free that hit an already-empty bin.
func applyOne(st *Store, rec wal.Record) (skippedFree bool, err error) {
	bin := int(rec.Bin)
	if bin < 0 || bin >= st.N() {
		return false, fmt.Errorf("serve: replay record seq %d targets bin %d of %d", rec.Seq, bin, st.N())
	}
	switch rec.Op {
	case wal.OpAlloc:
		admitOne(st, bin)
	case wal.OpFree:
		if _, err := st.FreeBin(bin); err != nil {
			return true, nil
		}
	case wal.OpCrash:
		if rec.K < 0 {
			return false, fmt.Errorf("serve: replay crash record seq %d has k=%d", rec.Seq, rec.K)
		}
		st.Crash(bin, int(rec.K))
	default:
		return false, fmt.Errorf("serve: replay record seq %d has unknown op %v", rec.Seq, rec.Op)
	}
	return false, nil
}

// TestApplyRecordsMatchesApply pins the follower's batched warm-apply
// against the one-record reference, including the forged-log
// skipped-free path.
func TestApplyRecordsMatchesApply(t *testing.T) {
	const n = 48
	r := rng.New(7)
	var recs []wal.Record
	for i := 0; i < 500; i++ {
		rec := wal.Record{Bin: uint32(r.Uint64n(n)), K: 1, Seq: uint64(i + 1)}
		switch {
		case r.Float64() < 0.5:
			rec.Op = wal.OpAlloc
		case r.Float64() < 0.7:
			rec.Op = wal.OpFree // often hits empty bins: the skip path
		default:
			rec.Op = wal.OpCrash
			rec.K = int32(r.Uint64n(5))
		}
		recs = append(recs, rec)
	}

	one := NewStoreShards(n, 4)
	var oneSkipped int64
	for _, rec := range recs {
		skipped, err := applyOne(one, rec)
		if err != nil {
			t.Fatal(err)
		}
		if skipped {
			oneSkipped++
		}
	}

	batched := NewStoreShards(n, 4)
	var gotSkipped int64
	for lo := 0; lo < len(recs); lo += 64 {
		hi := min(lo+64, len(recs))
		skipped, err := ApplyRecords(batched, recs[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		gotSkipped += skipped
	}

	if gotSkipped != oneSkipped {
		t.Fatalf("skipped frees: batched %d, per-record %d", gotSkipped, oneSkipped)
	}
	if oneSkipped == 0 {
		t.Fatal("schedule never hit the skipped-free path; weaken the free bias")
	}
	assertStoresEqual(t, "batched vs per-record apply", batched, one)
}

// TestApplyRecordsErrors: the batch applier reports malformed records
// with the same errors as the one-record path, and an error aborts the
// batch.
func TestApplyRecordsErrors(t *testing.T) {
	cases := []struct {
		name string
		rec  wal.Record
		want string
	}{
		{"bin out of range", wal.Record{Op: wal.OpAlloc, Bin: 99, K: 1, Seq: 5}, "targets bin 99 of 8"},
		{"negative crash", wal.Record{Op: wal.OpCrash, Bin: 1, K: -2, Seq: 5}, "has k=-2"},
		{"unknown op", wal.Record{Op: 77, Bin: 1, K: 1, Seq: 5}, "unknown op"},
	}
	for _, tc := range cases {
		st := NewStoreShards(8, 2)
		_, batchErr := ApplyRecords(st, []wal.Record{
			{Op: wal.OpAlloc, Bin: 0, K: 1, Seq: 4},
			tc.rec,
		})
		if batchErr == nil || !strings.Contains(batchErr.Error(), tc.want) {
			t.Fatalf("%s: ApplyRecords err = %v, want %q", tc.name, batchErr, tc.want)
		}
		_, oneErr := applyOne(NewStoreShards(8, 2), tc.rec)
		if oneErr == nil || !strings.Contains(oneErr.Error(), tc.want) {
			t.Fatalf("%s: applyOne err = %v, want %q", tc.name, oneErr, tc.want)
		}
	}
}

// stripFooters returns a copy of fs whose WAL segments have lost their
// footers: the directory a writer from before footers would have left.
func stripFooters(t *testing.T, fs *simfs.FS, dir string) *simfs.FS {
	t.Helper()
	out := fs.Clone()
	segs, err := out.Glob(dir + "/wal-*.seg")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		data, err := out.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if n := wal.FooterLen(data); n > 0 {
			if err := out.Truncate(p, int64(len(data)-n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestFootersRestoreLikeRecords is the equivalence property of the
// segment footer: every directory restores to the same loads, clocks,
// skipped frees, LastSeq and Torn whether its sealed segments are
// skipped and applied from their footers or, footers cut off, decoded
// record by record — at every worker count and stripe geometry. The
// directories: journaled traffic with crashes and a checkpoint over
// small segments (sealed at Close, and the same log killed with its
// newest segment open); a hand-written log whose frees hit empty bins
// at random (the reflection case); an old striped checkpoint whose
// section watermarks fall inside a segment; and a record corrupted
// inside a segment that would otherwise be summarized.
func TestFootersRestoreLikeRecords(t *testing.T) {
	const n, dir = 16, "/wal"
	seg := wal.Options{SegmentBytes: 16 + 96*wal.RecordSize}
	dirs := map[string]*simfs.FS{}

	for seed := uint64(1); seed <= 3; seed++ {
		st, j, fs, _ := newJournaled(t, n, 4, seg)
		st.FillBalanced(n)
		r := rng.New(seed)
		for i := 1; i <= 1500; i++ {
			b := int(r.Uint64n(n))
			switch x := r.Float64(); {
			case x < 0.5:
				admitOne(st, b)
			case x < 0.97:
				st.FreeBin(b)
			default:
				st.Crash(b, 1+int(r.Uint64n(40)))
			}
			if i == 500 {
				if _, _, err := j.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		j.Drain()
		dirs[fmt.Sprintf("traffic %d killed", seed)] = fs.Clone()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		dirs[fmt.Sprintf("traffic %d", seed)] = fs
	}

	fs := simfs.New()
	l, err := wal.Open(wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncNever, SegmentBytes: seg.SegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for seq := uint64(1); seq <= 900; seq++ {
		rec := wal.Record{Op: wal.OpFree, Bin: uint32(r.Uint64n(n)), K: 1, Seq: seq}
		switch x := r.Float64(); {
		case x < 0.45:
			rec.Op = wal.OpAlloc
		case x > 0.97:
			rec.Op, rec.K = wal.OpCrash, int32(r.Uint64n(5))
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	dirs["reflection"] = fs
	corrupt := fs.Clone()
	segs, _ := corrupt.Glob(dir + "/wal-*.seg")
	if err := corrupt.Corrupt(segs[3], 16+40*wal.RecordSize+2, 0x10); err != nil {
		t.Fatal(err)
	}
	dirs["corrupt"] = corrupt

	{
		const stripes, size, stagger = 8, n / 8, 8
		st, j, fs, _ := newJournaled(t, n, stripes, seg)
		st.FillBalanced(n)
		var stripeAllocs, stripeFrees [stripes]int64
		snap := checkpoint.Snapshot{Loads: make([]int32, n)}
		r := rng.New(5)
		for i := 1; i <= 1500; i++ {
			b := int(r.Uint64n(n))
			if r.Float64() < 0.5 {
				admitOne(st, b)
				stripeAllocs[b/size]++
			} else if _, err := st.FreeBin(b); err == nil {
				stripeFrees[b/size]++
			}
			if s := (i - 500) / stagger; i >= 500 && (i-500)%stagger == 0 && s < stripes {
				j.Drain()
				loads := st.LoadsCopy()
				for b := s * size; b < (s+1)*size; b++ {
					snap.Loads[b] = int32(loads[b])
				}
				snap.Sections = append(snap.Sections, checkpoint.Section{Lo: s * size, Hi: (s + 1) * size, Watermark: j.LastSeq()})
				snap.Allocs += stripeAllocs[s]
				snap.Frees += stripeFrees[s]
			}
		}
		snap.Seq = snap.Sections[0].Watermark
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.WriteFS(fs, dir, snap); err != nil {
			t.Fatal(err)
		}
		dirs["old striped checkpoint"] = fs
	}

	for name, fs := range dirs {
		bare := stripFooters(t, fs, dir)
		summarized, skipped := 0, 0
		for _, workers := range []int{1, 2, 8} {
			for _, stripes := range []int{1, 4, 8} {
				what := fmt.Sprintf("%s, workers=%d stripes=%d", name, workers, stripes)
				a, b := NewStoreShards(n, stripes), NewStoreShards(n, stripes)
				ra, errA := RestoreFSOpts(a, fs.Clone(), dir, RestoreOptions{Workers: workers})
				rb, errB := RestoreFSOpts(b, bare.Clone(), dir, RestoreOptions{Workers: workers})
				if errA != nil || errB != nil {
					t.Fatalf("%s: %v / %v", what, errA, errB)
				}
				if ra.SkippedFrees != rb.SkippedFrees || ra.LastSeq != rb.LastSeq || ra.Torn != rb.Torn || ra.Replayed != rb.Replayed {
					t.Fatalf("%s: with footers %+v, without %+v", what, ra, rb)
				}
				assertStoresEqual(t, what, a, b)
				summarized += ra.SegmentsSummarized
				skipped += ra.SegmentsSkipped
				if name == "reflection" && ra.SkippedFrees == 0 {
					t.Fatalf("%s: no free hit an empty bin", what)
				}
				if rb.SegmentsSummarized+rb.SegmentsSkipped != 0 {
					t.Fatalf("%s: a footer survived stripping: %+v", what, rb)
				}
			}
		}
		if summarized == 0 || name == "old striped checkpoint" && skipped == 0 {
			t.Errorf("%s: %d segments applied from their footers, %d skipped", name, summarized, skipped)
		}
	}
}
