package wal_test

import (
	"fmt"
	"testing"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// newJournaled is a store of n bins in the given stripes, journaled to
// a fresh simfs WAL at /wal with seg's segment size.
func newJournaled(t *testing.T, n, stripes int, seg wal.Options) (*serve.Store, *serve.Journal, *simfs.FS) {
	t.Helper()
	fs := simfs.New()
	seg.Dir, seg.FS, seg.Fsync = "/wal", fs, wal.FsyncNever
	l, err := wal.Open(seg)
	if err != nil {
		t.Fatal(err)
	}
	st := serve.NewStoreShards(n, stripes)
	return st, serve.NewJournal(st, l, 0, serve.JournalOptions{Buffer: 64, MaxBatch: 4}), fs
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

// assertStoresEqual compares the loads and counters of two stores.
func assertStoresEqual(t *testing.T, what string, a, b *serve.Store) {
	t.Helper()
	if a.Total() != b.Total() || a.NonEmpty() != b.NonEmpty() || a.Allocs() != b.Allocs() || a.Frees() != b.Frees() {
		t.Fatalf("%s: counters total=%d/%d nonEmpty=%d/%d allocs=%d/%d frees=%d/%d", what,
			a.Total(), b.Total(), a.NonEmpty(), b.NonEmpty(), a.Allocs(), b.Allocs(), a.Frees(), b.Frees())
	}
	la, lb := a.LoadsCopy(), b.LoadsCopy()
	for bin := range la {
		if la[bin] != lb[bin] {
			t.Fatalf("%s: bin %d loads %d vs %d", what, bin, la[bin], lb[bin])
		}
	}
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
// inside a segment that would otherwise be summarized. Each restore
// runs at the replay's own chunk size and at chunks of 3 and 8 records:
// segments break across chunks at every offset, and at 3 most footers'
// entries do not fit one chunk, so those segments are decoded.
func TestFootersRestoreLikeRecords(t *testing.T) {
	const n, dir = 16, "/wal"
	seg := wal.Options{SegmentBytes: 16 + 96*wal.RecordSize}
	dirs := map[string]*simfs.FS{}

	for seed := uint64(1); seed <= 3; seed++ {
		st, j, fs := newJournaled(t, n, 4, seg)
		st.FillBalanced(n)
		r := rng.New(seed)
		for i := 1; i <= 1500; i++ {
			b := int(r.Uint64n(n))
			switch x := r.Float64(); {
			case x < 0.5:
				st.AdmitBatch([]int{b}, nil)
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
		st, j, fs := newJournaled(t, n, stripes, seg)
		st.FillBalanced(n)
		var stripeAllocs, stripeFrees [stripes]int64
		snap := checkpoint.Snapshot{Loads: make([]int32, n)}
		r := rng.New(5)
		for i := 1; i <= 1500; i++ {
			b := int(r.Uint64n(n))
			if r.Float64() < 0.5 {
				st.AdmitBatch([]int{b}, nil)
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
		for _, chunk := range []int{0, 3, 8} {
			summarized, skipped := 0, 0
			func() {
				if chunk > 0 {
					defer wal.SetChunkRecords(chunk)()
				}
				for _, workers := range []int{1, 2, 8} {
					for _, stripes := range []int{1, 4, 8} {
						what := fmt.Sprintf("%s, chunks of %d, workers=%d stripes=%d", name, chunk, workers, stripes)
						a, b := serve.NewStoreShards(n, stripes), serve.NewStoreShards(n, stripes)
						ra, errA := serve.RestoreFSOpts(a, fs.Clone(), dir, serve.RestoreOptions{Workers: workers})
						rb, errB := serve.RestoreFSOpts(b, bare.Clone(), dir, serve.RestoreOptions{Workers: workers})
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
			}()
			if summarized == 0 && chunk != 3 || name == "old striped checkpoint" && skipped == 0 {
				t.Errorf("%s, chunks of %d: %d segments applied from their footers, %d skipped", name, chunk, summarized, skipped)
			}
		}
	}
}
