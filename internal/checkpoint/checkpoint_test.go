package checkpoint

import (
	"errors"
	"path/filepath"
	"testing"

	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
)

// The pure-logic tests in this file run on the simulated filesystem —
// no disk, no real fsyncs, deterministic; TestRealDiskRoundTrip keeps
// the default vfs.OS path covered. The simulator also buys assertions
// a real disk cannot make, like crash-atomicity across a power cut
// (TestPowerCutMidCheckpointIsAtomic).
const dir = "/ckpt"

func snap(seq uint64, loads ...int32) Snapshot {
	return Snapshot{Seq: seq, Allocs: int64(seq) * 3, Frees: int64(seq) * 2, Loads: loads}
}

func equal(a, b Snapshot) bool {
	if a.Seq != b.Seq || a.Allocs != b.Allocs || a.Frees != b.Frees || len(a.Loads) != len(b.Loads) {
		return false
	}
	for i := range a.Loads {
		if a.Loads[i] != b.Loads[i] {
			return false
		}
	}
	return true
}

func TestWriteLoadRoundTrip(t *testing.T) {
	fs := simfs.New()
	want := snap(42, 3, 0, 7, 1, 0, 0, 5)
	path, err := WriteFS(fs, dir, want)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPath, err := LoadLatestFS(fs, dir)
	if err != nil || gotPath != path || !equal(got, want) {
		t.Fatalf("LoadLatest = %+v, %q, %v; want %+v at %q", got, gotPath, err, want, path)
	}
}

// TestRealDiskRoundTrip keeps the production vfs.OS filesystem covered.
func TestRealDiskRoundTrip(t *testing.T) {
	d := t.TempDir()
	want := snap(9, 1, 2, 3)
	if _, err := WriteFS(vfs.OS, d, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestFS(vfs.OS, d)
	if err != nil || !equal(got, want) {
		t.Fatalf("real-disk roundtrip: %+v, %v", got, err)
	}
	if removed, err := PruneFS(vfs.OS, d, 1); err != nil || removed != 0 {
		t.Fatalf("Prune = %d, %v", removed, err)
	}
}

func TestLoadLatestPicksNewestSeq(t *testing.T) {
	fs := simfs.New()
	for _, seq := range []uint64{5, 20, 11} {
		if _, err := WriteFS(fs, dir, snap(seq, int32(seq))); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := LoadLatestFS(fs, dir)
	if err != nil || got.Seq != 20 {
		t.Fatalf("LoadLatest seq = %d, %v; want 20", got.Seq, err)
	}
}

func TestLoadLatestSkipsCorruptAndFallsBack(t *testing.T) {
	fs := simfs.New()
	WriteFS(fs, dir, snap(10, 1, 2))
	newest, _ := WriteFS(fs, dir, snap(30, 4, 5))

	// Corrupt the newest file: flip a load byte.
	size := fs.Size(newest)
	if err := fs.Corrupt(newest, size-6, 0xff); err != nil {
		t.Fatal(err)
	}

	got, path, err := LoadLatestFS(fs, dir)
	if err != nil || got.Seq != 10 {
		t.Fatalf("fallback: %+v at %q, %v; want seq 10", got, path, err)
	}

	// Truncated newest (kill mid-write after a bad rename-less copy).
	if err := fs.Truncate(newest, 7); err != nil {
		t.Fatal(err)
	}
	if got, _, err := LoadLatestFS(fs, dir); err != nil || got.Seq != 10 {
		t.Fatalf("truncated fallback: %+v, %v", got, err)
	}
}

func TestLoadLatestNoCheckpoint(t *testing.T) {
	fs := simfs.New()
	fs.MkdirAll(dir)
	if _, _, err := LoadLatestFS(fs, dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
	if _, _, err := LoadLatestFS(fs, "/missing"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestKillMidCheckpointLeavesOnlyTemp(t *testing.T) {
	fs := simfs.New()
	WriteFS(fs, dir, snap(7, 9))
	// Simulate a writer that died before rename: a stray tmp file.
	stray := filepath.Join(dir, fileName(99)+".tmp-12345")
	fs.WriteFile(stray, []byte("half a checkpoint"))

	got, _, err := LoadLatestFS(fs, dir)
	if err != nil || got.Seq != 7 {
		t.Fatalf("stray tmp confused LoadLatest: %+v, %v", got, err)
	}
	// The next Write sweeps it.
	if _, err := WriteFS(fs, dir, snap(8, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(stray); !vfs.IsNotExist(err) {
		t.Fatalf("stray tmp not swept: %v", err)
	}
}

// TestPowerCutMidCheckpointIsAtomic drives the full temp-fsync-rename
// sequence against a crash at every single FS operation and power-cuts
// the result: whatever survives, LoadLatest must return either the old
// snapshot or the complete new one — never an error, never a hybrid.
func TestPowerCutMidCheckpointIsAtomic(t *testing.T) {
	old, next := snap(10, 1, 2), snap(20, 3, 4)
	sawOld, sawNew := false, false
	for cut := 1; ; cut++ {
		fs := simfs.New()
		if _, err := WriteFS(fs, dir, old); err != nil {
			t.Fatal(err)
		}
		before := fs.OpCount()
		fs.CrashAfterOps(cut)
		_, werr := WriteFS(fs, dir, next)
		crashed := fs.Crashed()
		fs.PowerCut(nil)

		got, _, err := LoadLatestFS(fs, dir)
		if err != nil {
			t.Fatalf("cut at op %d: restore failed: %v", cut, err)
		}
		switch {
		case equal(got, old):
			sawOld = true
		case equal(got, next):
			sawNew = true
			if werr != nil && crashed {
				// Fine: the crash hit after the rename was durable
				// (e.g. during the advisory dir sync).
				break
			}
		default:
			t.Fatalf("cut at op %d: hybrid snapshot %+v", cut, got)
		}
		if !crashed {
			// The crash point landed beyond the whole write: every op
			// has been covered.
			if werr != nil {
				t.Fatalf("uncrashed write failed: %v", werr)
			}
			if fs.OpCount() == before {
				t.Fatal("write performed no FS operations")
			}
			break
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("crash sweep unconvincing: sawOld=%v sawNew=%v", sawOld, sawNew)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	fs := simfs.New()
	for seq := uint64(1); seq <= 5; seq++ {
		WriteFS(fs, dir, snap(seq, int32(seq)))
	}
	removed, err := PruneFS(fs, dir, 2)
	if err != nil || removed != 3 {
		t.Fatalf("Prune = %d, %v; want 3", removed, err)
	}
	metas, _ := ListFS(fs, dir)
	if len(metas) != 2 || metas[0].Seq != 4 || metas[1].Seq != 5 {
		t.Fatalf("after prune: %+v", metas)
	}
}

func TestZeroLoadVector(t *testing.T) {
	fs := simfs.New()
	want := Snapshot{Seq: 1, Loads: []int32{}}
	if _, err := WriteFS(fs, dir, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadLatestFS(fs, dir)
	if err != nil || got.Seq != 1 || len(got.Loads) != 0 {
		t.Fatalf("empty loads roundtrip: %+v, %v", got, err)
	}
}

func TestSeqOfName(t *testing.T) {
	if seq, ok := seqOfName(fileName(255)); !ok || seq != 255 {
		t.Fatalf("seqOfName(fileName(255)) = %d, %v", seq, ok)
	}
	for _, bad := range []string{"ckpt-zz.ck", "other.ck", "ckpt-1.txt"} {
		if _, ok := seqOfName(bad); ok {
			t.Fatalf("seqOfName accepted %q", bad)
		}
	}
}
