package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/rng"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// A fixture is a generated durability directory: the WAL of a shard
// that served `records` mutations of closed-loop traffic (a uniform
// departure, then a 2-choice admission — Scenario A under ABKU[2]), was
// checkpointed stripe by stripe half way through, took a crash of
// crashK balls into one bin as its very last record, and died. It is
// built from the seed alone, by simulating the store here, so the
// state a correct restore must produce is known exactly.

type fixture struct {
	dir     string
	n       int
	records int

	loads        []int32 // the state a restore must rebuild
	balls        int64   // Σ loads
	allocs       int64   // admission clock of the restored state
	frees        int64
	suffixAllocs int64  // admissions the restore replays on top of the checkpoint
	crashBin     uint32 // where the disruption sits
}

const (
	fixtureStripes      = 8       // sections of the fixture's checkpoint, the stripe count dynallocd picks on <= 4 cores
	fixtureSegmentBytes = 4 << 20 // the WAL's default rotation size
	fixtureBatch        = 512     // records per AppendBatch, the journal's group-commit cap
	sectionStagger      = 64      // records between successive stripe copies of the checkpoint
)

// buildFixture simulates the shard and writes its directory.
func buildFixture(dir string, n, records, crashK int, seed uint64) (*fixture, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: fixtureSegmentBytes, Fsync: wal.FsyncNever})
	if err != nil {
		return nil, err
	}
	defer log.Close() // error paths; the success path checks Close below

	r := rng.NewStream(seed, 4)
	fx := &fixture{dir: dir, n: n, records: records, loads: make([]int32, n)}
	// One entry per ball, holding its bin: a uniform index is a uniform
	// ball, and removal is a swap with the last entry.
	ballBin := make([]uint32, n, n+crashK)
	for b := range fx.loads {
		fx.loads[b] = 1
		ballBin[b] = uint32(b)
	}

	stripe := (n + fixtureStripes - 1) / fixtureStripes
	stripeAllocs := make([]int64, fixtureStripes)
	stripeFrees := make([]int64, fixtureStripes)
	copied := make([]bool, fixtureStripes) // stripe already in the checkpoint
	snap := checkpoint.Snapshot{Loads: make([]int32, n)}
	ckptAt := uint64(records / 2)

	batch := make([]wal.Record, 0, fixtureBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := log.AppendBatch(batch)
		batch = batch[:0]
		return err
	}
	for seq := uint64(1); seq <= uint64(records); seq++ {
		var rec wal.Record
		switch {
		case seq == uint64(records) && crashK > 0:
			fx.crashBin = uint32(r.Intn(n))
			rec = wal.Record{Op: wal.OpCrash, Bin: fx.crashBin, K: int32(crashK), Seq: seq}
			fx.loads[fx.crashBin] += int32(crashK)
		case seq%2 == 1:
			i := r.Intn(len(ballBin))
			bin := ballBin[i]
			ballBin[i] = ballBin[len(ballBin)-1]
			ballBin = ballBin[:len(ballBin)-1]
			fx.loads[bin]--
			stripeFrees[int(bin)/stripe]++
			fx.frees++
			rec = wal.Record{Op: wal.OpFree, Bin: bin, K: 1, Seq: seq}
		default:
			a, b := uint32(r.Intn(n)), uint32(r.Intn(n))
			if fx.loads[b] < fx.loads[a] {
				a = b
			}
			ballBin = append(ballBin, a)
			fx.loads[a]++
			stripeAllocs[int(a)/stripe]++
			fx.allocs++
			if copied[int(a)/stripe] {
				// Admitted after its stripe was copied: restore replays it.
				fx.suffixAllocs++
			}
			rec = wal.Record{Op: wal.OpAlloc, Bin: a, K: 1, Seq: seq}
		}
		batch = append(batch, rec)
		if len(batch) == fixtureBatch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		// The checkpoint copies one stripe every sectionStagger records,
		// as a striped checkpoint under traffic does: each section is
		// exact as of its own watermark.
		if seq >= ckptAt && (seq-ckptAt)%sectionStagger == 0 {
			if s := int((seq - ckptAt) / sectionStagger); s < fixtureStripes {
				lo, hi := s*stripe, (s+1)*stripe
				if hi > n {
					hi = n
				}
				if lo < hi {
					copy(snap.Loads[lo:hi], fx.loads[lo:hi])
					snap.Sections = append(snap.Sections, checkpoint.Section{Lo: lo, Hi: hi, Watermark: seq})
					snap.Allocs += stripeAllocs[s]
					snap.Frees += stripeFrees[s]
					copied[s] = true
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	snap.Seq = ckptAt
	if _, err := checkpoint.WriteFS(vfs.OS, dir, snap); err != nil {
		return nil, err
	}
	for _, l := range fx.loads {
		fx.balls += int64(l)
	}
	return fx, nil
}

// copyTo replaces dst with a copy of the fixture's files.
func (fx *fixture) copyTo(dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(fx.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(fx.dir, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}
