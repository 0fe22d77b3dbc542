package serve

import (
	"context"
	"path/filepath"
	"testing"

	"dynalloc/internal/process"
	"dynalloc/internal/wal"
)

// TestRestartDrillRecoversWithinBudget is the in-process restart drill:
// a journaled store takes a crash, the process "dies" mid-write (the
// journal is abandoned unclosed and the WAL tail torn), a fresh process
// restores the disrupted state from disk, and the recovery detector
// must re-fire within 8x the Theorem 1 m*ln(m/eps) budget once traffic
// resumes — durability must hand the drill the same disruption the
// original process saw.
func TestRestartDrillRecoversWithinBudget(t *testing.T) {
	const (
		n      = 256
		shards = 8
		crashK = 128
	)
	st, j, fs, dir := newJournaled(t, n, shards, wal.Options{SegmentBytes: 1 << 16})
	st.FillBalanced(n)
	if _, _, err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	pol := NewABKUPolicy(2)
	eng := NewEngine(Config{
		Store: st, Policy: pol, Scenario: process.ScenarioA,
		Seed: 41, MaxSteps: 4 * n,
	})
	eng.Run(context.Background())

	st.Crash(7, crashK)
	// A little more traffic after the fault, then the process "dies":
	// drain the queue to disk, tear the tail mid-record, and walk away
	// without closing the journal (no final checkpoint, no clean seal).
	eng2 := NewEngine(Config{
		Store: st, Policy: pol, Scenario: process.ScenarioA,
		Seed: 43, MaxSteps: 2 * n,
	})
	eng2.Run(context.Background())
	waitForSeq(t, j, j.LastSeq())
	segs, err := fs.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	last := segs[len(segs)-1]
	if size := fs.Size(last); size > 16+wal.RecordSize {
		if err := fs.Truncate(last, size-wal.RecordSize/2); err != nil {
			t.Fatal(err)
		}
	}

	// "Reboot": restore into a fresh store and verify the disruption
	// survived — the crashed bin must still be far above typical.
	st2 := NewStoreShards(n, shards)
	res, err := RestoreFSOpts(st2, fs, dir, RestoreOptions{})
	if err != nil || !res.Restored {
		t.Fatalf("restore: %+v, %v", res, err)
	}
	m2 := int(st2.Total())
	target, err := NewTarget(pol, process.ScenarioA, n, m2, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(st2, target)
	if s := det.Check(); s.Recovered {
		t.Fatalf("restored state lost the disruption: %+v", s)
	}

	budget := int64(8 * target.BudgetSteps)
	drill := NewEngine(Config{
		Store: st2, Policy: pol, Scenario: process.ScenarioA,
		Seed: 47, MaxSteps: budget,
		Detector: det, CheckEvery: int64(n), StopOnRecovery: true,
	})
	out := drill.Run(context.Background())
	if !out.Recovered {
		t.Fatalf("detector did not re-fire within 8x budget (%d steps, budget %.0f)",
			out.Steps, target.BudgetSteps)
	}
	if out.Episode.Steps > budget {
		t.Fatalf("recovery took %d steps, over the 8x Theorem 1 budget %d",
			out.Episode.Steps, budget)
	}
	t.Logf("restart drill: recovered in %d steps (%.2fx the m*ln(m/eps) budget %.0f)",
		out.Episode.Steps, float64(out.Episode.Steps)/target.BudgetSteps, target.BudgetSteps)
}
