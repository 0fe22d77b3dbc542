package explore_test

import (
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"dynalloc/internal/simfs/explore"
	"dynalloc/internal/wal"
)

// Repro flags: a failing schedule prints a one-line
// `go test ... -run TestReplaySchedule -explore.seed=S -explore.schedule=K`
// command; these flags feed that entry point.
var (
	exploreSeed       = flag.Uint64("explore.seed", 1, "root seed for TestReplaySchedule")
	exploreSchedule   = flag.Int("explore.schedule", -1, "schedule index for TestReplaySchedule (-1 skips)")
	exploreBurst      = flag.Int("explore.burst", 0, "burst size for TestReplaySchedule (0/1 replays per-record)")
	exploreAdmitBatch = flag.Int("explore.admitbatch", 0, "admission group ceiling for TestReplaySchedule (0/1 replays per-ball)")
	exploreMaxBatch   = flag.Int("explore.maxbatch", 0, "journal batch ceiling for TestReplaySchedule burst/admit-batch mode")
	exploreChaos      = flag.Int("explore.chaos", 0, "chaos faults per round for TestReplaySchedule (0 = none)")
	exploreWorkers    = flag.Int("explore.workers", 0, "restore apply workers for TestReplaySchedule (0 = suite default of 2, 1 = one apply lane)")
	exploreSummarized = flag.Bool("explore.summarized", false, "replay on TestExploreSummarized's configuration")

	// exploreSchedules overrides the sweep width of every TestExplore*
	// sweep; the nightly soak passes -explore.schedules=10000.
	exploreSchedules = flag.Int("explore.schedules", 0, "schedules per sweep (0 = suite default: 500 short, 2000 full)")
)

// sweepSchedules resolves the sweep width: the -explore.schedules flag
// wins, then the full-suite default, then the config's own (short) one.
func sweepSchedules(short int) int {
	if *exploreSchedules > 0 {
		return *exploreSchedules
	}
	if !testing.Short() {
		return 2000
	}
	return short
}

// writeReproArtifact drops the repro lines where CI can pick them up as
// an artifact (EXPLORE_REPRO_FILE, set by the workflow).
func writeReproArtifact(t *testing.T, res explore.Result) {
	path := os.Getenv("EXPLORE_REPRO_FILE")
	if path == "" {
		return
	}
	if err := os.WriteFile(path, []byte(res.Report()), 0o644); err != nil {
		t.Logf("could not write repro artifact %s: %v", path, err)
		return
	}
	t.Logf("repro lines written to %s", path)
}

// TestExplore is the main sweep: 500 schedules in -short (the CI sim
// job), 2000 otherwise. Any violation fails the test with a one-line
// repro per schedule.
func TestExplore(t *testing.T) {
	cfg := explore.Default()
	cfg.Seed = *exploreSeed
	cfg.Schedules = sweepSchedules(cfg.Schedules)

	start := time.Now()
	res := explore.Explore(cfg)
	elapsed := time.Since(start)
	t.Logf("explored %d schedules in %v: %+v", res.Schedules, elapsed, res.Stats)

	// Sanity: the sweep must actually exercise the machinery. Every
	// schedule restores once per round, and the traffic mix plus the
	// 4x-mutations crash span make mid-traffic cuts, torn tails and
	// completed checkpoints all common — a sweep without them would be
	// silently exploring nothing.
	if res.Schedules != cfg.Schedules {
		t.Errorf("ran %d schedules, want %d", res.Schedules, cfg.Schedules)
	}
	if want := cfg.Schedules * cfg.Rounds; res.Stats.Restores != want {
		t.Errorf("restores = %d, want %d", res.Stats.Restores, want)
	}
	if res.Stats.MidOpCuts < cfg.Schedules/4 {
		t.Errorf("only %d/%d rounds cut mid-traffic; crash points are not landing", res.Stats.MidOpCuts, cfg.Schedules*cfg.Rounds)
	}
	if res.Stats.TornCuts < cfg.Schedules/8 {
		t.Errorf("only %d torn cuts; power cuts are not tearing tails", res.Stats.TornCuts)
	}
	if res.Stats.Checkpoints < cfg.Schedules {
		t.Errorf("only %d checkpoints completed; checkpoint path unexercised", res.Stats.Checkpoints)
	}

	if res.Failed() {
		writeReproArtifact(t, res)
		t.Fatalf("durability violations:\n%s", res.Report())
	}
	if testing.Short() && elapsed > 30*time.Second {
		t.Fatalf("short sweep took %v, budget 30s", elapsed)
	}
}

// TestExploreBatched sweeps the group-commit pipeline: bursts of
// mutations drained as multi-record WAL batches (SyncWriter mode), so
// the armed power cut regularly lands inside a batch's single write or
// its one group fsync. The invariant is the same — a torn batch must
// replay as a clean contiguous prefix of the acknowledged history.
func TestExploreBatched(t *testing.T) {
	cfg := explore.DefaultBatched()
	cfg.Seed = *exploreSeed
	cfg.Schedules = sweepSchedules(cfg.Schedules)

	start := time.Now()
	res := explore.Explore(cfg)
	elapsed := time.Since(start)
	t.Logf("explored %d batched schedules in %v: %+v", res.Schedules, elapsed, res.Stats)

	if res.Schedules != cfg.Schedules {
		t.Errorf("ran %d schedules, want %d", res.Schedules, cfg.Schedules)
	}
	if want := cfg.Schedules * cfg.Rounds; res.Stats.Restores != want {
		t.Errorf("restores = %d, want %d", res.Stats.Restores, want)
	}
	// Every segment tail in burst mode is written by AppendBatch, so a
	// torn cut here IS a torn batch: the sweep is vacuous unless cuts
	// land mid-traffic and tear tails at a healthy rate.
	if res.Stats.MidOpCuts < cfg.Schedules/4 {
		t.Errorf("only %d/%d rounds cut mid-traffic; crash points are not landing", res.Stats.MidOpCuts, cfg.Schedules*cfg.Rounds)
	}
	if res.Stats.TornCuts < cfg.Schedules/8 {
		t.Errorf("only %d torn cuts; power cuts are not tearing batches", res.Stats.TornCuts)
	}
	if res.Stats.Checkpoints < cfg.Schedules {
		t.Errorf("only %d checkpoints completed; checkpoint path unexercised", res.Stats.Checkpoints)
	}

	if res.Failed() {
		writeReproArtifact(t, res)
		t.Fatalf("durability violations:\n%s", res.Report())
	}
	if testing.Short() && elapsed > 30*time.Second {
		t.Fatalf("short batched sweep took %v, budget 30s", elapsed)
	}
}

// TestExploreAdmitBatched sweeps the batched admission pipeline:
// admission traffic arrives in groups of up to 6 balls driven through
// Store.AdmitBatch, journaled through the batch hook's single
// seq-range reservation, so the armed power cut regularly lands in the
// store-apply/journal-push window with a group half-persisted. The
// reference history follows the entry order — the invariant demands a
// torn group replay as a clean prefix of it, which is exactly what
// would break if AdmitBatch's application order and the batch hook's
// seq reservation ever disagreed.
func TestExploreAdmitBatched(t *testing.T) {
	cfg := explore.DefaultAdmitBatched()
	cfg.Seed = *exploreSeed
	cfg.Schedules = sweepSchedules(cfg.Schedules)

	start := time.Now()
	res := explore.Explore(cfg)
	elapsed := time.Since(start)
	t.Logf("explored %d admit-batched schedules in %v: %+v", res.Schedules, elapsed, res.Stats)

	if res.Schedules != cfg.Schedules {
		t.Errorf("ran %d schedules, want %d", res.Schedules, cfg.Schedules)
	}
	if want := cfg.Schedules * cfg.Rounds; res.Stats.Restores != want {
		t.Errorf("restores = %d, want %d", res.Stats.Restores, want)
	}
	// The sweep is vacuous unless it actually drives multi-ball groups
	// AND cuts power mid-traffic: a healthy round fits many admission
	// groups, so demand at least one per round on average, plus the
	// usual mid-cut / torn-tail / checkpoint coverage floors.
	if want := int64(cfg.Schedules * cfg.Rounds); res.Stats.BatchedAdmits < want {
		t.Errorf("only %d batched admits across %d rounds; admission groups are not forming", res.Stats.BatchedAdmits, want)
	}
	if res.Stats.MidOpCuts < cfg.Schedules/4 {
		t.Errorf("only %d/%d rounds cut mid-traffic; crash points are not landing", res.Stats.MidOpCuts, cfg.Schedules*cfg.Rounds)
	}
	if res.Stats.TornCuts < cfg.Schedules/8 {
		t.Errorf("only %d torn cuts; power cuts are not tearing admission groups", res.Stats.TornCuts)
	}
	if res.Stats.Checkpoints < cfg.Schedules {
		t.Errorf("only %d checkpoints completed; checkpoint path unexercised", res.Stats.Checkpoints)
	}

	if res.Failed() {
		writeReproArtifact(t, res)
		t.Fatalf("durability violations:\n%s", res.Report())
	}
	if testing.Short() && elapsed > 30*time.Second {
		t.Fatalf("short admit-batched sweep took %v, budget 30s", elapsed)
	}
}

// TestExploreAdmitBatchedDeterministic: admission group sizes, bin
// choices and the seq order the batch hook reserves are all pure
// functions of the schedule, so two identical admit-batched sweeps
// must be bit-identical — the property every -explore.admitbatch
// repro line depends on.
func TestExploreAdmitBatchedDeterministic(t *testing.T) {
	cfg := explore.DefaultAdmitBatched()
	cfg.Schedules = 40
	a := explore.Explore(cfg)
	b := explore.Explore(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical admit-batched explorations diverged:\n%+v\n%+v", a, b)
	}
	if a.Failed() {
		t.Fatalf("admit-batched determinism sweep hit violations:\n%s", a.Report())
	}
}

// TestExploreChaos sweeps the continuous-chaos configuration: on top
// of the armed power cut, every round arms transient write-path faults
// mid-traffic, so appends, fsyncs, rotations and checkpoints fail
// while mutations keep flowing. This is the explorer-side analogue of
// the serve.ChaosInjector disk faults, compressed to simulation time;
// the WAL must abort and heal, and every restore must refuse to replay
// across the seq gaps the dropped records leave.
func TestExploreChaos(t *testing.T) {
	cfg := explore.DefaultChaos()
	cfg.Seed = *exploreSeed
	cfg.Schedules = sweepSchedules(cfg.Schedules)

	start := time.Now()
	res := explore.Explore(cfg)
	elapsed := time.Since(start)
	t.Logf("explored %d chaos schedules in %v: %+v", res.Schedules, elapsed, res.Stats)

	if res.Schedules != cfg.Schedules {
		t.Errorf("ran %d schedules, want %d", res.Schedules, cfg.Schedules)
	}
	if want := cfg.Schedules * cfg.Rounds; res.Stats.Restores != want {
		t.Errorf("restores = %d, want %d", res.Stats.Restores, want)
	}
	// Every round arms exactly ChaosFaults faults, and the write-heavy
	// fault menu must actually bite: a sweep where the journal never
	// degrades before the cut is exploring the same space as TestExplore
	// and calling it chaos.
	if want := int64(cfg.Schedules * cfg.Rounds * cfg.ChaosFaults); res.Stats.FaultsArmed != want {
		t.Errorf("faults armed = %d, want %d", res.Stats.FaultsArmed, want)
	}
	if res.Stats.DegradedRounds < cfg.Schedules {
		t.Errorf("only %d/%d rounds degraded; chaos faults are not biting the journal",
			res.Stats.DegradedRounds, cfg.Schedules*cfg.Rounds)
	}
	if res.Stats.MidOpCuts < cfg.Schedules/4 {
		t.Errorf("only %d/%d rounds cut mid-traffic; crash points are not landing", res.Stats.MidOpCuts, cfg.Schedules*cfg.Rounds)
	}

	if res.Failed() {
		writeReproArtifact(t, res)
		t.Fatalf("durability violations:\n%s", res.Report())
	}
	if testing.Short() && elapsed > 30*time.Second {
		t.Fatalf("short chaos sweep took %v, budget 30s", elapsed)
	}
}

// TestExploreChaosDeterministic: chaos fault points are drawn from the
// schedule stream, so chaos sweeps must replay bit-identically too —
// the property every -explore.chaos repro line depends on.
func TestExploreChaosDeterministic(t *testing.T) {
	cfg := explore.DefaultChaos()
	cfg.Schedules = 40
	a := explore.Explore(cfg)
	b := explore.Explore(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical chaos explorations diverged:\n%+v\n%+v", a, b)
	}
	if a.Failed() {
		t.Fatalf("chaos determinism sweep hit violations:\n%s", a.Report())
	}
}

// TestExploreChaosFindsGapSkipBug is the chaos sweep's mutation
// self-check: reinstate the historical "continuity check only after
// torn segments" replay defect (legacyRestore) and demand the chaos
// sweep rediscover it. Only chaos schedules can: the defect needs a CLEANLY-ended
// segment followed by a seq gap — the exact shape an aborted segment
// leaves when a failed append's bytes never reached the disk — and
// only injected write faults manufacture that shape.
func TestExploreChaosFindsGapSkipBug(t *testing.T) {
	cfg := explore.DefaultChaos()
	cfg.Restore = legacyRestore(legacyGapSkip)
	cfg.Schedules = 200
	cfg.MaxViolations = 1
	res := explore.Explore(cfg)
	if !res.Failed() {
		t.Fatalf("chaos explorer missed the reintroduced gap-skip bug in %d schedules", cfg.Schedules)
	}
	v := res.Violations[0]
	t.Logf("rediscovered after %d chaos schedules: %v", res.Schedules, &v)

	// The repro must replay to the same violation while the bug is in...
	rv := explore.RunSchedule(cfg, v.Schedule)
	if rv == nil || rv.Round != v.Round || rv.Msg != v.Msg {
		t.Fatalf("repro did not replay: got %v, want %v", rv, &v)
	}

	// ...and the very same schedule must pass once the fix is back.
	cfg.Restore = nil
	if v2 := explore.RunSchedule(cfg, v.Schedule); v2 != nil {
		t.Fatalf("schedule %d fails even without the mutation: %v", v.Schedule, v2)
	}
}

// TestExploreBatchedDeterministic: batch boundaries must be a pure
// function of the schedule (that is what SyncWriter mode buys), so two
// identical batched sweeps must be bit-identical too.
func TestExploreBatchedDeterministic(t *testing.T) {
	cfg := explore.DefaultBatched()
	cfg.Schedules = 40
	a := explore.Explore(cfg)
	b := explore.Explore(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical batched explorations diverged:\n%+v\n%+v", a, b)
	}
	if a.Failed() {
		t.Fatalf("batched determinism sweep hit violations:\n%s", a.Report())
	}
}

// TestReplaySchedule replays one schedule named on the command line —
// the entry point every violation's repro line points at.
func TestReplaySchedule(t *testing.T) {
	if *exploreSchedule < 0 {
		t.Skip("replay entry point: pass -explore.seed and -explore.schedule")
	}
	cfg := explore.Default()
	if *exploreSummarized {
		cfg = summarizedConfig()
	}
	if *exploreBurst > 1 {
		cfg = explore.DefaultBatched()
		cfg.Burst = *exploreBurst
		cfg.MaxBatch = *exploreMaxBatch
	}
	if *exploreAdmitBatch > 1 {
		cfg.AdmitBatch = *exploreAdmitBatch
		cfg.MaxBatch = *exploreMaxBatch
	}
	cfg.Seed = *exploreSeed
	cfg.ChaosFaults = *exploreChaos
	if *exploreWorkers > 0 {
		cfg.RestoreWorkers = *exploreWorkers
	}
	if v := explore.RunSchedule(cfg, *exploreSchedule); v != nil {
		t.Fatalf("%v\n\t%s", v, v.Repro())
	}
	t.Logf("seed=%d schedule=%d burst=%d admitbatch=%d chaos=%d passes",
		cfg.Seed, *exploreSchedule, cfg.Burst, cfg.AdmitBatch, cfg.ChaosFaults)
}

// TestExploreDeterministic runs the same sweep twice and demands
// bit-identical results — the property every repro line depends on.
func TestExploreDeterministic(t *testing.T) {
	cfg := explore.Default()
	cfg.Schedules = 40
	a := explore.Explore(cfg)
	b := explore.Explore(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical explorations diverged:\n%+v\n%+v", a, b)
	}
	if a.Failed() {
		t.Fatalf("determinism sweep hit violations:\n%s", a.Report())
	}
}

// TestExploreFindsLegacyTornStopBug is the harness's mutation
// self-check: re-introduce the old "stop replay at the first torn
// segment" defect (a double-crash could silently drop post-restart
// mutations — fixed in an earlier release) through the harness's
// restore seam and demand the explorer rediscover it within a bounded
// number of schedules. A fault-injection harness that cannot re-find a bug it
// was built for is vacuous.
func TestExploreFindsLegacyTornStopBug(t *testing.T) {
	cfg := explore.Default()
	cfg.Restore = legacyRestore(legacyTornStop)
	cfg.Schedules = 120
	cfg.MaxViolations = 1
	res := explore.Explore(cfg)
	if !res.Failed() {
		t.Fatalf("explorer missed the reintroduced torn-stop bug in %d schedules", cfg.Schedules)
	}
	v := res.Violations[0]
	t.Logf("rediscovered after %d schedules: %v", res.Schedules, &v)

	// The repro must replay to the same violation while the bug is in...
	rv := explore.RunSchedule(cfg, v.Schedule)
	if rv == nil || rv.Round != v.Round || rv.Msg != v.Msg {
		t.Fatalf("repro did not replay: got %v, want %v", rv, &v)
	}

	// ...and the very same schedule must pass once the fix is back —
	// pinning the violation on the mutation, not on the harness.
	cfg.Restore = nil
	if v2 := explore.RunSchedule(cfg, v.Schedule); v2 != nil {
		t.Fatalf("schedule %d fails even without the mutation: %v", v.Schedule, v2)
	}
}

// TestExploreAdmitBatchedFindsLegacyTornStopBug is the same mutation
// self-check through the batched admission pipeline: the admit-batched
// sweep must also rediscover the torn-stop defect, proving its
// mid-group power cuts produce torn multi-record tails the replay
// actually has to survive.
func TestExploreAdmitBatchedFindsLegacyTornStopBug(t *testing.T) {
	cfg := explore.DefaultAdmitBatched()
	cfg.Restore = legacyRestore(legacyTornStop)
	cfg.Schedules = 120
	cfg.MaxViolations = 1
	res := explore.Explore(cfg)
	if !res.Failed() {
		t.Fatalf("admit-batched explorer missed the reintroduced torn-stop bug in %d schedules", cfg.Schedules)
	}
	v := res.Violations[0]
	t.Logf("rediscovered after %d admit-batched schedules: %v", res.Schedules, &v)

	rv := explore.RunSchedule(cfg, v.Schedule)
	if rv == nil || rv.Round != v.Round || rv.Msg != v.Msg {
		t.Fatalf("repro did not replay: got %v, want %v", rv, &v)
	}

	cfg.Restore = nil
	if v2 := explore.RunSchedule(cfg, v.Schedule); v2 != nil {
		t.Fatalf("schedule %d fails even without the mutation: %v", v.Schedule, v2)
	}
}

// TestExploreBatchedFindsLegacyTornStopBug is the same mutation
// self-check through the group-commit pipeline: the batched sweep must
// also rediscover the torn-stop defect, proving its mid-batch power
// cuts produce torn tails the replay actually has to survive.
func TestExploreBatchedFindsLegacyTornStopBug(t *testing.T) {
	cfg := explore.DefaultBatched()
	cfg.Restore = legacyRestore(legacyTornStop)
	cfg.Schedules = 120
	cfg.MaxViolations = 1
	res := explore.Explore(cfg)
	if !res.Failed() {
		t.Fatalf("batched explorer missed the reintroduced torn-stop bug in %d schedules", cfg.Schedules)
	}
	v := res.Violations[0]
	t.Logf("rediscovered after %d batched schedules: %v", res.Schedules, &v)

	rv := explore.RunSchedule(cfg, v.Schedule)
	if rv == nil || rv.Round != v.Round || rv.Msg != v.Msg {
		t.Fatalf("repro did not replay: got %v, want %v", rv, &v)
	}

	cfg.Restore = nil
	if v2 := explore.RunSchedule(cfg, v.Schedule); v2 != nil {
		t.Fatalf("schedule %d fails even without the mutation: %v", v.Schedule, v2)
	}
}

// summarizedConfig is the sweep whose restores apply sealed segments
// from their footers: 4 bins over 2 stripes and 32-record segments, so
// a segment's entries (at most 4) stay within a quarter of its records,
// and a checkpoint every 60 mutations, so whole sealed segments lie
// past it. Its repro lines carry -explore.summarized.
func summarizedConfig() explore.Config {
	c := explore.Default()
	c.Bins, c.Shards = 4, 2
	c.SegmentBytes = 32 * wal.RecordSize
	c.CheckpointEvery = 60
	return c
}

// TestExploreSummarized sweeps power cuts over logs whose sealed
// segments carry footers the restores apply in place of their records:
// the footer path must keep every acknowledged mutation and nothing
// more, like the record path does.
func TestExploreSummarized(t *testing.T) {
	cfg := summarizedConfig()
	cfg.Seed = *exploreSeed
	cfg.Schedules = sweepSchedules(cfg.Schedules)
	res := explore.Explore(cfg)
	t.Logf("explored %d summarized schedules: %+v", res.Schedules, res.Stats)
	if res.Stats.Summarized < cfg.Schedules/4 {
		t.Errorf("only %d segments applied from footers in %d schedules; the footer path is unexercised", res.Stats.Summarized, res.Schedules)
	}
	if res.Failed() {
		writeReproArtifact(t, res)
		t.Fatalf("durability violations (add -explore.summarized to each repro):\n%s", res.Report())
	}
}

// TestExploreSummarizedFindsDroppedBatchBug is the footer's mutation
// self-check: a summariser that leaves each segment's last batch out
// of its footer (droppedBatchRestore) must be rediscovered by the
// summarized sweep, and the same schedule must pass without it.
func TestExploreSummarizedFindsDroppedBatchBug(t *testing.T) {
	cfg := summarizedConfig()
	cfg.Restore = droppedBatchRestore
	cfg.Schedules = 200
	cfg.MaxViolations = 1
	res := explore.Explore(cfg)
	if !res.Failed() {
		t.Fatalf("summarized explorer missed the dropped-batch summariser in %d schedules", cfg.Schedules)
	}
	v := res.Violations[0]
	t.Logf("rediscovered after %d summarized schedules: %v", res.Schedules, &v)

	rv := explore.RunSchedule(cfg, v.Schedule)
	if rv == nil || rv.Round != v.Round || rv.Msg != v.Msg {
		t.Fatalf("repro did not replay: got %v, want %v", rv, &v)
	}
	cfg.Restore = nil
	if v2 := explore.RunSchedule(cfg, v.Schedule); v2 != nil {
		t.Fatalf("schedule %d fails even without the mutation: %v", v.Schedule, v2)
	}
}
