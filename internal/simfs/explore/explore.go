// Package explore is a seeded crash-schedule explorer for the
// durability stack (internal/wal + internal/checkpoint wired through
// serve.Journal). Each schedule drives randomized alloc/free/crash
// traffic against a Store journaled onto a simulated filesystem
// (internal/simfs), arms a crash at a pseudo-random filesystem
// operation, power-cuts the machine (keeping a random torn fragment of
// every unsynced tail), restores, and checks the durability invariant:
//
//   - restore itself must succeed,
//   - every mutation acknowledged with a completed fsync must survive
//     (restored LastSeq >= the durable watermark),
//   - the restored state must equal a reference replay of exactly the
//     first LastSeq acknowledged mutations — no more, no less, no skew.
//
// Crash → restore → more traffic → crash again is explored directly:
// every schedule runs several rounds over the same filesystem, so torn
// tails from one incarnation sit under the segments of the next, and
// checkpoints (plus their prune/truncate maintenance) fire mid-round so
// the crash point can land inside the checkpoint write path too.
//
// Batched schedules (Config.Burst > 1, see DefaultBatched) drive the
// group-commit pipeline: mutations are pushed in bursts and the
// journal runs in SyncWriter mode, so each Drain hands multi-record
// batches to wal.Log.AppendBatch — and the armed crash point can land
// inside a batch's single write or its one group fsync. A power cut
// there tears the batch mid-record, and the invariant demands the torn
// batch replay as a clean contiguous prefix of the acknowledged
// history.
//
// Admit-batched schedules (Config.AdmitBatch > 1, see
// DefaultAdmitBatched) drive the batched admission pipeline: admission
// traffic arrives in groups of several balls applied through
// Store.AdmitBatch — one critical section, one seq-range reservation in
// the journal's batch hook — and the armed power cut can land inside
// the store-apply/journal-push window of a half-persisted group. The
// group applies in entry order, which is by construction the journal's
// seq order, so the reference history records it in entry order and
// the invariant sharpens to: a group torn mid-batch must replay as a
// clean prefix OF THE ENTRY ORDER, never a subset or a reordering.
//
// Chaos schedules (Config.ChaosFaults > 0, see DefaultChaos) further
// arm transient write-path faults at random points DURING traffic:
// appends, fsyncs, segment creation and checkpoint renames fail while
// mutations keep flowing, as on a degraded disk. The WAL aborts wedged
// segments and heals onto fresh ones, dropped records open seq gaps in
// the on-disk stream, and the invariant sharpens correspondingly: the
// durable watermark freezes at the first journal error, and the
// restore must stop at the gap (or at a checkpoint that healed it)
// rather than replay records on top of missing mutations.
//
// Everything is deterministic per (Seed, schedule): the driver is
// single-threaded, the journal is quiesced with Journal.Drain at every
// burst boundary (every operation in the per-record configuration) —
// in batched schedules SyncWriter mode appends in the driver's own
// goroutine, so batch boundaries are a pure function of the schedule —
// and simfs numbers every filesystem operation. A violation therefore
// reproduces exactly from its one-line repro — RunSchedule(cfg,
// v.Schedule) with the same Config.
package explore

import (
	"fmt"
	"strings"

	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// Config parameterizes an exploration. The zero value is not runnable;
// start from Default and override.
type Config struct {
	Seed      uint64 // root seed; schedule k runs on rng.NewStream(Seed, k)
	Schedules int    // how many schedules Explore runs

	Rounds      int // crash/restore cycles per schedule
	OpsPerRound int // store mutations attempted per round
	Bins        int // store bins
	Shards      int // store index stripes

	// CheckpointEvery takes a checkpoint after every that-many mutations
	// within a round (0 disables checkpoints).
	CheckpointEvery int

	// SegmentBytes is the WAL rotation threshold. Default is small
	// enough that every round spans several segments, so replay
	// regularly crosses torn-segment boundaries.
	SegmentBytes int64

	// MaxViolations stops Explore after this many failing schedules
	// (default 8): one failure is usually worth inspecting before
	// paying for the rest of the sweep.
	MaxViolations int

	// Burst, when > 1, drives mutations in bursts of that many between
	// journal drains, with the journal in deterministic SyncWriter
	// mode: each Drain appends the queued burst in MaxBatch chunks, so
	// WAL writes are multi-record group-commit batches and the crash
	// point can land mid-batch. 0/1 is the per-record configuration.
	Burst int

	// MaxBatch is the journal's batch ceiling in burst mode (default
	// 5, deliberately not dividing the default burst so chunk sizes
	// vary within one burst).
	MaxBatch int

	// AdmitBatch, when > 1, drives admission traffic in groups of up to
	// that many balls per Store.AdmitBatch instead of a group of one per
	// mutation, with the journal in deterministic SyncWriter mode (as
	// in burst mode): the group's records reach the WAL through the
	// batch hook's single seq-range reservation, so the armed power cut
	// can land inside the store-apply/journal-push window of a
	// half-persisted group. The reference history appends the group in
	// entry order — the journal's seq order — so a torn group must
	// replay as a clean prefix of it. 0/1 is the per-ball configuration.
	AdmitBatch int

	// RestoreWorkers is the apply-worker count every restore in the
	// schedule runs with (0 means the suite default of 2, so sweeps
	// exercise the partitioned fan-out; 1 is the same pipeline with one
	// apply lane).
	RestoreWorkers int

	// Restore is the restore under test (nil means serve.RestoreFSOpts,
	// the only one production has). It is the harness's one seam: the
	// mutation self-checks substitute a restore with a historical replay
	// bug reinstated and demand the explorer rediscover it, which proves
	// the oracle bites without any bug switch living in production code.
	Restore RestoreFunc

	// ChaosFaults, when > 0, arms that many transient write-path faults
	// per round at pseudo-random points DURING traffic (see
	// DefaultChaos): creates, writes, fsyncs and renames fail as on a
	// degraded disk while mutations keep flowing, on top of the armed
	// power cut. Faults are restricted to write-path operation kinds so
	// a leftover armed fault can never fire inside restore's read-only
	// pass; simfs drops unfired faults at the power cut. The invariant
	// is unchanged: an acknowledgement the journal reported durable
	// before the first fault must survive, and the restored state must
	// still be an exact prefix of the acknowledged history — the WAL
	// heals onto fresh segments and replay must refuse to skip the gap
	// the dropped records leave behind.
	ChaosFaults int
}

// RestoreFunc is the signature of serve.RestoreFSOpts.
type RestoreFunc func(st *serve.Store, fsys vfs.FS, dir string, opts serve.RestoreOptions) (serve.RestoreResult, error)

// Default returns the configuration the test suite runs: 3 rounds of
// 120 mutations over 16 bins / 4 shards, checkpoints every 25
// mutations, 8-record WAL segments.
func Default() Config {
	return Config{
		Seed:            1,
		Schedules:       500,
		Rounds:          3,
		OpsPerRound:     120,
		Bins:            16,
		Shards:          4,
		CheckpointEvery: 25,
		SegmentBytes:    8 * wal.RecordSize, // rotate every ~8 records
		MaxViolations:   8,
		RestoreWorkers:  2,
	}
}

// DefaultBatched returns the group-commit sweep the test suite runs
// alongside Default: bursts of 12 mutations drained as batches of up
// to 5 records, over the same tiny segments — so batches regularly
// straddle rotations and the power cut regularly lands inside a
// batch's write or group fsync.
func DefaultBatched() Config {
	c := Default()
	c.Burst = 12
	c.MaxBatch = 5
	c.CheckpointEvery = 24 // a multiple of Burst: checkpoints fire at drained boundaries
	return c
}

// DefaultAdmitBatched returns the batched-admission sweep the test
// suite runs alongside DefaultBatched: admissions arrive in groups of
// up to 6 balls applied through Store.AdmitBatch and journaled through
// the batch hook's one seq-range reservation, drained as SyncWriter
// batches of up to 4 records over the same tiny segments — so the
// power cut regularly lands between a group's store apply and the
// moment its last record is durable.
func DefaultAdmitBatched() Config {
	c := Default()
	c.AdmitBatch = 6
	c.MaxBatch = 4
	return c
}

// chaosOps is the fault menu for chaos schedules: every kind on the
// durability write path (WAL appends and fsyncs, segment and
// checkpoint creation, checkpoint rename), and nothing on the restore
// read path — so an armed fault that outlives its round cannot turn a
// read-only restore into a false violation.
var chaosOps = []simfs.OpKind{
	simfs.OpWrite, simfs.OpSync, simfs.OpCreate, simfs.OpCreateTemp, simfs.OpRename,
}

// DefaultChaos returns the continuous-chaos sweep the test suite runs
// alongside Default and DefaultBatched: the same traffic and power
// cuts, plus 3 transient write-path faults armed per round at random
// points mid-traffic. This is the explorer-side analogue of serve's
// ChaosInjector disk faults (stall/ENOSPC), compressed to simulation
// time: the journal keeps accepting mutations while appends fail, the
// WAL aborts wedged segments and heals, and every restore must stop at
// the seq gap the dropped records opened (or at the checkpoint that
// healed it).
func DefaultChaos() Config {
	c := Default()
	c.ChaosFaults = 3
	return c
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.Schedules <= 0 {
		c.Schedules = d.Schedules
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	if c.OpsPerRound <= 0 {
		c.OpsPerRound = d.OpsPerRound
	}
	if c.Bins <= 0 {
		c.Bins = d.Bins
	}
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = d.SegmentBytes
	}
	if c.MaxViolations <= 0 {
		c.MaxViolations = d.MaxViolations
	}
	if c.RestoreWorkers <= 0 {
		c.RestoreWorkers = d.RestoreWorkers
	}
	if c.Restore == nil {
		c.Restore = serve.RestoreFSOpts
	}
	if c.Burst > 1 && c.MaxBatch <= 0 {
		c.MaxBatch = DefaultBatched().MaxBatch
	}
	if c.AdmitBatch > 1 && c.MaxBatch <= 0 {
		c.MaxBatch = DefaultAdmitBatched().MaxBatch
	}
	return c
}

// Violation is one durability-invariant failure, carrying everything
// needed to reproduce it.
type Violation struct {
	Seed       uint64
	Schedule   int
	Round      int    // crash/restore cycle the failure surfaced in
	Burst      int    // Config.Burst the schedule ran with (0/1 = per-record)
	AdmitBatch int    // Config.AdmitBatch the schedule ran with (0/1 = per-ball)
	MaxBatch   int    // Config.MaxBatch in burst/admit-batch mode
	Chaos      int    // Config.ChaosFaults the schedule ran with (0 = none)
	Workers    int    // Config.RestoreWorkers the schedule restored with
	Msg        string // what broke
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("durability violation at seed=%d schedule=%d round=%d%s: %s",
		v.Seed, v.Schedule, v.Round, v.knobs(""), v.Msg)
}

// Repro returns a one-line shell repro for this violation.
func (v *Violation) Repro() string {
	return fmt.Sprintf("go test ./internal/simfs/explore -run TestReplaySchedule -explore.seed=%d -explore.schedule=%d%s",
		v.Seed, v.Schedule, v.knobs("-explore."))
}

// knobs renders the schedule's non-default knobs as " <prefix>name=value".
func (v *Violation) knobs(prefix string) (s string) {
	add := func(on bool, name string, val int) {
		if on {
			s += fmt.Sprintf(" %s%s=%d", prefix, name, val)
		}
	}
	add(v.Burst > 1, "burst", v.Burst)
	add(v.AdmitBatch > 1, "admitbatch", v.AdmitBatch)
	add(v.Burst > 1 || v.AdmitBatch > 1, "maxbatch", v.MaxBatch)
	add(v.Chaos > 0, "chaos", v.Chaos)
	add(v.Workers != 0 && v.Workers != Default().RestoreWorkers, "workers", v.Workers)
	return s
}

// Stats aggregates what an exploration exercised; all fields are
// deterministic functions of the Config.
type Stats struct {
	StoreOps       int64 // store mutations driven (acknowledged or not)
	FSOps          int64 // simulated filesystem operations consumed
	Restores       int   // restore passes executed
	Summarized     int   // WAL segments those restores applied from their footers
	Checkpoints    int   // checkpoints that completed successfully
	MidOpCuts      int   // rounds whose armed crash point fired during traffic
	TornCuts       int   // power cuts that left at least one torn tail
	BatchedAdmits  int64 // admission groups of >= 2 balls driven through Store.AdmitBatch
	FaultsArmed    int64 // chaos faults armed (ChaosFaults per round)
	DegradedRounds int   // rounds where a chaos fault wedged the journal before the cut
}

func (s *Stats) add(o Stats) {
	s.StoreOps += o.StoreOps
	s.FSOps += o.FSOps
	s.Restores += o.Restores
	s.Summarized += o.Summarized
	s.Checkpoints += o.Checkpoints
	s.MidOpCuts += o.MidOpCuts
	s.TornCuts += o.TornCuts
	s.BatchedAdmits += o.BatchedAdmits
	s.FaultsArmed += o.FaultsArmed
	s.DegradedRounds += o.DegradedRounds
}

// Result is what Explore found.
type Result struct {
	Schedules  int // schedules fully run (== Config.Schedules unless stopped early)
	Violations []Violation
	Stats      Stats
}

// Failed reports whether any schedule violated the invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// Report renders the violations as one repro line each.
func (r Result) Report() string {
	var b strings.Builder
	for i := range r.Violations {
		v := &r.Violations[i]
		fmt.Fprintf(&b, "%s\n\t%s\n", v.Error(), v.Repro())
	}
	return b.String()
}

// Explore runs cfg.Schedules schedules and collects every violation
// (up to cfg.MaxViolations, after which it stops early).
func Explore(cfg Config) Result {
	cfg = cfg.withDefaults()
	var res Result
	for k := 0; k < cfg.Schedules; k++ {
		v, st := runSchedule(cfg, k)
		res.Stats.add(st)
		res.Schedules++
		if v != nil {
			res.Violations = append(res.Violations, *v)
			if len(res.Violations) >= cfg.MaxViolations {
				break
			}
		}
	}
	return res
}

// RunSchedule replays a single schedule — the entry point a violation's
// repro line uses. It returns nil when the schedule passes.
func RunSchedule(cfg Config, schedule int) *Violation {
	v, _ := runSchedule(cfg.withDefaults(), schedule)
	return v
}

// refOp is one acknowledged store mutation; the reference history ref
// is indexed so that ref[i] carries WAL seq i+1.
type refOp struct {
	op     wal.Op
	bin, k int
}

// runSchedule drives one full crash/restore lifecycle and checks the
// durability invariant after every power cut.
func runSchedule(cfg Config, schedule int) (*Violation, Stats) {
	var stats Stats
	fail := func(round int, format string, args ...any) (*Violation, Stats) {
		return &Violation{
			Seed:       cfg.Seed,
			Schedule:   schedule,
			Round:      round,
			Burst:      cfg.Burst,
			AdmitBatch: cfg.AdmitBatch,
			MaxBatch:   cfg.MaxBatch,
			Chaos:      cfg.ChaosFaults,
			Workers:    cfg.RestoreWorkers,
			Msg:        fmt.Sprintf(format, args...),
		}, stats
	}

	r := rng.NewStream(cfg.Seed, uint64(schedule))
	fs := simfs.New()
	const dir = "/data"

	openJournal := func(st *serve.Store, lastSeq uint64) (*serve.Journal, error) {
		l, err := wal.Open(wal.Options{
			Dir:          dir,
			FS:           fs,
			Fsync:        wal.FsyncAlways,
			SegmentBytes: cfg.SegmentBytes,
		})
		if err != nil {
			return nil, err
		}
		jo := serve.JournalOptions{Buffer: 8}
		if cfg.Burst > 1 || cfg.AdmitBatch > 1 {
			// SyncWriter keeps batch boundaries a deterministic function
			// of the schedule: Drain appends the queued burst from this
			// goroutine in MaxBatch chunks. Buffer must cover a full
			// burst of pushes between drains, plus the overshoot of an
			// admission group straddling the last burst boundary.
			jo = serve.JournalOptions{
				Buffer:     2*(cfg.Burst+cfg.AdmitBatch) + 8,
				MaxBatch:   cfg.MaxBatch,
				SyncWriter: true,
			}
		}
		return serve.NewJournal(st, l, lastSeq, jo), nil
	}

	// ref holds every acknowledged mutation in seq order; durable is the
	// highest seq known to have completed its fsync (the watermark the
	// restore must reach).
	var ref []refOp
	durable := uint64(0)

	st := serve.NewStoreShards(cfg.Bins, cfg.Shards)
	j, err := openJournal(st, 0)
	if err != nil {
		return fail(0, "boot: %v", err)
	}

	burst := cfg.Burst
	if burst < 1 {
		burst = 1
	}
	admitBins := make([]int, max(cfg.AdmitBatch, 1))

	for round := 0; round < cfg.Rounds; round++ {
		// Arm the crash at a pseudo-random upcoming FS operation. A
		// store mutation costs ~2 FS ops (write + fsync) plus rotation
		// and checkpoint traffic, so a span of 4x mutations lands the
		// cut inside the round most of the time and past it (a forced
		// cut at a quiet boundary) the rest — both worth covering. A
		// batched round consumes far fewer FS ops per mutation (one
		// write + one fsync covers a whole batch), so its span is
		// proportionally tighter; admission groups sit in between.
		span := 4 * cfg.OpsPerRound
		if burst > 1 {
			span = 2 * cfg.OpsPerRound
		} else if cfg.AdmitBatch > 1 {
			span = 3 * cfg.OpsPerRound
		}
		fs.CrashAfterOps(1 + r.Intn(span))

		// Chaos schedules additionally arm transient write-path faults at
		// random points inside the round: the disk degrades while traffic
		// keeps flowing. The durable watermark stops advancing at the
		// first journal error (the fault un-acknowledges everything
		// after it), and simfs drops whatever never fired at the cut.
		for f := 0; f < cfg.ChaosFaults; f++ {
			fs.FailOp(chaosOps[r.Intn(len(chaosOps))], 1+r.Intn(cfg.OpsPerRound), nil)
			stats.FaultsArmed++
		}
		degraded := false

		// The drive loop advances by mutation GROUPS: driveSome applies
		// 1 mutation (or, in admit-batch mode, up to AdmitBatch
		// admissions in one Store.AdmitBatch) and returns how many. The
		// drain and checkpoint conditions are boundary CROSSINGS of the
		// post-op count, which reduce exactly to the old modular checks
		// when every group has size 1 — per-record and burst schedules
		// replay bit-identically to the pre-AdmitBatch explorer.
		for c := 0; c < cfg.OpsPerRound && !fs.Crashed(); {
			prev := c
			c += driveSome(r, st, &ref, admitBins, cfg.AdmitBatch, cfg.OpsPerRound-c, &stats)
			stats.StoreOps += int64(c - prev)
			if c/burst == prev/burst && c < cfg.OpsPerRound {
				continue // mid-burst: keep queueing, no drain yet
			}
			j.Drain()
			if !fs.Crashed() && j.Err() == nil {
				durable = j.LastSeq()
			}
			if !fs.Crashed() && j.Err() != nil {
				degraded = true // a chaos fault, not the cut, wedged an ack
			}
			if cfg.CheckpointEvery > 0 && c/cfg.CheckpointEvery != prev/cfg.CheckpointEvery && !fs.Crashed() {
				// A cut can land anywhere inside the checkpoint write or
				// its prune/truncate maintenance; failure is part of the
				// schedule, not of the invariant.
				if _, _, err := j.Checkpoint(); err == nil {
					stats.Checkpoints++
				}
			}
		}
		if fs.Crashed() {
			stats.MidOpCuts++
		} else {
			fs.CrashNow()
		}
		if degraded {
			stats.DegradedRounds++
		}
		j.Close() // fails fast against the crashed FS; errors expected

		tornBefore := stats.TornCuts
		fs.PowerCut(func(name string, unsynced int) int {
			keep := r.Intn(unsynced + 1)
			if keep > 0 && keep < unsynced {
				stats.TornCuts = tornBefore + 1
			}
			return keep
		})

		// Restart: fresh store, restore from whatever survived.
		st = serve.NewStoreShards(cfg.Bins, cfg.Shards)
		res, err := cfg.Restore(st, fs, dir, serve.RestoreOptions{Workers: cfg.RestoreWorkers})
		stats.Restores++
		stats.Summarized += res.SegmentsSummarized
		stats.FSOps = fs.OpCount()
		if err != nil {
			return fail(round, "restore failed: %v", err)
		}
		if res.LastSeq < durable {
			return fail(round, "lost fsynced mutations: restored through seq %d, but seq %d was acknowledged durable", res.LastSeq, durable)
		}
		if res.LastSeq > uint64(len(ref)) {
			return fail(round, "restored through seq %d, but only %d mutations were ever acknowledged", res.LastSeq, len(ref))
		}
		if res.SkippedFrees != 0 {
			return fail(round, "replay skipped %d frees of empty bins; impossible against our own log", res.SkippedFrees)
		}
		if msg := diffAgainstRef(st, ref[:res.LastSeq], cfg); msg != "" {
			return fail(round, "restored state diverges from the acknowledged history at seq %d (ckpt seq %d, replayed %d, torn %v): %s",
				res.LastSeq, res.CheckpointSeq, res.Replayed, res.Torn, msg)
		}

		// The tail of ref past the restored seq died with the cut
		// (acknowledged but never durable — allowed); the next
		// incarnation continues from the restored seq.
		ref = ref[:res.LastSeq]
		durable = res.LastSeq

		j, err = openJournal(st, res.LastSeq)
		if err != nil {
			return fail(round, "reopen after restore: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		return fail(cfg.Rounds-1, "final close: %v", err)
	}
	stats.FSOps = fs.OpCount()
	return nil, stats
}

// driveSome applies one pseudo-random mutation group to the store and
// records it in ref iff acknowledged (produced WAL records), returning
// the number of mutations driven. The mix mirrors the serving
// workload: mostly admissions, a steady departure stream through both
// scenario samplers, occasional crash dumps. Admissions go through
// Store.AdmitBatch in groups: of exactly one ball when admitBatch <= 1
// (no size draw, so the rng draws are identical to the historical
// per-ball driver), of 1+Intn(admitBatch) balls otherwise (clamped to
// rem, the mutations left in the round). The group's refOps are
// appended in entry order — the order the journal assigned their WAL
// seqs.
func driveSome(r *rng.RNG, st *serve.Store, ref *[]refOp, bins []int, admitBatch, rem int, stats *Stats) int {
	switch p := r.Intn(10); {
	case p == 0: // fault injection: dump k balls into one bin
		bin, k := r.Intn(st.N()), 1+r.Intn(4)
		st.Crash(bin, k) // loads stay tiny: ErrOverflow cannot occur
		*ref = append(*ref, refOp{wal.OpCrash, bin, k})
	case p <= 3: // departure via either scenario's sampler
		var bin int
		var err error
		if r.Bool() {
			bin, err = st.FreeBall(r) // Scenario A: load-weighted
		} else {
			bin, err = st.FreeNonEmpty(r) // Scenario B: uniform nonempty
		}
		if err == nil {
			*ref = append(*ref, refOp{wal.OpFree, bin, 1})
		}
	default: // admission
		g := 1
		if admitBatch > 1 {
			g = 1 + r.Intn(admitBatch)
			if g > rem {
				g = rem
			}
		}
		for i := 0; i < g; i++ {
			bins[i] = r.Intn(st.N())
		}
		st.AdmitBatch(bins[:g], nil) // loads stay tiny: ErrOverflow cannot occur
		for _, b := range bins[:g] {
			*ref = append(*ref, refOp{wal.OpAlloc, b, 1})
		}
		if g > 1 {
			stats.BatchedAdmits++
		}
		return g
	}
	return 1
}

// diffAgainstRef replays the acknowledged history into a fresh store —
// through serve.ApplyRecords, the same batch applier restore and the
// replication follower use — and compares it field by field with the
// restored one. Empty string means identical.
func diffAgainstRef(got *serve.Store, ref []refOp, cfg Config) string {
	want := serve.NewStoreShards(cfg.Bins, cfg.Shards)
	recs := make([]wal.Record, len(ref))
	for i, op := range ref {
		recs[i] = wal.Record{Op: op.op, Bin: uint32(op.bin), K: int32(op.k), Seq: uint64(i + 1)}
	}
	skipped, err := serve.ApplyRecords(want, recs)
	if err != nil {
		return fmt.Sprintf("reference replay failed: %v", err)
	}
	if skipped != 0 {
		return fmt.Sprintf("reference replay freed %d empty bins; the acknowledged history is not self-consistent", skipped)
	}
	gl, wl := got.LoadsCopy(), want.LoadsCopy()
	for b := range wl {
		if gl[b] != wl[b] {
			return fmt.Sprintf("bin %d load = %d, want %d", b, gl[b], wl[b])
		}
	}
	if got.Total() != want.Total() {
		return fmt.Sprintf("total = %d, want %d", got.Total(), want.Total())
	}
	if got.Allocs() != want.Allocs() {
		return fmt.Sprintf("allocs = %d, want %d", got.Allocs(), want.Allocs())
	}
	if got.Frees() != want.Frees() {
		return fmt.Sprintf("frees = %d, want %d", got.Frees(), want.Frees())
	}
	return ""
}
