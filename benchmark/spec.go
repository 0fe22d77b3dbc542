package main

// The benchmark's fixed definitions: the four workloads and the metric
// names and units the harness prints. BENCHMARK.json at the repository
// root repeats the names, units, directions and regression bounds; the
// smoke test holds the two in step.

// metricDecl names one metric and its unit.
type metricDecl struct {
	name, unit string
}

// endToEnd lists the user-visible metrics, measured with tracing off.
// Every workload measures every one of them.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"phases_per_s", "1/s"},
	{"admit_p50_us", "us"},
	{"free_p50_us", "us"},
	{"restore_p50_ms", "ms"},
	{"mttr_p50_ms", "ms"},
	{"cpu_s_per_mphase", "s"},
	{"rss_mb", "MiB"},
}

// perLayer lists the metrics that carry no regression bound; the traced
// run's result line holds them all. First the client-side tails and
// the open-loop latencies — what a user sees, but too dependent on
// where one rare stall falls, or on the host's mood amplified by a
// queue, to be held to a bound (README.md). Then
// what is read from outside the shard processes (rusage, /proc/<pid>/io,
// the durability directory) during a short untraced pass. The rest
// come from spans and counters recorded at the seams of the in-process
// assembly, or from one layer timed alone.
var perLayer = []metricDecl{
	{"admit_p99_us", "us"},
	{"free_p99_us", "us"},
	{"open_lo_p50_us", "us"},
	{"open_lo_p99_us", "us"},
	{"open_hi_p50_us", "us"},
	{"open_hi_p99_us", "us"},
	{"proc.peak_rss_mb", "MiB"},
	{"proc.syscalls_per_phase", "count"},
	{"proc.sys_cpu_frac", "ratio"},
	{"proc.write_bytes_per_phase", "B"},
	{"proc.wal_dir_bytes", "B"},
	{"loadgen.cpu_frac", "ratio"},
	{"loadgen.late_p99_us", "us"},
	{"recover.cycles", "count"},
	{"recover.budget_ratio", "ratio"},
	{"recover.steps_per_s", "1/s"},
	{"recover.lost_on_kill", "count"},
	{"recover.clock_regressions", "count"},
	{"detector.checks_per_episode", "count"},
	{"harness.build_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},

	{"router.admit_call_us", "us"},
	{"router.free_call_us", "us"},
	{"router.probe_rtt_us", "us"},
	{"router.frames_per_phase", "count"},
	{"router.retries", "count"},
	{"router.allocs_per_admit", "count"},
	{"dgram.reads_per_frame", "count"},
	{"dgram.writes_per_frame", "count"},
	{"dgram.bytes_per_phase", "B"},
	{"dgram.wire_us_per_frame", "us"},
	{"dgram.codec_ns_per_frame", "ns"},
	{"shard.service_admit_us", "us"},
	{"shard.service_free_us", "us"},
	{"shard.service_probe_us", "us"},
	{"policy.pick_ns_per_ball", "ns"},
	{"policy.probes_per_ball", "count"},
	{"store.admit_ns_per_ball", "ns"},
	{"store.free_ns_per_ball", "ns"},
	{"store.free_bins_scanned", "count"},
	{"detector.check_us", "us"},
	{"journal.enqueue_ns_per_record", "ns"},
	{"journal.records_per_write", "count"},
	{"journal.drain_ms", "ms"},
	{"journal.checkpoint_ms", "ms"},
	{"wal.bytes_per_record", "B"},
	{"wal.write_ns_per_record", "ns"},
	{"wal.append_batch_ns_per_record", "ns"},
	{"wal.segments_rotated", "count"},
	{"wal.replay_apply_frac", "ratio"},
	{"vfs.fsyncs_per_s", "1/s"},
	{"vfs.fsync_p50_us", "us"},
	{"vfs.fsync_p99_us", "us"},
	{"vfs.write_calls_per_s", "1/s"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes_per_bin", "B"},
	{"checkpoint.alloc_bytes_per_roundtrip", "B"},
	{"restore.checkpoint_ms", "ms"},
	{"restore.replay_ms", "ms"},
	{"restore.fence_ms", "ms"},
	{"restore.workers", "count"},
	{"restore.records_per_s", "1/s"},
	{"engine.phases_per_s", "1/s"},
	{"engine.journaled_phases_per_s", "1/s"},
	{"replica.ship_records_per_s", "1/s"},
	{"replica.allocs_per_krecord", "count"},
}

// workload is one fixed configuration of the system under test plus the
// traffic the generator offers it. Every run of every workload has the
// same two acts — serve (a closed stage, then two open stages at fixed
// rates) and fail-and-recover (kill -9, restart, drive until the
// detector reports the typical state) — because the acceptance driver
// wants every end-to-end metric from every workload. What differs is
// the configuration, and with it the layer that does the work.
type workload struct {
	name string
	why  string

	shards    int    // dynallocd processes behind the router
	n         int    // bins per shard; m = n balls seeded balanced
	durable   bool   // -wal-dir set
	fsync     string // -fsync policy when durable
	ckptEvery string // -checkpoint-every when durable ("" = boot/shutdown only)

	// Shares of the measured time given to each act. They sum to 1.
	closedShare, openLoShare, openHiShare, recoverShare float64

	// Poisson arrival rates of the two open stages, phases per second.
	// Frozen at about 20 % and 40 % of the workload's measured batch-1
	// closed-loop capacity (see README.md).
	openLo, openHi float64

	warmOps    int // closed-loop ops per session before measuring (part of set-up)
	checkEvery int // -check-every of the recovery drive

	// fixtureRecords > 0 marks the restart workload: the shard is never
	// seeded; every recovery cycle starts from a copy of a generated
	// durability directory holding this many WAL records.
	fixtureRecords int
	// crashK is the disruption: balls dumped into one bin before the
	// kill (0 on a memory-only shard, where nothing survives the kill).
	crashK int
	// The band the run's median steps-to-recover must fall in, as a
	// share of the Theorem 1 budget m·ln(4m). The process is correct
	// only if its recovery time sits where the paper's process puts it;
	// the band is about a quarter either side of what this workload
	// measures (README.md), wide enough for one run's median and narrow
	// enough that a sampler that bends the process — in either
	// direction — leaves it.
	budgetLo, budgetHi float64
}

// episodeLimit is how many Theorem 1 budgets any single recovery may
// take before the run is incorrect.
const episodeLimit = 2

const (
	batchOp    = 16   // closed-loop op: batchOp frees, then one AdmitBatch(batchOp)
	sessions   = 2    // generator sessions == calls in flight; never more than nproc
	openBatch  = 1    // open-loop phase: one Free + AdmitBatch(1)
	driveBatch = 64   // -batch of the recovery drive
	epsilon    = 0.25 // Theorem 1 budget m·ln(m/ε) is taken at ε = 1/4
)

var workloads = []workload{
	{
		name:   "mem-large",
		why:    "1 memory-only shard, n=2^20 (4 MiB of loads, beyond L2): store scan, probes and detector sweeps do the work; WAL, journal and checkpoint do none",
		shards: 1, n: 1 << 20,
		closedShare: 0.40, openLoShare: 0.20, openHiShare: 0.20, recoverShare: 0.20,
		openLo: 300, openHi: 650,
		warmOps: 100, checkEvery: 1024,
	},
	{
		name:   "durable-small",
		why:    "1 shard, fsync always, 1 s checkpoints, n=2^14 (cache-resident): journal, WAL writes, fsync and striped checkpoints dominate; same wire path as mem-large",
		shards: 1, n: 1 << 14, durable: true, fsync: "always", ckptEvery: "1s",
		closedShare: 0.35, openLoShare: 0.15, openHiShare: 0.15, recoverShare: 0.35,
		openLo: 2000, openHi: 4000,
		warmOps: 400, checkEvery: 4096, crashK: 1 << 10, budgetLo: 0.35, budgetHi: 0.60,
	},
	{
		name:   "cluster",
		why:    "3 shards behind the d=2 router, fsync interval, n=2^14 each: probe fan-out, pick and frame cost dominate at 3 round trips per batch-1 phase",
		shards: 3, n: 1 << 14, durable: true, fsync: "interval",
		closedShare: 0.35, openLoShare: 0.15, openHiShare: 0.15, recoverShare: 0.35,
		openLo: 1400, openHi: 2800,
		warmOps: 400, checkEvery: 4096, crashK: 1 << 10, budgetLo: 0.35, budgetHi: 0.60,
	},
	{
		name:   "restart-recover",
		why:    "kill -9 cycles from a generated directory (n=2^15, checkpoint + 1M WAL records ending in a crash of n/4 balls): checkpoint load, WAL replay, batched drive and detector; the wire does almost nothing",
		shards: 1, n: 1 << 15, durable: true, fsync: "interval",
		closedShare: 0.16, openLoShare: 0.12, openHiShare: 0.12, recoverShare: 0.60,
		openLo: 2000, openHi: 4000,
		warmOps: 200, checkEvery: 4096,
		fixtureRecords: 1_000_000, crashK: 1 << 13, budgetLo: 0.45, budgetHi: 0.80,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
