# Standard entry points for the dynalloc reproduction.

GO ?= go

.PHONY: all build vet test race race-all alloc-budget bench-harness bench bench-json bench-check profile experiments experiments-full serve-drill recovery-drill failover-drill chaos-drill cluster-drill explore explore-full cover loc loc-check clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/core/ ./internal/tvest/ ./internal/metrics/ ./internal/rules/ ./internal/serve/ ./internal/replica/ ./internal/wal/ ./internal/checkpoint/

# The full sweep CI runs on one matrix leg.
race-all:
	$(GO) test -race ./...

# Allocation budgets: AllocsPerRun gates pinning the admission lane at
# 0 allocs/pass — Batcher passes of 64 and of one, Lane.Admit(1),
# Lane.Admit(16) and Lane.Free — and its durable form (Batcher pass and
# Lane.Admit(16) through a journal) at a fixed ceiling under SyncWriter
# and at 0 with the writer goroutine running, FillBalanced at 0 per
# seeding, and a fixed byte ceiling on WAL replay, whose chunk pool
# holds it whatever the segments' size and count. No -race: the
# budgets skip themselves under race instrumentation, which allocates.
# Same leg as the alloc-budget CI job.
alloc-budget:
	$(GO) test ./internal/serve -run AllocBudget -count=1 -v

# The end-to-end benchmark (benchmark/, its own module) is frozen and
# compiles against this tree: a renamed or re-typed name from the list
# in the header of benchmark/layers.go breaks it. Vet it and run its
# short tests, so that shows here and in CI, not in an acceptance run.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test -short .

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf snapshot of the fixed workload suite
# (BENCH_<date>.json; see docs/OBSERVABILITY.md for the schema).
bench-json: build
	$(GO) run ./cmd/bench -quick

# Gate the current tree against the checked-in baseline, like CI does.
bench-check: build
	$(GO) run ./cmd/bench -quick -out BENCH_head.json
	$(GO) run ./cmd/bench -compare BENCH_baseline.json BENCH_head.json -threshold 25
	$(GO) test ./internal/serve -run 'TestStoreReadsScaleSublinearly|TestSeedingCostsAboutAPageTouch|TestJournaledDriveWithinFactorOfBare|TestEngineWorkersDoNotSlowTheDrive' -count=1 -v
	$(GO) test ./cmd/dynallocd -run TestFirstReplyWithinASysmonTick -count=1 -v

# CPU/heap profiles plus a metrics snapshot of a representative
# experiment pass. Override EXP to profile a different experiment.
EXP ?= E3
profile: build
	$(GO) run ./cmd/recoverysim -exp=$(EXP) -full -cpuprofile=cpu.out -memprofile=heap.out -metrics=metrics.json
	@echo "inspect with: go tool pprof cpu.out  (or heap.out); metrics in metrics.json"

# Crash/recover drill on the live service (docs/SERVING.md).
serve-drill: build
	$(GO) run ./cmd/dynallocd -drive -n 65536 -d 2 -crash 4096 -addr ""

# Restart-recovery drill: kill -9 a durable daemon, restart, verify the
# state survived and the detector re-fires (docs/SERVING.md).
recovery-drill: build
	./scripts/recovery_drill.sh

# Failover drill: kill -9 a streaming primary, promote its hot standby
# via POST /promote, verify the state transferred bit for bit and the
# detector re-fires within 8x the Theorem 1 budget
# (docs/REPLICATION.md). Same flow as the failover-drill CI job.
failover-drill: build
	./scripts/failover_drill.sh

# Multi-node drill: 3 durable shards behind dynrouter — crash a shard
# over dgram (scripts/dgramc), kill -9 a shard mid-traffic (zero client errors, d-1
# probing), restart with WAL restore, cluster detector re-fires
# (docs/CLUSTER.md). Same flow as the cluster-drill CI job.
cluster-drill: build
	./scripts/cluster_drill.sh

# Chaos drill: 60 seconds of Poisson catastrophes against a durable
# daemon, gated on the episode ledger — >=3 completed recoveries, each
# within 8x the Theorem 1 budget (docs/CHAOS.md). Same gate as CI.
CHAOS_WAL ?= $(shell mktemp -d)/wal
chaos-drill:
	$(GO) build -o /tmp/dynallocd-chaos ./cmd/dynallocd
	mkdir -p $(CHAOS_WAL)
	timeout --preserve-status -s INT 60 \
	  /tmp/dynallocd-chaos -chaos -chaos-rate 2 -drive \
	  -n 16384 -d 2 -addr "" -max-steps 1000000000 \
	  -wal-dir $(CHAOS_WAL) -fsync interval -checkpoint-every 2s \
	  -chaos-min-episodes 3 -chaos-budget-mult 8

# Crash-schedule exploration: simulated power cuts against the
# durability stack, with one-line repros on failure (docs/TESTING.md).
explore:
	$(GO) test ./internal/simfs/explore -run TestExplore -short -v

explore-full:
	$(GO) test ./internal/simfs/explore -run TestExplore -v

# Quick-scale pass over every experiment table.
experiments: build
	$(GO) run ./cmd/recoverysim -exp=all

# The paper-scale sweeps recorded in EXPERIMENTS.md (several minutes).
experiments-full: build
	$(GO) run ./cmd/recoverysim -exp=all -full -seed 1998

cover:
	$(GO) test -cover ./internal/...

# Non-test Go lines per serving-stack package: the number whose delta
# every PR reports in CHANGES.md (ROADMAP aim 2).
loc:
	./scripts/loc.sh

# The ledger as a ratchet: fail when the total exceeds scripts/loc.max,
# the figure the last PR that moved it committed. Same check as CI.
loc-check:
	@total="$$(./scripts/loc.sh | awk '$$2 == "total" {print $$1}')"; max="$$(cat scripts/loc.max)"; \
	echo "serving-stack non-test lines: $$total (ceiling $$max)"; test "$$total" -le "$$max"

clean:
	$(GO) clean ./...
