package main

import (
	"context"
	"net"
	"os"
	"sync"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/core"
	"dynalloc/internal/edgeorient"
	"dynalloc/internal/loadvec"
	"dynalloc/internal/par"
	"dynalloc/internal/process"
	"dynalloc/internal/replica"
	"dynalloc/internal/rng"
	"dynalloc/internal/router"
	"dynalloc/internal/rules"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// workload is one fixed benchmark scenario. Every pass over a workload
// does identical work (same seed, same trial count), so ns/op is
// comparable across runs and machines of the same class.
type workload struct {
	name   string
	trials int // independent trials per pass (the unit behind trials/sec)
	run    func(seed uint64, trials int)
}

// suiteWorkloads returns the fixed benchmark suite: the paper's two
// removal scenarios plus edge orientation, each at two scales (except
// Scenario B, whose quadratic coalescence keeps the second scale out of
// smoke-test range). Quick mode shrinks trial counts, not the systems,
// so the measured per-trial shape stays representative.
func suiteWorkloads(quick bool) []workload {
	pick := func(q, f int) int {
		if quick {
			return q
		}
		return f
	}
	scenarioA := func(n int) func(uint64, int) {
		return func(seed uint64, trials int) {
			m := n
			core.EstimateCoalescence(func(r *rng.RNG) core.Coupling {
				v, u := loadvec.ExtremePair(n, m)
				return core.NewCoupledAlloc(process.ScenarioA, rules.NewABKU(2), v, u, r)
			}, seed, trials, int64(400)*int64(m)*int64(m))
		}
	}
	scenarioB := func(n int) func(uint64, int) {
		return func(seed uint64, trials int) {
			m := n
			core.EstimateCoalescence(func(r *rng.RNG) core.Coupling {
				v, u := loadvec.ExtremePair(n, m)
				return core.NewCoupledAlloc(process.ScenarioB, rules.NewABKU(2), v, u, r)
			}, seed, trials, int64(2000)*int64(m)*int64(m))
		}
	}
	edgeRecovery := func(n int) func(uint64, int) {
		return func(seed uint64, trials int) {
			// Unfairness recovery from the adversarial state, as in E5:
			// lazy chain until the Theta(log log n) typical band.
			par.ForEach(trials, 0, func(trial int) {
				r := rng.NewStream(seed, uint64(trial))
				s := edgeorient.AdversarialState(n, n/2)
				maxSteps := int64(n) * int64(n) * int64(n) * 50
				for t := int64(0); t < maxSteps && s.Unfairness() > 3; t++ {
					s.Step(r)
				}
			})
		}
	}
	serveAdmit := func(n, workers int) func(uint64, int) {
		return func(seed uint64, trials int) {
			// Admission throughput of the live store: a closed-loop
			// Scenario A drive at load factor 1, `trials` phases total.
			// Shards are pinned so the measured contention is fixed
			// rather than GOMAXPROCS-dependent.
			st := serve.NewStoreShards(n, 64)
			st.FillBalanced(n)
			eng := serve.NewEngine(serve.Config{
				Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA,
				Workers: workers, Seed: seed, MaxSteps: int64(trials),
			})
			eng.Run(context.Background())
		}
	}
	serveDurableAdmit := func(n, workers int) func(uint64, int) {
		return func(seed uint64, trials int) {
			// serve/admit with durability at its strictest (FsyncAlways):
			// every admission's record must reach a synced WAL. The
			// journal's group commit is what keeps this from collapsing
			// to one fsync per admission — the batched writer drains the
			// queue into multi-record AppendBatch calls, so one fsync
			// covers a whole batch.
			dir, err := os.MkdirTemp("", "bench-durable-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			st := serve.NewStoreShards(n, 64)
			st.FillBalanced(n)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			j := serve.NewJournal(st, l, 0, serve.JournalOptions{Buffer: 4096})
			eng := serve.NewEngine(serve.Config{
				Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA,
				Workers: workers, Seed: seed, MaxSteps: int64(trials),
			})
			eng.Run(context.Background())
			j.Drain()
			if err := j.Err(); err != nil {
				panic(err)
			}
			if err := j.Close(); err != nil {
				panic(err)
			}
		}
	}
	serveAdmitBatch := func(n, batch int) func(uint64, int) {
		// The batched admission lane, steady state: one Batcher driving
		// closed-loop Scenario A super-phases of `batch` phases in the
		// calling goroutine. Store, batcher and rng are created once and
		// reused across passes (the persistent-fleet pattern the router
		// workloads use), so allocs/op is the lane's true hot-path count:
		// 0. That zero is load-bearing — the regenerated baseline pins it
		// and cmd/bench -compare fails any 0 -> >0 allocs change (see
		// compare.go); the TestAllocBudget tier gates the same invariant
		// per pass.
		var (
			once sync.Once
			bt   *serve.Batcher
			r    *rng.RNG
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				st := serve.NewStoreShards(n, 64)
				st.FillBalanced(n)
				bt = serve.NewBatcher(st, serve.NewABKUPolicy(2), process.ScenarioA, batch)
				r = rng.NewStream(seed, 0)
			})
			for done := 0; done < trials; {
				k, err := bt.Pass(r, trials-done)
				if err != nil {
					panic(err)
				}
				done += k
			}
		}
	}
	serveDurableAdmitBatch := func(n, workers, batch int) func(uint64, int) {
		return func(seed uint64, trials int) {
			// serve/durable-admit on the batch lane: engine workers drive
			// Batch-sized super-phases whose admissions reach the journal
			// through the run-based push (one seq reservation and one
			// close-guard per shard group) and then the group-commit
			// writer. The delta against serve/durable-admit is what
			// batching buys end-to-end under FsyncAlways.
			dir, err := os.MkdirTemp("", "bench-durable-batch-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			st := serve.NewStoreShards(n, 64)
			st.FillBalanced(n)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncAlways, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			j := serve.NewJournal(st, l, 0, serve.JournalOptions{Buffer: 4096})
			eng := serve.NewEngine(serve.Config{
				Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA,
				Workers: workers, Seed: seed, MaxSteps: int64(trials), Batch: batch,
			})
			eng.Run(context.Background())
			j.Drain()
			if err := j.Err(); err != nil {
				panic(err)
			}
			if err := j.Close(); err != nil {
				panic(err)
			}
		}
	}
	walAppend := func() func(uint64, int) {
		return func(seed uint64, trials int) {
			// Sequential append throughput of the durability log: `trials`
			// records through the buffered writer with rotation in play,
			// fsync off so the number is the encoding + buffering cost.
			dir, err := os.MkdirTemp("", "bench-wal-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			r := rng.New(seed)
			for i := 0; i < trials; i++ {
				rec := wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(1 << 16)), K: 1, Seq: uint64(i + 1)}
				if err := l.Append(rec); err != nil {
					panic(err)
				}
			}
			if err := l.Close(); err != nil {
				panic(err)
			}
		}
	}
	walAppendBatch := func(batch int) func(uint64, int) {
		return func(seed uint64, trials int) {
			// The same fixed record stream as wal/append, handed to the
			// log in `batch`-record groups: the delta against wal/append
			// is the per-record overhead group commit amortizes (one
			// lock, one encode pass, one buffered write per batch).
			dir, err := os.MkdirTemp("", "bench-walb-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			r := rng.New(seed)
			recs := make([]wal.Record, 0, batch)
			for i := 0; i < trials; {
				recs = recs[:0]
				for len(recs) < batch && i < trials {
					i++
					recs = append(recs, wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(1 << 16)), K: 1, Seq: uint64(i)})
				}
				if err := l.AppendBatch(recs); err != nil {
					panic(err)
				}
			}
			if err := l.Close(); err != nil {
				panic(err)
			}
		}
	}
	walReplay := func() func(uint64, int) {
		return func(seed uint64, trials int) {
			// Replay (restore) throughput: decode + CRC-check + apply
			// `trials` records into a live store, the boot-time cost path.
			dir, err := os.MkdirTemp("", "bench-replay-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			const n = 1 << 16
			st := serve.NewStoreShards(n, 64)
			l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			r := rng.New(seed)
			for i := 0; i < trials; i++ {
				rec := wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(n)), K: 1, Seq: uint64(i + 1)}
				if err := l.Append(rec); err != nil {
					panic(err)
				}
			}
			if err := l.Close(); err != nil {
				panic(err)
			}
			if _, err := serve.RestoreFSOpts(st, vfs.OS, dir, serve.RestoreOptions{}); err != nil {
				panic(err)
			}
		}
	}
	walReplayParallel := func() func(uint64, int) {
		// Restore-only throughput: the WAL fixture is built once (the
		// persistent-fixture pattern the router workloads use) and every
		// pass replays it into a fresh store with the default worker
		// count. wal/replay above runs the same restore but also pays the
		// per-record appends that build its log every pass, so the ns/op
		// gap between the two rows is fixture construction, not replay.
		var (
			once sync.Once
			dir  string
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				var err error
				dir, err = os.MkdirTemp("", "bench-replay-par-*")
				if err != nil {
					panic(err)
				}
				l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
				if err != nil {
					panic(err)
				}
				r := rng.New(seed)
				recs := make([]wal.Record, 0, 512)
				for i := 0; i < trials; {
					recs = recs[:0]
					for len(recs) < cap(recs) && i < trials {
						i++
						recs = append(recs, wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(1 << 16)), K: 1, Seq: uint64(i)})
					}
					if err := l.AppendBatch(recs); err != nil {
						panic(err)
					}
				}
				if err := l.Close(); err != nil {
					panic(err)
				}
			})
			st := serve.NewStoreShards(1<<16, 64)
			if _, err := serve.RestoreFSOpts(st, vfs.OS, dir, serve.RestoreOptions{}); err != nil {
				panic(err)
			}
		}
	}
	serveRestore := func(n int) func(uint64, int) {
		// Cold-start restore end to end — newest checkpoint load, parallel
		// WAL-suffix replay, stale fence — into a fresh n-bin store. The
		// durable fixture (journaled traffic with a mid-stream striped
		// checkpoint) is built once; every pass is one full boot. The
		// regenerated baseline pins this workload's allocs/op too, so the
		// restore path can't quietly grow a per-record allocation.
		var (
			once sync.Once
			dir  string
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				var err error
				dir, err = os.MkdirTemp("", "bench-restore-*")
				if err != nil {
					panic(err)
				}
				st := serve.NewStoreShards(n, 64)
				l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
				if err != nil {
					panic(err)
				}
				j := serve.NewJournal(st, l, 0, serve.JournalOptions{Buffer: 4096})
				r := rng.New(seed)
				bin := make([]int, 1)
				for i := 0; i < trials; i++ {
					bin[0] = r.Intn(n)
					st.AdmitBatch(bin, nil)
					if i == trials/2 {
						// Mid-stream striped checkpoint: restore loads it and
						// replays only the suffix, like a real boot.
						if _, _, err := j.Checkpoint(); err != nil {
							panic(err)
						}
					}
				}
				if err := j.Close(); err != nil {
					panic(err)
				}
			})
			st := serve.NewStoreShards(n, 64)
			if _, err := serve.RestoreFSOpts(st, vfs.OS, dir, serve.RestoreOptions{}); err != nil {
				panic(err)
			}
		}
	}
	checkpointRoundTrip := func(n, stripes int) func(uint64, int) {
		// Sectioned-checkpoint codec throughput: one WriteFS + LoadLatestFS
		// of an n-bin striped snapshot per trial, on the simulated
		// filesystem so the number is encode + CRC + decode, not the disk.
		// The seq never changes, so the rename overwrites one file and the
		// directory never grows.
		var (
			once sync.Once
			fs   *simfs.FS
			snap checkpoint.Snapshot
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				fs = simfs.New()
				r := rng.New(seed)
				loads := make([]int32, n)
				for i := range loads {
					loads[i] = int32(r.Uint64n(8))
				}
				secs := make([]checkpoint.Section, stripes)
				per := (n + stripes - 1) / stripes
				for i := range secs {
					hi := (i + 1) * per
					if hi > n {
						hi = n
					}
					secs[i] = checkpoint.Section{Lo: i * per, Hi: hi, Watermark: 1000}
				}
				snap = checkpoint.Snapshot{Seq: 1000, Allocs: int64(n), Loads: loads, Sections: secs}
			})
			for i := 0; i < trials; i++ {
				if _, err := checkpoint.WriteFS(fs, "/ckpt", snap); err != nil {
					panic(err)
				}
				if _, _, err := checkpoint.LoadLatestFS(fs, "/ckpt"); err != nil {
					panic(err)
				}
			}
		}
	}
	replicaStream := func() func(uint64, int) {
		return func(seed uint64, trials int) {
			// Replication pipeline throughput: `trials` records through the
			// full ship path — tail reads off the primary's sealed
			// segments, frame encode/decode, the follower's local append,
			// and the warm-store apply. Fsync off on both sides so the
			// number is the pipeline cost, not the disk's.
			pdir, err := os.MkdirTemp("", "bench-rep-p-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(pdir)
			sdir, err := os.MkdirTemp("", "bench-rep-s-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(sdir)
			const n = 1 << 16
			l, err := wal.Open(wal.Options{Dir: pdir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20})
			if err != nil {
				panic(err)
			}
			r := rng.New(seed)
			recs := make([]wal.Record, 0, 512)
			for i := 0; i < trials; {
				recs = recs[:0]
				for len(recs) < cap(recs) && i < trials {
					i++
					recs = append(recs, wal.Record{Op: wal.OpAlloc, Bin: uint32(r.Intn(n)), K: 1, Seq: uint64(i)})
				}
				if err := l.AppendBatch(recs); err != nil {
					panic(err)
				}
			}
			if err := l.Close(); err != nil {
				panic(err)
			}
			sst := serve.NewStoreShards(n, 64)
			f, _, err := replica.NewFollower(replica.FollowerConfig{
				Store: sst, Dir: sdir, Fsync: wal.FsyncNever, SegmentBytes: 4 << 20,
			})
			if err != nil {
				panic(err)
			}
			sh := replica.NewShipper(replica.ShipperConfig{Dir: pdir, BatchRecords: 256}, 0)
			caught, err := sh.Pump(f.Deliver)
			if err != nil {
				panic(err)
			}
			if !caught {
				panic("replica/stream: ship did not catch up")
			}
			sh.Close()
			if err := f.Close(); err != nil {
				panic(err)
			}
		}
	}
	// startCluster boots `shards` in-process dgram shard servers on
	// loopback listeners plus a Router over them. Shared by the router
	// workloads; the fleet lives for the rest of the process (the bench
	// binary exits when the suite is done), so repeated passes measure
	// the steady state — persistent connections, warm scratch buffers —
	// not dial/setup cost.
	startCluster := func(nPerShard, shards, d int, seed uint64) *router.Router {
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			st := serve.NewStore(nPerShard)
			st.FillBalanced(nPerShard)
			srv := router.NewServer(router.ServerConfig{
				Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA,
				Seed: seed + uint64(i),
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			addrs[i] = ln.Addr().String()
			go srv.Serve(ln)
		}
		rt, err := router.New(router.Options{Shards: addrs, D: d})
		if err != nil {
			panic(err)
		}
		return rt
	}
	routerAdmit := func(nPerShard, shards, d, workers, batch int) func(uint64, int) {
		// Cluster-level admission throughput: `workers` sessions drive
		// d-choice admissions (probe d shards, admit at the least
		// loaded) over persistent loopback connections, pipelined
		// through the protocol's batch field in groups of `batch` — one
		// probe fan-out plus one ADMIT exchange per group, so the two
		// round trips amortize across the group. A trial is one admitted
		// ball. The fleet and the per-worker sessions are created once
		// and reused, so allocs/op divided by trials is the router's
		// per-admission hot-path allocation count. (The unbatched
		// per-ball round-trip cost is BenchmarkSessionAdmit in
		// internal/router; dgram/roundtrip below is the raw wire floor.)
		var (
			once sync.Once
			ses  []*router.Session
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				rt := startCluster(nPerShard, shards, d, seed)
				ses = make([]*router.Session, workers)
				for w := range ses {
					ses[w] = rt.NewSession()
				}
			})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				share := trials / workers
				if w == 0 {
					share += trials % workers
				}
				wg.Add(1)
				go func(w, share int) {
					defer wg.Done()
					r := rng.NewStream(seed, uint64(w))
					res := make([]router.AdmitResult, 0, batch)
					for done := 0; done < share; {
						k := batch
						if share-done < k {
							k = share - done
						}
						out, err := ses[w].AdmitBatch(r, k, res[:0])
						if err != nil {
							panic(err)
						}
						res = out
						done += k
					}
				}(w, share)
			}
			wg.Wait()
		}
	}
	dgramRoundTrip := func(nPerShard int) func(uint64, int) {
		// Raw protocol floor: one connection, `trials` PROBE/SUMMARY
		// round trips against a single shard server. The delta between
		// this and router/admit is the d-choice fan-out plus the admit
		// leg.
		var (
			once sync.Once
			ses  *router.Session
		)
		return func(seed uint64, trials int) {
			once.Do(func() {
				rt := startCluster(nPerShard, 1, 1, seed)
				ses = rt.NewSession()
			})
			for i := 0; i < trials; i++ {
				if _, err := ses.Probe(0); err != nil {
					panic(err)
				}
			}
		}
	}
	return []workload{
		{"scenarioA/coalescence/n=32", pick(8, 24), scenarioA(32)},
		{"scenarioA/coalescence/n=64", pick(6, 16), scenarioA(64)},
		{"scenarioB/coalescence/n=16", pick(6, 16), scenarioB(16)},
		{"edgeorient/recovery/n=16", pick(6, 16), edgeRecovery(16)},
		{"edgeorient/recovery/n=32", pick(4, 12), edgeRecovery(32)},
		{"serve/admit/n=1e4/w=8", pick(50_000, 500_000), serveAdmit(10_000, 8)},
		{"serve/admit/n=1e5/w=8", pick(50_000, 500_000), serveAdmit(100_000, 8)},
		{"serve/durable-admit/n=1e4/w=8", pick(10_000, 100_000), serveDurableAdmit(10_000, 8)},
		{"serve/admit-batch/n=1e4/b=64", pick(100_000, 1_000_000), serveAdmitBatch(10_000, 64)},
		{"serve/durable-admit-batch/n=1e4/w=8/b=64", pick(10_000, 100_000), serveDurableAdmitBatch(10_000, 8, 64)},
		{"wal/append", pick(100_000, 1_000_000), walAppend()},
		{"wal/append-batch/b=512", pick(100_000, 1_000_000), walAppendBatch(512)},
		{"wal/replay", pick(100_000, 1_000_000), walReplay()},
		{"wal/replay-parallel", pick(100_000, 1_000_000), walReplayParallel()},
		{"serve/restore/n=1e5", pick(100_000, 1_000_000), serveRestore(100_000)},
		{"checkpoint/roundtrip", pick(200, 1_000), checkpointRoundTrip(100_000, 64)},
		{"replica/stream", pick(100_000, 1_000_000), replicaStream()},
		{"router/admit/shards=3/w=8", pick(50_000, 200_000), routerAdmit(1024, 3, 2, 8, 16)},
		{"dgram/roundtrip", pick(20_000, 100_000), dgramRoundTrip(1024)},
	}
}
