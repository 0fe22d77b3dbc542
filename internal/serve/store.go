// Package serve turns the paper's dynamic allocation processes into a
// long-running, thread-safe service: a sharded bin store that admits and
// releases balls concurrently, admission policies that realize ABKU[d],
// ADAP(x) and the (1+beta)-choice rule against live (un-normalized) bin
// loads, the paper's two departure streams (Scenario A and Scenario B),
// an online recovery detector that watches the store converge back to
// its typical state, and a traffic-driving engine.
//
// The offline packages (process, core, markov) study the same dynamics
// as Markov chains on normalized load vectors; this package is the
// online counterpart. The bridge between the two worlds is
// Store.Snapshot, which produces a loadvec.Vector so every existing
// analysis primitive (Gap, Delta, fluid baselines, theorem bounds)
// applies to the live system unchanged.
//
// Concurrency model: per-bin loads live in a flat array of atomics, so
// the admission path probes without taking any lock. Mutations go
// through striped (power-of-two sharded) locks; each shard additionally
// maintains an atomic ball total and an index of its bins (index.go),
// which give the Scenario A departure stream a weighted sample (pick a
// shard by its total, then descend the shard's sums to a bin) without
// a global lock, and give LoadSummary and the detector the maximum
// load and the load histogram without reading the bins — and, like
// every reader in this package, without a lock. Single-worker runs
// driven from one rng stream are fully deterministic; see Engine.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"dynalloc/internal/loadvec"
	"dynalloc/internal/rng"
)

// ErrEmpty is returned by the departure streams when the store holds no
// balls at the moment of the draw.
var ErrEmpty = errors.New("serve: store is empty")

// ErrEmptyBin is returned by FreeBin when the requested bin holds no
// ball (a process never removes from an empty bin).
var ErrEmptyBin = errors.New("serve: bin is empty")

// ErrOverflow is returned by Crash when the injection would take the
// bin's load past math.MaxInt32, the largest load a bin can hold.
var ErrOverflow = errors.New("serve: crash overflows the bin's int32 load")

// shard is one lock stripe of the store. The mutex guards all mutations
// of the bins in [lo, hi); total mirrors the ball count of those bins
// and is additionally readable lock-free (atomic) so Scenario A shard
// selection does not serialize on the stripe locks. allocs/frees count
// the stripe's completed admissions/departures: they are bumped under
// the stripe lock alongside the global counters, so a striped
// checkpoint reading them under each lock gets an exact per-section
// counter cut without stopping the world (only the SUM over stripes is
// persisted, which is why Restore may rebase the whole total onto one
// stripe). sum1 through atLeast are the stripe's index (see index.go). The pad
// rounds the struct to whole cache lines, so adjacent shards share none.
type shard struct {
	mu     sync.Mutex
	total  atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
	lo     int
	hi     int

	sum1    []int64                      // balls per run of 64 bins; guarded by mu
	sum2    []int64                      // balls per run of 64 sum1 entries; guarded by mu
	sparse  atomic.Pointer[sparseLevels] // bins on each load >= denseLevels
	max     atomic.Int32                 // largest load in [lo, hi)
	atLeast [denseLevels]atomic.Int32    // atLeast[l]: bins holding l balls or more
	_       [20]byte
}

// StoreHook observes committed store mutations. Implementations are
// called with the owning shard lock held — immediately after the
// mutation is applied and before the lock is released — so per-bin
// hook order exactly matches per-bin mutation order. Implementations
// must therefore be fast and must never call back into the store; the
// durability Journal, for example, only assigns sequence numbers and
// enqueues WAL records.
//
// Admissions are reported one run at a time: AdmitBatch hands each
// shard's group of a pass to OnAllocRun in one call, right after the
// whole group is applied (a pass of one ball is a run of one), so
// per-push overhead — in the Journal, one acquisition of its slab
// mutex and one seq range — is paid once per group. bins is scratch
// owned by the caller and must not be retained past the call.
type StoreHook interface {
	OnAllocRun(bins []int)
	OnFree(bin int)
	OnCrash(bin, k int)
}

// BatchStoreHook is StoreHook plus a per-ball OnAlloc the store never
// calls. The frozen benchmark harness is its only reason: it wraps the
// *Journal in a hook of this type and forwards all four methods.
type BatchStoreHook interface {
	StoreHook
	OnAlloc(bin int)
}

// Store is a concurrent bin store holding the live load vector of an
// allocation service with n bins. All methods are safe for concurrent
// use. Loads are int32; a single bin can therefore absorb ~2·10^9
// balls, far beyond any crash injection of interest.
type Store struct {
	n         int
	shardBits int // len(shards) == 1 << shardBits
	shardSize int
	loads     []atomic.Int32
	shards    []shard
	hook      StoreHook // set before traffic via SetHook; nil = one branch per mutation

	total    atomic.Int64 // balls currently stored
	nonEmpty atomic.Int64 // bins with load > 0
	allocs   atomic.Int64 // completed admissions (the service's step clock)
	frees    atomic.Int64 // completed Free* calls
}

// NewStore returns an empty store with n bins and an automatic shard
// count: the smallest power of two covering 2x GOMAXPROCS, clamped to
// [8, 256] and to at most n. Use NewStoreShards to pin the shard count
// (the Scenario A departure stream consumes randomness per shard
// geometry, so pinning it makes runs reproducible across machines).
func NewStore(n int) *Store {
	target := 2 * runtime.GOMAXPROCS(0)
	if target < 8 {
		target = 8
	}
	if target > 256 {
		target = 256
	}
	shards := ceilPow2(target)
	if shards > n {
		shards = ceilPow2(n)
	}
	return NewStoreShards(n, shards)
}

// NewStoreShards returns an empty store with n bins and exactly
// `shards` lock stripes. It panics unless n >= 1 and shards is a power
// of two in [1, 2^20].
func NewStoreShards(n, shards int) *Store {
	if n < 1 {
		panic("serve: store needs n >= 1")
	}
	if shards < 1 || shards > 1<<20 || shards&(shards-1) != 0 {
		panic(fmt.Sprintf("serve: shard count %d is not a power of two in [1, 2^20]", shards))
	}
	size := (n + shards - 1) / shards
	st := &Store{
		n:         n,
		shardBits: bits.TrailingZeros(uint(shards)),
		shardSize: size,
		loads:     make([]atomic.Int32, n),
		shards:    make([]shard, shards),
	}
	for i := range st.shards {
		lo := i * size
		hi := lo + size
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		st.shards[i].lo, st.shards[i].hi = lo, hi
	}
	st.initIndex()
	return st
}

func ceilPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// N returns the number of bins.
func (st *Store) N() int { return st.n }

// Shards returns the number of lock stripes.
func (st *Store) Shards() int { return len(st.shards) }

// Total returns the number of balls currently stored.
func (st *Store) Total() int64 { return st.total.Load() }

// NonEmpty returns the number of bins currently holding a ball.
func (st *Store) NonEmpty() int64 { return st.nonEmpty.Load() }

// Allocs returns the number of completed admissions since creation.
// This monotone counter is the service's step clock: in a closed-loop
// drive one phase performs exactly one admission, so recovery times
// measured in Allocs are directly comparable to the paper's phase
// counts.
func (st *Store) Allocs() int64 { return st.allocs.Load() }

// Frees returns the number of completed departures since creation.
func (st *Store) Frees() int64 { return st.frees.Load() }

// Load returns bin b's current load with one atomic read. This is the
// lock-free probe primitive of the admission path; the value may be
// stale by the time the caller acts on it, which is exactly the
// semantics a d-choice balancer has in any distributed deployment.
func (st *Store) Load(b int) int { return int(st.loads[b].Load()) }

func (st *Store) shardOf(b int) *shard { return &st.shards[b/st.shardSize] }

// SetHook installs (or, with nil, removes) the mutation hook. Not
// synchronized: call it before traffic starts, or after every worker
// has quiesced — boot-time restore wiring and shutdown are the two
// intended call sites.
func (st *Store) SetHook(h StoreHook) { st.hook = h }

// admitLocked adds one ball to bin b. Caller holds the shard lock and
// reports the run to the hook (OnAllocRun) before releasing it.
func (st *Store) admitLocked(sh *shard, b int) int32 {
	l := st.loads[b].Add(1)
	sh.reindex(b, l-1, l)
	if l == 1 {
		st.nonEmpty.Add(1)
	}
	sh.total.Add(1)
	sh.allocs.Add(1)
	st.total.Add(1)
	st.allocs.Add(1)
	return l
}

// freeLocked removes one ball from bin b. Caller holds the shard lock
// and has verified the bin is nonempty.
func (st *Store) freeLocked(sh *shard, b int) int32 {
	l := st.loads[b].Add(-1)
	sh.reindex(b, l+1, l)
	if l == 0 {
		st.nonEmpty.Add(-1)
	}
	sh.total.Add(-1)
	sh.frees.Add(1)
	st.total.Add(-1)
	st.frees.Add(1)
	if st.hook != nil {
		st.hook.OnFree(b)
	}
	return l
}

// AdmitScratch is the reusable per-caller state of Store.AdmitBatch:
// the per-shard chain heads/tails, the entry links, the list of
// touched shards, and the shard-grouped apply order of the last batch.
// The zero value is ready to use; the slices grow to the store's shard
// count and the largest batch seen, after which AdmitBatch performs no
// heap allocation. A scratch is single-caller state — never share one
// between concurrent AdmitBatch calls.
type AdmitScratch struct {
	head    []int32 // per touched shard slot: 1-based index of its first entry
	tail    []int32 // per touched shard slot: 1-based index of its last entry
	next    []int32 // per entry: 1-based index of the next entry in its shard
	touched []int32 // shard indices hit by the batch, in first-touch order
	order   []int32 // entry indices in the order their admissions were applied
	run     []int   // current shard's bins, handed to StoreHook.OnAllocRun
}

// Order returns the entry indices of the most recent AdmitBatch in the
// order their admissions were applied: grouped by shard (first-touch
// order), stable within a shard. Because the Journal assigns sequence
// numbers under the shard lock at apply time, this is exactly WAL seq
// order — which is what the crash-schedule explorer needs to keep its
// reference history aligned with what a power cut can tear. The slice
// is valid until the next AdmitBatch call with this scratch.
func (sc *AdmitScratch) Order() []int32 { return sc.order }

// AdmitBatch admits one ball into bins[i] for every i — the store's
// only admission path; a single admission is a batch of one. It takes
// one striped-lock acquisition per *touched shard* per batch: entries
// are grouped by shard and applied shard by shard in first-touch order,
// stable within a shard. Entries of different shards may commit out of
// entry order, which is invisible to any observer because single-ball
// admissions to distinct bins commute (every interleaving reaches the
// same state, and concurrent readers could see any of them already).
// Use sc.Order() when the true apply order matters.
//
// If loads is non-nil it must hold at least len(bins) entries;
// loads[i] receives bin bins[i]'s load immediately after its
// admission. AdmitBatch panics — before mutating anything — if any bin
// is out of range.
func (st *Store) AdmitBatch(bins []int, loads []int32, sc *AdmitScratch) {
	n := len(bins)
	if n == 0 {
		return
	}
	for _, b := range bins {
		if b < 0 || b >= st.n {
			panic(fmt.Sprintf("serve: AdmitBatch bin %d out of range [0,%d)", b, st.n))
		}
	}
	if len(sc.head) < len(st.shards) {
		sc.head = make([]int32, len(st.shards))
		sc.tail = make([]int32, len(st.shards))
	}
	if cap(sc.next) < n {
		sc.next = make([]int32, n)
	}
	sc.next = sc.next[:n]
	sc.touched = sc.touched[:0]
	sc.order = sc.order[:0]

	// Group entries into per-shard FIFO chains (1-based links; 0 = nil).
	for i, b := range bins {
		si := int32(b / st.shardSize)
		sc.next[i] = 0
		if sc.head[si] == 0 {
			sc.head[si] = int32(i + 1)
			sc.touched = append(sc.touched, si)
		} else {
			sc.next[sc.tail[si]-1] = int32(i + 1)
		}
		sc.tail[si] = int32(i + 1)
	}

	hook := st.hook
	for _, si := range sc.touched {
		sh := &st.shards[si]
		sh.mu.Lock()
		sc.run = sc.run[:0]
		for e := sc.head[si]; e != 0; e = sc.next[e-1] {
			i := int(e - 1)
			l := st.admitLocked(sh, bins[i])
			if loads != nil {
				loads[i] = l
			}
			sc.order = append(sc.order, int32(i))
			if hook != nil {
				sc.run = append(sc.run, bins[i])
			}
		}
		if hook != nil {
			hook.OnAllocRun(sc.run)
		}
		sh.mu.Unlock()
		sc.head[si], sc.tail[si] = 0, 0
	}
}

// FreeBin removes one ball from the specific bin b and returns its new
// load, or ErrEmptyBin if the bin holds no ball. It panics if b is out
// of range.
func (st *Store) FreeBin(b int) (int, error) {
	if b < 0 || b >= st.n {
		panic(fmt.Sprintf("serve: FreeBin bin %d out of range [0,%d)", b, st.n))
	}
	sh := st.shardOf(b)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st.loads[b].Load() == 0 {
		return 0, ErrEmptyBin
	}
	return int(st.freeLocked(sh, b)), nil
}

// FreeBall implements the Scenario A departure stream: it removes a
// ball chosen uniformly at random among all stored balls (a bin is hit
// with probability proportional to its load) and returns the bin it
// was taken from.
//
// One uniform variate in [0, Total()) selects a shard by walking the
// atomic shard totals, then the residue selects a bin inside the
// (locked) shard: the bin holding the residue-th ball in bin order,
// found by descending the shard's sum index (shard.locate). With
// quiescent writers this is an exact weighted sample; under concurrent
// churn the totals can drift during the walk, in which case the draw
// is retried (and, within a confirmed shard, the residue is clamped — a
// bias of at most one ball's weight per racing mutation).
func (st *Store) FreeBall(r *rng.RNG) (int, error) {
	for attempt := 0; attempt < 64; attempt++ {
		total := st.total.Load()
		if total <= 0 {
			return -1, ErrEmpty
		}
		target := int64(r.Uint64n(uint64(total)))
		for si := range st.shards {
			sh := &st.shards[si]
			t := sh.total.Load()
			if target >= t {
				target -= t
				continue
			}
			sh.mu.Lock()
			t = sh.total.Load() // stable now: all writers take this lock
			if t == 0 {
				sh.mu.Unlock()
				break // drifted empty under us; redraw
			}
			if target >= t {
				target = t - 1
			}
			b := sh.locate(st.loads, target)
			st.freeLocked(sh, b)
			sh.mu.Unlock()
			return b, nil
		}
	}
	// Pathological churn: fall back to the first ball found under locks.
	for si := range st.shards {
		sh := &st.shards[si]
		sh.mu.Lock()
		if sh.total.Load() > 0 {
			b := sh.locate(st.loads, 0)
			st.freeLocked(sh, b)
			sh.mu.Unlock()
			return b, nil
		}
		sh.mu.Unlock()
	}
	return -1, ErrEmpty
}

// FreeNonEmpty implements the Scenario B departure stream: it removes
// one ball from a nonempty bin chosen uniformly at random among the
// nonempty bins, and returns that bin. The draw is rejection sampling
// over uniform bins (expected n/NonEmpty() iterations, at most 2
// whenever at least half the bins are loaded); after 4n+64 consecutive
// rejections it falls back to a linear scan over all bins, which keeps
// the call bounded when racing frees empty the store.
func (st *Store) FreeNonEmpty(r *rng.RNG) (int, error) {
	maxRejects := 4*st.n + 64
	for attempt := 0; attempt <= maxRejects; attempt++ {
		if st.total.Load() <= 0 {
			return -1, ErrEmpty
		}
		b := r.Intn(st.n)
		if st.loads[b].Load() == 0 {
			continue
		}
		sh := st.shardOf(b)
		sh.mu.Lock()
		if st.loads[b].Load() > 0 {
			st.freeLocked(sh, b)
			sh.mu.Unlock()
			return b, nil
		}
		sh.mu.Unlock()
	}
	for off := 0; off < st.n; off++ {
		b := off
		if st.loads[b].Load() == 0 {
			continue
		}
		sh := st.shardOf(b)
		sh.mu.Lock()
		if st.loads[b].Load() > 0 {
			st.freeLocked(sh, b)
			sh.mu.Unlock()
			return b, nil
		}
		sh.mu.Unlock()
	}
	return -1, ErrEmpty
}

// Crash dumps k extra balls into bin b at once — the fault injector
// that manufactures the adversarial "all the mass in one place" states
// of the paper's introduction. It returns the bin's new load, or the
// unchanged load and ErrOverflow when the bin cannot hold k more (the
// check runs under the stripe lock, so nothing is half-applied). Crash
// counts neither as admissions nor as departures, so the step clock
// (Allocs) measures recovery work only.
func (st *Store) Crash(b, k int) (int, error) {
	if b < 0 || b >= st.n {
		panic(fmt.Sprintf("serve: Crash bin %d out of range [0,%d)", b, st.n))
	}
	if k < 0 {
		panic("serve: Crash needs k >= 0")
	}
	if k == 0 {
		return st.Load(b), nil
	}
	sh := st.shardOf(b)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := st.loads[b].Load()
	if int64(k) > math.MaxInt32-int64(old) {
		return int(old), ErrOverflow
	}
	l := st.loads[b].Add(int32(k))
	sh.reindex(b, old, l)
	if old == 0 {
		st.nonEmpty.Add(1)
	}
	sh.total.Add(int64(k))
	st.total.Add(int64(k))
	if st.hook != nil {
		st.hook.OnCrash(b, k)
	}
	return int(l), nil
}

// FillBalanced seeds the store with the most balanced state of Omega_m:
// every bin gets floor(m/n) balls and the first m mod n bins one more.
// Intended for initialization; it takes each shard lock once — the
// hook sees one OnCrash per seeded bin, in bin order, as n Crash calls
// would show it, but the shard's index is built and its counters are
// added once — and is safe (though pointless) to race with traffic.
// Seeding counts as neither admissions nor departures.
func (st *Store) FillBalanced(m int) {
	if m < 0 {
		panic("serve: FillBalanced needs m >= 0")
	}
	q, rem := m/st.n, m%st.n
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		var added, filled int64
		for b := sh.lo; b < sh.hi; b++ {
			add := q
			if b < rem {
				add++
			}
			if add == 0 {
				break // bins past rem get q == 0, here and in every later shard
			}
			if st.loads[b].Add(int32(add)) == int32(add) {
				filled++
			}
			added += int64(add)
			if st.hook != nil {
				st.hook.OnCrash(b, add)
			}
		}
		if added > 0 {
			sh.rebuild(st.loads)
			sh.total.Add(added)
			st.total.Add(added)
			st.nonEmpty.Add(filled)
		}
		sh.mu.Unlock()
	}
}

// Snapshot reads every bin with one atomic load apiece — no locks — and
// returns the normalized load vector, the exact object the offline
// analysis code (Gap, Delta, fluid baselines, theorem bounds) operates
// on. Under concurrent traffic the snapshot is per-bin consistent but
// not a global atomic cut: it may show a state the store never passed
// through exactly, off by the handful of operations in flight. For the
// recovery detector this is harmless — the distance metrics move by
// O(1) per operation.
func (st *Store) Snapshot() loadvec.Vector { return loadvec.FromLoads(st.LoadsCopy()) }

// LoadsCopy returns the raw (bin-indexed, unsorted) loads, read
// lock-free like Snapshot. Useful for tests and for callers that need
// bin identities rather than the normalized vector.
func (st *Store) LoadsCopy() []int {
	out := make([]int, st.n)
	for b := range out {
		out[b] = int(st.loads[b].Load())
	}
	return out
}

// LoadSummary is the compact load digest a cluster router probes for:
// everything the cluster-level d-choice rule and the cluster recovery
// detector need from a shard, without the Snapshot() copy + sort.
type LoadSummary struct {
	N        int   `json:"n"`
	Total    int64 `json:"total"`
	MaxLoad  int   `json:"max_load"`
	NonEmpty int64 `json:"non_empty"`
	Allocs   int64 `json:"allocs"`
	Frees    int64 `json:"frees"`
}

// LoadSummary reads the store's load digest lock-free and without
// touching the bins: the counters are single atomic loads and MaxLoad
// is the largest of the Shards() per-stripe maxima the index keeps.
// Under concurrent traffic the digest has Snapshot's consistency:
// per-field exact counters, a max that can be off by the operations in
// flight during the read. This is the PROBE hot path of the dgram
// protocol, so it must not allocate.
func (st *Store) LoadSummary() LoadSummary {
	var top int32
	for i := range st.shards {
		top = max(top, st.shards[i].max.Load())
	}
	return LoadSummary{
		N:        st.n,
		Total:    st.total.Load(),
		MaxLoad:  int(top),
		NonEmpty: st.nonEmpty.Load(),
		Allocs:   st.allocs.Load(),
		Frees:    st.frees.Load(),
	}
}

// Stats is a cheap O(1) summary of the store's counters.
type Stats struct {
	N        int   `json:"n"`
	Total    int64 `json:"total"`
	NonEmpty int64 `json:"non_empty"`
	Allocs   int64 `json:"allocs"`
	Frees    int64 `json:"frees"`
}

// lockAll acquires every shard lock in index order, stopping the world
// for an exact checkpoint cut: with all stripes held no mutation (and
// therefore no journal push) can be in flight.
func (st *Store) lockAll() {
	for i := range st.shards {
		st.shards[i].mu.Lock()
	}
}

// unlockAll releases every shard lock (reverse order of lockAll).
func (st *Store) unlockAll() {
	for i := len(st.shards) - 1; i >= 0; i-- {
		st.shards[i].mu.Unlock()
	}
}

// Restore overwrites the store's entire state with the given per-bin
// loads and counter values — the boot-time half of checkpoint
// recovery. It is NOT safe to race with traffic; call it before any
// worker or handler touches the store. Restoring counts as neither
// admissions nor departures beyond the restored counter values.
func (st *Store) Restore(loads []int32, allocs, frees int64) error {
	if len(loads) != st.n {
		return fmt.Errorf("serve: restore of %d bins into a store of %d", len(loads), st.n)
	}
	for b, l := range loads {
		if l < 0 {
			return fmt.Errorf("serve: restore bin %d has negative load %d", b, l)
		}
	}
	for b, l := range loads {
		st.loads[b].Store(l)
	}
	var total, nonEmpty int64
	for i := range st.shards {
		sh := &st.shards[i]
		t, ne := sh.rebuild(st.loads)
		sh.total.Store(t)
		sh.allocs.Store(0)
		sh.frees.Store(0)
		total += t
		nonEmpty += ne
	}
	// The restored totals cannot be attributed to individual stripes
	// (the snapshot persists only the sums), so they rebase onto stripe
	// 0: per-stripe counts stop being meaningful, but the sum over
	// stripes — the only thing a striped checkpoint persists — stays
	// exact as subsequent mutations bump their own stripes.
	st.shards[0].allocs.Store(allocs)
	st.shards[0].frees.Store(frees)
	st.total.Store(total)
	st.nonEmpty.Store(nonEmpty)
	st.allocs.Store(allocs)
	st.frees.Store(frees)
	return nil
}

// Stats returns the current counter summary without touching the bins.
func (st *Store) Stats() Stats {
	return Stats{
		N:        st.n,
		Total:    st.total.Load(),
		NonEmpty: st.nonEmpty.Load(),
		Allocs:   st.allocs.Load(),
		Frees:    st.frees.Load(),
	}
}
