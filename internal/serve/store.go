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
// admissions probe without a lock. Every mutation — an admission batch,
// a departure draw, a drive pass, a crash, a FreeBin — is one critical
// section under the store's one mutex, so the store moves as the
// paper's sequential chain does: its draws are exact, its admissions
// apply in entry order, and it publishes the store's counters with one
// atomic add each before the hook hears of it. The contiguous stripes
// that remain are the bin index (index.go): each stripe's ball total
// and sums give the Scenario A draw a weighted sample, and its atomic
// maximum and histogram give LoadSummary and the detector the maximum
// load and the histogram — lock-free, like every reader here: loads and
// the index are written per ball, so a reader sees a section's balls
// one by one and its counters at once. A drive from one rng stream is
// deterministic; see Engine.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"dynalloc/internal/loadvec"
	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// ErrEmpty is returned by the departure streams when the store holds no
// balls at the moment of the draw.
var ErrEmpty = errors.New("serve: store is empty")

// ErrEmptyBin is returned by FreeBin when the requested bin holds no
// ball (a process never removes from an empty bin).
var ErrEmptyBin = errors.New("serve: bin is empty")

// ErrOverflow is returned by Crash, AdmitBatch and Restore when the
// store would hold more than math.MaxInt32 balls. Bounding the sum of
// the loads bounds every bin's int32 load, so no bin can wrap.
var ErrOverflow = errors.New("serve: the store would hold more than math.MaxInt32 balls")

// shard is one stripe of the store's bin index: the bins in [lo, hi),
// the stripe's ball total and the sums, occupancy bits, maximum and
// histogram of index.go. The plain fields are written and read under
// the store's mutex; the atomics are read lock-free.
type shard struct {
	total int64
	lo    int
	hi    int

	sum1    []int64                      // balls per run of 64 bins
	sum2    []int64                      // balls per run of 64 sum1 entries
	occ     []uint64                     // bit i of word j: bin lo+64j+i holds a ball
	sparse  atomic.Pointer[sparseLevels] // bins on each load >= denseLevels
	max     atomic.Int32                 // largest load in [lo, hi)
	atLeast [denseLevels]atomic.Int32    // atLeast[l]: bins holding l balls or more
}

// StoreHook observes committed store mutations. It is called with the
// store's mutex held — after the mutation is applied and the counters
// published — so hook order is mutation order; it must be fast and
// never call back into the store (the Journal only draws seqs and
// enqueues WAL records). A critical section reports its departures
// first, one OnFree per ball in draw order (the Journal takes them as
// one run; see freeRunHook), then its admissions as one OnAllocRun in
// entry order, so the Journal's per-push overhead is paid once per
// batch. bins must not be retained past the call.
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

	mu sync.Mutex // guards every mutation, the shards' plain fields and the hook calls

	total    atomic.Int64 // balls currently stored
	nonEmpty atomic.Int64 // bins with load > 0
	allocs   atomic.Int64 // completed admissions (the service's step clock)
	frees    atomic.Int64 // completed Free* calls
}

// NewStore returns an empty store with n bins and 8 index stripes
// (fewer when n < 8). NewStoreShards pins another count; the stripe
// count changes no draw and no trajectory, only the index's shape.
func NewStore(n int) *Store { return NewStoreShards(n, min(8, ceilPow2(n))) }

// NewStoreShards returns an empty store with n bins and exactly
// `shards` index stripes. It panics unless n >= 1 and shards is a power
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
		st.shards[i].lo, st.shards[i].hi = min(i*size, n), min((i+1)*size, n)
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

// Shards returns the number of index stripes.
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

// tally is one critical section's movement of the store's counters,
// plain integers until settle publishes them — before the hook runs, so
// a push that blocks for room has already published.
type tally struct{ total, nonEmpty, allocs, frees int64 }

func (st *Store) settle(t *tally) {
	st.total.Add(t.total)
	st.nonEmpty.Add(t.nonEmpty)
	st.allocs.Add(t.allocs)
	st.frees.Add(t.frees)
}

// add puts one ball into bin b and returns the bin's new load. Caller
// holds the store's mutex; t takes the store-counter movement.
func (st *Store) add(b int, t *tally) int32 {
	sh := st.shardOf(b)
	l := st.loads[b].Add(1)
	sh.reindex(b, l-1, l)
	sh.total++
	t.total++
	t.allocs++
	if l == 1 {
		t.nonEmpty++
	}
	return l
}

// take removes one ball from the nonempty bin b; see add.
func (st *Store) take(b int, t *tally) int32 {
	sh := st.shardOf(b)
	l := st.loads[b].Add(-1)
	sh.reindex(b, l+1, l)
	sh.total--
	t.total--
	t.frees++
	if l == 0 {
		t.nonEmpty--
	}
	return l
}

// rejectTries bounds Scenario B's rejection sampling. All tries miss
// with probability (1 − NonEmpty/n)^rejectTries, below 10^-77 when half
// the bins are loaded; the fallback prices a nearly empty store.
const rejectTries = 256

// draw picks the bin of one departure inside a section, exactly as a
// quiescent store would, and returns false on an empty store. Scenario
// B takes a uniform nonempty bin: the first nonempty one of up to
// rejectTries uniform bins, else one variate in [0, nonempty) located
// through the stripes' nonempty counts and occupancy bits — uniform
// too, and bounded work whatever the occupancy. Scenario A takes a
// uniform ball: one variate in [0, total) picks the shard by the shard
// totals and the bin by the shard's sum index. The store counters plus
// t, the section's own movement, are exact: no one else can move them.
func (st *Store) draw(r *rng.RNG, sc process.Scenario, t *tally) (int, bool) {
	total := st.total.Load() + t.total
	if total <= 0 {
		return -1, false
	}
	if sc == process.ScenarioB {
		for range rejectTries {
			if b := r.Intn(st.n); st.loads[b].Load() > 0 {
				return b, true
			}
		}
		target := r.Intn(int(st.nonEmpty.Load() + t.nonEmpty))
		for si := range st.shards {
			sh := &st.shards[si]
			if c := int(sh.atLeast[1].Load()); target >= c {
				target -= c
				continue
			}
			return sh.nth(target), true
		}
	} else {
		target := int64(r.Uint64n(uint64(total)))
		for si := range st.shards {
			sh := &st.shards[si]
			if target < sh.total {
				return sh.locate(st.loads, target), true
			}
			target -= sh.total
		}
	}
	panic("serve: the shard counters disagree with the store's")
}

// drawFrees removes up to len(bins) balls by sc's departure stream
// inside a section, writing their bins to bins and, if loads is
// non-nil, the bins' new loads to loads. It returns how many it removed
// (fewer only when the store ran empty).
func (st *Store) drawFrees(r *rng.RNG, sc process.Scenario, bins []int, loads []int32, t *tally) int {
	for i := range bins {
		b, ok := st.draw(r, sc, t)
		if !ok {
			return i
		}
		l := st.take(b, t)
		bins[i] = b
		if loads != nil {
			loads[i] = l
		}
	}
	return len(bins)
}

// freeRunHook is a hook that takes a section's departures as one run:
// the Journal, for which that is the same records and seqs as one
// OnFree per ball (no other push can come between them) for one
// acquisition of its slab mutex.
type freeRunHook interface{ onFreeRun(bins []int) }

// release ends a section: it publishes t, reports the departures (in
// draw order) and then the admissions (one OnAllocRun, in entry order)
// to the hook, and unlocks the store.
func (st *Store) release(t *tally, freed, admitted []int) {
	st.settle(t)
	if h := st.hook; h != nil {
		if fr, ok := h.(freeRunHook); ok && len(freed) > 0 {
			fr.onFreeRun(freed)
		} else {
			for _, b := range freed {
				h.OnFree(b)
			}
		}
		if len(admitted) > 0 {
			h.OnAllocRun(admitted)
		}
	}
	st.mu.Unlock()
}

// AdmitBatch admits one ball into bins[i] for every i — the store's
// only admission path — in one critical section, in entry order, and
// hands the batch to the hook as one run. If loads is non-nil, loads[i]
// receives bins[i]'s load right after its admission. It returns
// ErrOverflow, with nothing applied, when the batch would take the
// store past math.MaxInt32 balls, and panics, before mutating anything,
// if a bin is out of range.
func (st *Store) AdmitBatch(bins []int, loads []int32) error {
	return st.admit(bins, loads, len(bins))
}

// admit is AdmitBatch refusing unless the store has room for need >=
// len(bins) more balls: a chunked request's whole remainder.
func (st *Store) admit(bins []int, loads []int32, need int) error {
	if len(bins) == 0 {
		return nil
	}
	for _, b := range bins {
		if b < 0 || b >= st.n {
			panic(fmt.Sprintf("serve: AdmitBatch bin %d out of range [0,%d)", b, st.n))
		}
	}
	var t tally
	st.mu.Lock()
	if st.total.Load()+int64(need) > math.MaxInt32 {
		st.mu.Unlock()
		return ErrOverflow
	}
	for i, b := range bins {
		l := st.add(b, &t)
		if loads != nil {
			loads[i] = l
		}
	}
	st.release(&t, nil, bins)
	return nil
}

// FreeBin removes one ball from the specific bin b and returns its new
// load, or ErrEmptyBin if the bin holds no ball. It panics if b is out
// of range.
func (st *Store) FreeBin(b int) (int, error) {
	if b < 0 || b >= st.n {
		panic(fmt.Sprintf("serve: FreeBin bin %d out of range [0,%d)", b, st.n))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.loads[b].Load() == 0 {
		return 0, ErrEmptyBin
	}
	var t tally
	l := st.take(b, &t)
	st.settle(&t)
	if st.hook != nil {
		st.hook.OnFree(b)
	}
	return int(l), nil
}

// FreeBall is the Scenario A departure stream: it removes a ball chosen
// uniformly among all stored balls and returns its bin. The draw is one
// critical section (see draw), so it is exact however much traffic
// races it.
func (st *Store) FreeBall(r *rng.RNG) (int, error) {
	one := [1]int{-1}
	_, err := st.freeDrawn(r, process.ScenarioA, one[:], nil)
	return one[0], err
}

// FreeNonEmpty is the Scenario B departure stream: it removes one ball
// from a bin chosen uniformly among the nonempty bins and returns the
// bin; see FreeBall.
func (st *Store) FreeNonEmpty(r *rng.RNG) (int, error) {
	one := [1]int{-1}
	_, err := st.freeDrawn(r, process.ScenarioB, one[:], nil)
	return one[0], err
}

// freeDrawn is drawFrees in a section of its own. It returns ErrEmpty
// when it removed no ball.
func (st *Store) freeDrawn(r *rng.RNG, sc process.Scenario, bins []int, loads []int32) (int, error) {
	var t tally
	st.mu.Lock()
	n := st.drawFrees(r, sc, bins, loads, &t)
	st.release(&t, bins[:n], nil)
	if n == 0 {
		return 0, ErrEmpty
	}
	return n, nil
}

// Crash dumps k extra balls into bin b at once — the fault injector
// behind the paper's "all the mass in one place" states. It returns the
// bin's new load, or the unchanged load and ErrOverflow when the store
// cannot hold k more balls (checked inside the section, so no
// concurrent mutation races past it). Crash counts neither as
// admissions nor as departures: Allocs measures recovery work only.
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
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.loads[b].Load()
	if int64(k) > math.MaxInt32-st.total.Load() {
		return int(old), ErrOverflow
	}
	sh := st.shardOf(b)
	l := st.loads[b].Add(int32(k))
	sh.reindex(b, old, l)
	sh.total += int64(k)
	t := tally{total: int64(k)}
	if old == 0 {
		t.nonEmpty = 1
	}
	st.settle(&t)
	if st.hook != nil {
		st.hook.OnCrash(b, k)
	}
	return int(l), nil
}

// FillBalanced seeds the store with the most balanced state of Omega_m:
// every bin gets floor(m/n) balls and the first m mod n bins one more.
// It is an install, like Restore: no other goroutine can reach the
// store yet, the store holds no balls and 0 <= m <= math.MaxInt32 (it
// panics otherwise). The hook hears one OnCrash(b, load) per nonempty
// bin, in bin order; seeding counts as neither admissions nor frees.
func (st *Store) FillBalanced(m int) {
	if m < 0 || m > math.MaxInt32 || st.total.Load() != 0 {
		panic(fmt.Sprintf("serve: FillBalanced(%d) needs 0 <= m <= math.MaxInt32 and an empty store", m))
	}
	defer metrics.Span("serve.store.seed_ns")()
	st.mu.Lock()
	defer st.mu.Unlock()
	q, rem := int32(m/st.n), m%st.n
	fillLoads(st.loads[:rem], q+1)
	fillLoads(st.loads[rem:], q)
	st.reindexAll()
	if st.hook != nil {
		for b := range min(m, st.n) {
			st.hook.OnCrash(b, int(st.loads[b].Load()))
		}
	}
}

// fillLoads sets every load in v, all zero, to l by doubling copies:
// plain writes, which only an install may make.
func fillLoads(v []atomic.Int32, l int32) {
	if len(v) > 0 && l > 0 {
		v[0].Store(l)
		for k := 1; k < len(v); k *= 2 {
			copy(v[k:], v[:k])
		}
	}
}

// reindexAll rebuilds every stripe's index and ball total from the
// loads and publishes the store's ball and nonempty-bin counts. Caller
// owns the store or holds its mutex.
func (st *Store) reindexAll() {
	var total, nonEmpty int64
	for i := range st.shards {
		t, ne := st.shards[i].rebuild(st.loads)
		total, nonEmpty = total+t, nonEmpty+ne
	}
	st.total.Store(total)
	st.nonEmpty.Store(nonEmpty)
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

// Restore overwrites the store's entire state with the given per-bin
// loads and counter values — the boot-time half of checkpoint
// recovery. It is an install: no other goroutine may touch the store
// meanwhile, and the loads must be nonnegative and sum to at most
// math.MaxInt32 (ErrOverflow otherwise; a refused state installs
// nothing). The hook hears nothing; the clocks are the given values.
func (st *Store) Restore(loads []int32, allocs, frees int64) error {
	if len(loads) != st.n {
		return fmt.Errorf("serve: restore of %d bins into a store of %d", len(loads), st.n)
	}
	var sum int64
	for b, l := range loads {
		if sum += int64(l); l < 0 {
			return fmt.Errorf("serve: restore bin %d has negative load %d", b, l)
		} else if sum > math.MaxInt32 {
			return ErrOverflow
		}
	}
	for b, l := range loads {
		st.loads[b].Store(l)
	}
	st.reindexAll()
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
