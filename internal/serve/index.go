package serve

import "sync/atomic"

// The per-stripe index. Every mutation of a bin goes through
// shard.reindex under the stripe lock it already holds, and three
// readers that used to walk all n bin atomics read the index instead:
//
//   - Scenario A's in-stripe weighted draw (FreeBall) descends a
//     two-level sum — balls per run of 64 bins, and per run of 64 such
//     runs — in at most 64 + 64 + (stripe bins / 4096) steps. The sums
//     are plain integers: both their writer and their only reader hold
//     the stripe lock.
//   - LoadSummary (the PROBE reply) takes the maximum of the stripes'
//     atomic max loads.
//   - Detector.Check reads a histogram of the loads. A sorted load
//     vector is its histogram, so every distance the detector reports
//     follows from the level counts. Under d-choice the occupied levels
//     are a handful (the stationary maximum is ln ln n / ln d + O(1));
//     a crash tower adds one far above them, so levels below
//     denseLevels are an array and the rest a short table, never an
//     array indexed by the load itself. The array is cumulative —
//     atLeast[l] bins hold l balls or more — because then the unit
//     move of every admission and departure (a bin going from l-1 to
//     l, or back) writes one counter, not two.
//
// The max and the histogram are atomics written under the stripe lock,
// so LoadSummary, Check and /healthz keep the package's read contract:
// they take no stripe lock and answer while a hook stalls inside one.
const (
	runBits     = 6 // 64 bins per level-1 sum, 64 level-1 sums per level-2 sum
	denseLevels = 64
)

// sparseLevels is a stripe's histogram at loads >= denseLevels: one
// word per slot, load<<32 | bins on exactly that load, so a reader gets
// a level and its count from one atomic load. A slot whose count is
// zero is free. The table only grows (by copy, published through
// shard.sparse); it holds at most sqrt(2 * balls in the stripe)
// occupied levels, and in practice one per crash tower, so the writer
// finds a level by scanning it.
type sparseLevels []atomic.Uint64

// levelCount is one occupied level at or above denseLevels.
type levelCount struct {
	load, bins int64
}

// initIndex carves every stripe's two sum levels out of one backing
// array (cmd/bench builds a store per op and gates on allocs/op), each
// stripe's share rounded up to whole cache lines so that two stripes'
// writers share none, and counts all bins at load 0.
func (st *Store) initIndex() {
	runs := func(x int) int { return (x + 1<<runBits - 1) >> runBits }
	const line = 8 // int64s per cache line
	words := 0
	for i := range st.shards {
		n1 := runs(st.shards[i].hi - st.shards[i].lo)
		words += (n1 + runs(n1) + line - 1) &^ (line - 1)
	}
	back := make([]int64, words)
	for i := range st.shards {
		sh := &st.shards[i]
		n1 := runs(sh.hi - sh.lo)
		n2 := runs(n1)
		sh.sum1, sh.sum2 = back[:n1:n1], back[n1:n1+n2:n1+n2]
		back = back[(n1+n2+line-1)&^(line-1):]
		sh.atLeast[0].Store(int32(sh.hi - sh.lo))
	}
}

// sparseAdd moves d = ±1 bins onto level l >= denseLevels. Caller holds
// the stripe lock.
func (sh *shard) sparseAdd(l, d int32) {
	var tab sparseLevels
	if p := sh.sparse.Load(); p != nil {
		tab = *p
	}
	free := -1
	for i := range tab {
		w := tab[i].Load()
		switch {
		case uint32(w) == 0:
			if free < 0 {
				free = i
			}
		case int32(w>>32) == l:
			tab[i].Store(w + uint64(int64(d))) // the count is >= 1, so -1 never borrows
			return
		}
	}
	// A level that is absent can only gain a bin.
	if free < 0 {
		grown := make(sparseLevels, max(4, 2*len(tab)))
		for i := range tab {
			grown[i].Store(tab[i].Load())
		}
		grown[len(tab)].Store(uint64(l)<<32 | 1)
		sh.sparse.Store(&grown)
		return
	}
	tab[free].Store(uint64(l)<<32 | 1)
}

// topLevel returns the highest occupied level that is <= from. Caller
// holds the stripe lock, and no level above from is occupied.
func (sh *shard) topLevel(from int32) int32 {
	if from >= denseLevels {
		top := int32(0)
		if p := sh.sparse.Load(); p != nil {
			for i := range *p {
				if w := (*p)[i].Load(); uint32(w) != 0 && int32(w>>32) > top {
					top = int32(w >> 32)
				}
			}
		}
		if top != 0 {
			return top
		}
		from = denseLevels - 1
	}
	for from > 0 && sh.atLeast[from].Load() == 0 {
		from--
	}
	return from
}

// reindex records that bin b's load went from old to new. It is the
// only writer of the index besides rebuild; caller holds the stripe
// lock and has already stored the new load.
func (sh *shard) reindex(b int, old, new int32) {
	d := int64(new) - int64(old)
	j := (b - sh.lo) >> runBits
	sh.sum1[j] += d
	sh.sum2[j>>runBits] += d
	lo, hi, sign := old, new, int32(1)
	if new < old {
		lo, hi, sign = new, old, -1
	}
	for l := lo + 1; l <= min(hi, denseLevels-1); l++ {
		sh.atLeast[l].Add(sign)
	}
	if old >= denseLevels {
		sh.sparseAdd(old, -1)
	}
	if new >= denseLevels {
		sh.sparseAdd(new, 1)
	}
	if top := sh.max.Load(); new > top {
		sh.max.Store(new)
	} else if old == top && new < old {
		// The bin left the top level; unless another bin is still on
		// it, the top is the next occupied level down (at worst new).
		sh.max.Store(sh.topLevel(old))
	}
}

// rebuild recomputes the stripe's index from its bin loads and returns
// the stripe's ball and nonempty-bin counts. Caller holds the stripe
// lock (or, at boot, owns the store).
func (sh *shard) rebuild(loads []atomic.Int32) (total, nonEmpty int64) {
	clear(sh.sum1)
	clear(sh.sum2)
	sh.sparse.Store(nil)
	var on [denseLevels]int32 // bins on exactly level l; the last entry takes every load above
	var top int32
	for b := sh.lo; b < sh.hi; b++ {
		l := loads[b].Load()
		j := (b - sh.lo) >> runBits
		sh.sum1[j] += int64(l)
		sh.sum2[j>>runBits] += int64(l)
		on[min(l, denseLevels-1)]++
		if l >= denseLevels {
			sh.sparseAdd(l, 1)
		}
		if l > 0 {
			nonEmpty++
			total += int64(l)
		}
		top = max(top, l)
	}
	var above int32
	for l := denseLevels - 1; l >= 0; l-- {
		above += on[l]
		sh.atLeast[l].Store(above)
	}
	sh.max.Store(top)
	return total, nonEmpty
}

// locate returns the bin holding the stripe's target-th ball, counting
// balls in bin order from zero: the bin a linear scan of the stripe
// subtracting loads from target would stop at. Caller holds the stripe
// lock and guarantees 0 <= target < the stripe's ball total.
func (sh *shard) locate(loads []atomic.Int32, target int64) int {
	k := 0
	for ; target >= sh.sum2[k]; k++ {
		target -= sh.sum2[k]
	}
	j := k << runBits
	for ; target >= sh.sum1[j]; j++ {
		target -= sh.sum1[j]
	}
	b := sh.lo + j<<runBits
	for {
		l := int64(loads[b].Load())
		if target < l {
			return b
		}
		target -= l
		b++
	}
}

// levels reads the store's merged load histogram without taking a
// lock: atLeast[l] receives the number of bins holding l balls or more,
// for l < denseLevels, and the occupied levels from denseLevels up are
// appended to sparse (in no order; a level may appear once per stripe).
// At rest the counts are exact; under traffic each is individually
// exact but they are not one cut, like Snapshot.
func (st *Store) levels(atLeast *[denseLevels]int64, sparse []levelCount) []levelCount {
	for i := range st.shards {
		sh := &st.shards[i]
		for l := min(int(sh.max.Load()), denseLevels-1); l >= 0; l-- {
			atLeast[l] += int64(sh.atLeast[l].Load())
		}
		if p := sh.sparse.Load(); p != nil {
			for k := range *p {
				if w := (*p)[k].Load(); uint32(w) != 0 {
					sparse = append(sparse, levelCount{load: int64(w >> 32), bins: int64(uint32(w))})
				}
			}
		}
	}
	return sparse
}
