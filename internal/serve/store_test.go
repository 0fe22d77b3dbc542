package serve

import (
	"sync"
	"testing"

	"dynalloc/internal/loadvec"
	"dynalloc/internal/rng"
)

func TestStoreGeometry(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{1, 1}, {7, 4}, {64, 8}, {100, 16}, {1 << 16, 256},
	} {
		st := NewStoreShards(tc.n, tc.shards)
		if st.N() != tc.n || st.Shards() != tc.shards {
			t.Fatalf("n=%d shards=%d: got n=%d shards=%d", tc.n, tc.shards, st.N(), st.Shards())
		}
		// Every bin belongs to exactly one shard range.
		covered := 0
		for i := range st.shards {
			sh := &st.shards[i]
			if sh.lo > sh.hi {
				t.Fatalf("shard %d has lo %d > hi %d", i, sh.lo, sh.hi)
			}
			covered += sh.hi - sh.lo
		}
		if covered != tc.n {
			t.Fatalf("n=%d shards=%d: ranges cover %d bins", tc.n, tc.shards, covered)
		}
		for b := 0; b < tc.n; b++ {
			sh := st.shardOf(b)
			if b < sh.lo || b >= sh.hi {
				t.Fatalf("bin %d mapped to shard range [%d,%d)", b, sh.lo, sh.hi)
			}
		}
	}
}

func TestNewStoreAutoShards(t *testing.T) {
	st := NewStore(1 << 14)
	if s := st.Shards(); s < 1 || s&(s-1) != 0 {
		t.Fatalf("auto shard count %d not a power of two", s)
	}
	if small := NewStore(3); small.Shards() > 4 {
		t.Fatalf("tiny store got %d shards", small.Shards())
	}
}

func TestNewStoreShardsPanics(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{0, 1}, {4, 3}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStoreShards(%d, %d) did not panic", tc.n, tc.shards)
				}
			}()
			NewStoreShards(tc.n, tc.shards)
		}()
	}
}

func TestAllocFreeInvariants(t *testing.T) {
	st := NewStoreShards(8, 4)
	if l := admitOne(st, 3); l != 1 {
		t.Fatalf("first Alloc load = %d, want 1", l)
	}
	admitOne(st, 3)
	admitOne(st, 5)
	if st.Total() != 3 || st.NonEmpty() != 2 || st.Allocs() != 3 {
		t.Fatalf("after 3 allocs: %+v", st.Stats())
	}
	if l, err := st.FreeBin(3); err != nil || l != 1 {
		t.Fatalf("FreeBin(3) = %d, %v", l, err)
	}
	if _, err := st.FreeBin(0); err != ErrEmptyBin {
		t.Fatalf("FreeBin on empty bin: %v, want ErrEmptyBin", err)
	}
	if st.Total() != 2 || st.NonEmpty() != 2 || st.Frees() != 1 {
		t.Fatalf("after free: %+v", st.Stats())
	}
	st.FreeBin(3)
	if st.NonEmpty() != 1 {
		t.Fatalf("NonEmpty = %d, want 1", st.NonEmpty())
	}
}

func TestFillBalancedSnapshot(t *testing.T) {
	const n, m = 10, 23
	st := NewStoreShards(n, 2)
	st.FillBalanced(m)
	if st.Total() != m {
		t.Fatalf("Total = %d, want %d", st.Total(), m)
	}
	if st.Allocs() != 0 || st.Frees() != 0 {
		t.Fatalf("seeding advanced the op clocks: %+v", st.Stats())
	}
	want := loadvec.Balanced(n, m)
	if got := st.Snapshot(); !got.Equal(want) {
		t.Fatalf("snapshot %v, want %v", got, want)
	}
}

func TestCrash(t *testing.T) {
	st := NewStoreShards(16, 4)
	st.FillBalanced(16)
	if l, err := st.Crash(7, 100); l != 101 || err != nil {
		t.Fatalf("Crash load = %d, %v, want 101", l, err)
	}
	if st.Total() != 116 || st.NonEmpty() != 16 {
		t.Fatalf("after crash: %+v", st.Stats())
	}
	if l, err := st.Crash(7, 0); l != 101 || err != nil {
		t.Fatal("Crash with k=0 must be a no-op")
	}
	if got := st.Snapshot().MaxLoad(); got != 101 {
		t.Fatalf("max load %d, want 101", got)
	}
}

func TestFreeOnEmptyStore(t *testing.T) {
	st := NewStoreShards(8, 2)
	r := rng.New(1)
	if _, err := st.FreeBall(r); err != ErrEmpty {
		t.Fatalf("FreeBall on empty store: %v, want ErrEmpty", err)
	}
	if _, err := st.FreeNonEmpty(r); err != ErrEmpty {
		t.Fatalf("FreeNonEmpty on empty store: %v, want ErrEmpty", err)
	}
}

// TestFreeBallWeighted checks the Scenario A departure stream draws
// bins proportionally to load: with loads 8:2:0, bin 0 should receive
// ~80% of the removals (each draw is undone so the state is constant).
func TestFreeBallWeighted(t *testing.T) {
	st := NewStoreShards(4, 2)
	st.Crash(0, 8)
	st.Crash(1, 2)
	r := rng.New(42)
	const draws = 5000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		b, err := st.FreeBall(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[b]++
		st.Crash(b, 1) // put it back
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatalf("empty bins drawn: %v", counts)
	}
	frac := float64(counts[0]) / draws
	if frac < 0.76 || frac > 0.84 {
		t.Fatalf("bin 0 drawn %.3f of the time, want ~0.8", frac)
	}
}

// TestFreeNonEmptyUniform checks the Scenario B departure stream draws
// uniformly over nonempty bins regardless of their load.
func TestFreeNonEmptyUniform(t *testing.T) {
	st := NewStoreShards(4, 2)
	st.Crash(0, 1000)
	st.Crash(3, 10000)
	r := rng.New(7)
	const draws = 4000
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		b, err := st.FreeNonEmpty(r)
		if err != nil {
			t.Fatal(err)
		}
		counts[b]++
		st.Crash(b, 1)
	}
	frac := float64(counts[0]) / draws
	if frac < 0.46 || frac > 0.54 {
		t.Fatalf("bin 0 drawn %.3f of the time, want ~0.5 (counts %v)", frac, counts)
	}
}

// TestStoreDeterminism: the same seed against the same geometry must
// produce the identical operation sequence (single worker).
func TestStoreDeterminism(t *testing.T) {
	run := func() []int {
		st := NewStoreShards(64, 8)
		st.FillBalanced(64)
		r := rng.New(1998)
		for i := 0; i < 2000; i++ {
			if i%2 == 0 {
				if _, err := st.FreeBall(r); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := st.FreeNonEmpty(r); err != nil {
					t.Fatal(err)
				}
			}
			admitOne(st, r.Intn(64))
		}
		return st.LoadsCopy()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestStoreConcurrent hammers the store from many goroutines and then
// verifies every counter against the ground-truth bin contents. Run
// with -race to exercise the lock discipline.
func TestStoreConcurrent(t *testing.T) {
	const (
		n       = 257 // deliberately not a multiple of the shard count
		workers = 8
		ops     = 4000
	)
	st := NewStoreShards(n, 16)
	st.FillBalanced(3 * n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewStream(5, uint64(w))
			for i := 0; i < ops; i++ {
				switch r.Intn(4) {
				case 0:
					admitOne(st, r.Intn(n))
				case 1:
					st.FreeBall(r)
				case 2:
					st.FreeNonEmpty(r)
				case 3:
					st.FreeBin(r.Intn(n))
				}
				if i%512 == 0 {
					st.Snapshot() // lock-free reader racing the writers
				}
			}
		}(w)
	}
	wg.Wait()

	loads := st.LoadsCopy()
	var total int64
	var nonEmpty int64
	for b, l := range loads {
		if l < 0 {
			t.Fatalf("bin %d has negative load %d", b, l)
		}
		total += int64(l)
		if l > 0 {
			nonEmpty++
		}
	}
	if st.Total() != total {
		t.Fatalf("Total counter %d, bins sum to %d", st.Total(), total)
	}
	if st.NonEmpty() != nonEmpty {
		t.Fatalf("NonEmpty counter %d, bins say %d", st.NonEmpty(), nonEmpty)
	}
	var shardSum int64
	for i := range st.shards {
		shardSum += st.shards[i].total
	}
	if shardSum != total {
		t.Fatalf("shard totals sum to %d, bins to %d", shardSum, total)
	}
	if got := 3*n + int(st.Allocs()) - int(st.Frees()); int64(got) != total {
		t.Fatalf("op clocks inconsistent: seeded %d + allocs %d - frees %d != total %d",
			3*n, st.Allocs(), st.Frees(), total)
	}
}

// The replay-surfaced edge cases: a process never removes from an
// empty bin, but a forged or hand-edited WAL can ask for exactly that,
// so the store-level behavior these replays rely on is pinned here.

func TestFreeBinEmptyEdgeCases(t *testing.T) {
	st := NewStoreShards(8, 2)
	// Free from a bin that was never filled.
	if _, err := st.FreeBin(3); err != ErrEmptyBin {
		t.Fatalf("free of never-filled bin: %v, want ErrEmptyBin", err)
	}
	// Fill then drain, then free once more: the second free must fail
	// without disturbing any counter.
	admitOne(st, 3)
	if _, err := st.FreeBin(3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.FreeBin(3); err != ErrEmptyBin {
		t.Fatalf("free of drained bin: %v, want ErrEmptyBin", err)
	}
	if st.Total() != 0 || st.NonEmpty() != 0 || st.Allocs() != 1 || st.Frees() != 1 {
		t.Fatalf("failed frees disturbed counters: %+v", st.Stats())
	}
}

func TestCrashEmptyBinEdgeCases(t *testing.T) {
	st := NewStoreShards(8, 2)
	// Crash k=0 of an empty bin: a no-op that must not create a
	// phantom nonempty bin.
	if got, err := st.Crash(5, 0); got != 0 || err != nil {
		t.Fatalf("Crash(5, 0) = %d, %v", got, err)
	}
	if st.NonEmpty() != 0 || st.Total() != 0 {
		t.Fatalf("zero crash disturbed counters: %+v", st.Stats())
	}
	// Crash k>0 of an empty bin transitions it to nonempty exactly once.
	if got, err := st.Crash(5, 4); got != 4 || err != nil {
		t.Fatalf("Crash(5, 4) = %d, %v", got, err)
	}
	if st.NonEmpty() != 1 || st.Total() != 4 {
		t.Fatalf("crash of empty bin: %+v", st.Stats())
	}
	// Crash of an already-loaded bin must not double-count nonempty.
	st.Crash(5, 2)
	if st.NonEmpty() != 1 || st.Total() != 6 {
		t.Fatalf("crash of loaded bin: %+v", st.Stats())
	}
	// Crash counts as neither an admission nor a departure.
	if st.Allocs() != 0 || st.Frees() != 0 {
		t.Fatalf("crash moved the op clocks: %+v", st.Stats())
	}
}

func TestAllocFreeInterleavingAtEmpty(t *testing.T) {
	st := NewStoreShards(4, 2)
	r := rng.New(7)
	// m=0 throughout: every departure stream call must refuse, every
	// alloc/free pair must return to the empty state exactly.
	for i := 0; i < 100; i++ {
		if _, err := st.FreeBall(r); err != ErrEmpty {
			t.Fatalf("FreeBall on empty store: %v", err)
		}
		if _, err := st.FreeNonEmpty(r); err != ErrEmpty {
			t.Fatalf("FreeNonEmpty on empty store: %v", err)
		}
		b := i % 4
		admitOne(st, b)
		if _, err := st.FreeBin(b); err != nil {
			t.Fatalf("drain after alloc: %v", err)
		}
		if st.Total() != 0 || st.NonEmpty() != 0 {
			t.Fatalf("iteration %d left residue: %+v", i, st.Stats())
		}
	}
	if st.Allocs() != 100 || st.Frees() != 100 {
		t.Fatalf("op clocks after interleaving: %+v", st.Stats())
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	st := NewStoreShards(16, 4)
	st.FillBalanced(20)
	st.Crash(3, 9)
	want := st.LoadsCopy()

	other := NewStoreShards(16, 4)
	loads := make([]int32, len(want))
	for i, l := range want {
		loads[i] = int32(l)
	}
	if err := other.Restore(loads, 7, 5); err != nil {
		t.Fatal(err)
	}
	got := other.LoadsCopy()
	for b := range want {
		if got[b] != want[b] {
			t.Fatalf("bin %d: restored %d, want %d", b, got[b], want[b])
		}
	}
	if other.Total() != st.Total() || other.NonEmpty() != st.NonEmpty() {
		t.Fatalf("restored counters %+v vs %+v", other.Stats(), st.Stats())
	}
	if other.Allocs() != 7 || other.Frees() != 5 {
		t.Fatalf("restored op clocks: %+v", other.Stats())
	}
	var shardSum int64
	for i := range other.shards {
		shardSum += other.shards[i].total
	}
	if shardSum != other.Total() {
		t.Fatalf("restored shard totals sum to %d, want %d", shardSum, other.Total())
	}

	// Dimension mismatch and negative loads are rejected.
	if err := other.Restore(make([]int32, 5), 0, 0); err == nil {
		t.Fatal("restore accepted wrong n")
	}
	if err := other.Restore(append(make([]int32, 15), -1), 0, 0); err == nil {
		t.Fatal("restore accepted a negative load")
	}
}

func TestLoadSummaryMatchesSnapshot(t *testing.T) {
	r := rng.New(7)
	for _, tc := range []struct{ n, shards, churn int }{
		{1, 1, 50}, {64, 8, 500}, {1000, 16, 5000},
	} {
		st := NewStoreShards(tc.n, tc.shards)
		check := func() {
			sum := st.LoadSummary()
			v := st.Snapshot()
			if sum.N != tc.n {
				t.Fatalf("n=%d: summary N %d", tc.n, sum.N)
			}
			if sum.MaxLoad != v.MaxLoad() {
				t.Fatalf("n=%d: summary max %d, snapshot max %d", tc.n, sum.MaxLoad, v.MaxLoad())
			}
			if sum.Total != int64(v.Total()) || sum.Total != st.Total() {
				t.Fatalf("n=%d: summary total %d, snapshot %d, counter %d", tc.n, sum.Total, v.Total(), st.Total())
			}
			if sum.NonEmpty != int64(v.NonEmpty()) {
				t.Fatalf("n=%d: summary nonempty %d, snapshot %d", tc.n, sum.NonEmpty, v.NonEmpty())
			}
			if sum.Allocs != st.Allocs() || sum.Frees != st.Frees() {
				t.Fatalf("n=%d: summary clocks (%d,%d) vs store (%d,%d)", tc.n, sum.Allocs, sum.Frees, st.Allocs(), st.Frees())
			}
			var sumStripes int64
			for i := range st.shards {
				sumStripes += st.shards[i].total
			}
			if sumStripes != sum.Total {
				t.Fatalf("n=%d: stripe totals sum %d, total %d", tc.n, sumStripes, sum.Total)
			}
		}
		check() // empty store: MaxLoad 0
		st.FillBalanced(3 * tc.n / 2)
		check()
		st.Crash(r.Intn(tc.n), 17)
		check()
		for i := 0; i < tc.churn; i++ {
			if r.Bool() {
				admitOne(st, r.Intn(tc.n))
			} else if _, err := st.FreeBall(r); err != nil && err != ErrEmpty {
				t.Fatal(err)
			}
			if i%97 == 0 {
				check()
			}
		}
		check()
	}
}

func TestLoadSummaryConcurrent(t *testing.T) {
	st := NewStoreShards(512, 16)
	st.FillBalanced(2048)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewStream(11, uint64(w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				admitOne(st, r.Intn(512))
				if _, err := st.FreeBall(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Under churn the digest cannot be an exact cut, but every field
	// must stay within the bounds the closed-loop traffic implies.
	for i := 0; i < 200; i++ {
		sum := st.LoadSummary()
		if sum.MaxLoad < 1 || sum.NonEmpty < 1 {
			t.Fatalf("digest lost the balls: %+v", sum)
		}
		if sum.Total < 2048-8 || sum.Total > 2048+8 {
			t.Fatalf("closed-loop total drifted: %+v", sum)
		}
	}
	close(stop)
	wg.Wait()
}
