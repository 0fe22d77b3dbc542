package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynalloc/internal/metrics"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestForEachMoreWorkersThanWork(t *testing.T) {
	var count atomic.Int32
	ForEach(3, 100, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Fatalf("count = %d", count.Load())
	}
}

func TestForEachPanicsPropagate(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("wrong panic payload: %v", r)
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}

func TestForEachSequentialPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sequential path swallowed panic")
		}
	}()
	ForEach(5, 1, func(i int) {
		if i == 2 {
			panic("boom")
		}
	})
}

func TestMapDeterministicOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out := Map(100, workers, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	seq := Map(257, 1, func(i int) float64 { return float64(i) / 3 })
	parl := Map(257, 16, func(i int) float64 { return float64(i) / 3 })
	for i := range seq {
		if seq[i] != parl[i] {
			t.Fatalf("index %d differs", i)
		}
	}
}

func TestForEachMetrics(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	var count atomic.Int32
	ForEach(50, 4, func(int) { count.Add(1) })
	s := metrics.Default().Snapshot()
	if s.Counters["par.foreach.calls"] != 1 || s.Counters["par.foreach.indices"] != 50 {
		t.Fatalf("call/index counters wrong: %+v", s.Counters)
	}
	if s.Counters["par.foreach.skipped_indices"] != 0 {
		t.Fatalf("clean run recorded skips: %+v", s.Counters)
	}
	if s.Timers["par.foreach.wall_ns"].Count != 1 {
		t.Fatalf("wall timer missing: %+v", s.Timers)
	}
	if got := s.Histograms["par.foreach.index_ns"].Count; got != 50 {
		t.Fatalf("index histogram count = %d, want 50", got)
	}
	u := s.Gauges["par.foreach.utilization"]
	if u <= 0 || u > 1.000001 {
		t.Fatalf("utilization out of range: %v", u)
	}
}

func TestForEachPanicRecordsSkippedIndices(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	const n = 1000
	var executed atomic.Int64
	// Indices 0..2 park three of the four workers on the gate until the
	// fourth has picked index 3, and every non-panicking index then
	// costs a millisecond: the panic becomes visible to the pool within
	// microseconds of the gate opening, while draining the other 996
	// indices would take the three survivors a third of a second. A
	// trivial fn instead races the panic's visibility against the whole
	// queue, and on a 2-CPU runner the queue sometimes won.
	gate := make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		ForEach(n, 4, func(i int) {
			executed.Add(1)
			if i == 3 {
				close(gate)
				panic("boom")
			}
			<-gate
			time.Sleep(time.Millisecond)
		})
	}()
	s := metrics.Default().Snapshot()
	if s.Counters["par.foreach.panics"] != 1 {
		t.Fatalf("panic counter = %d", s.Counters["par.foreach.panics"])
	}
	skipped := s.Counters["par.foreach.skipped_indices"]
	if skipped == 0 {
		t.Fatal("early panic skipped no indices — expected an abandoned tail")
	}
	if got := executed.Load() + skipped; got != n {
		t.Fatalf("executed (%d) + skipped (%d) = %d, want %d", executed.Load(), skipped, got, n)
	}
}

func TestForEachSequentialPanicRecordsSkippedIndices(t *testing.T) {
	metrics.Reset()
	metrics.Enable()
	defer func() {
		metrics.Disable()
		metrics.Reset()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		ForEach(10, 1, func(i int) {
			if i == 4 {
				panic("boom")
			}
		})
	}()
	s := metrics.Default().Snapshot()
	if got := s.Counters["par.foreach.skipped_indices"]; got != 5 {
		t.Fatalf("skipped = %d, want 5 (indices 5..9 never ran)", got)
	}
	if s.Counters["par.foreach.panics"] != 1 {
		t.Fatalf("panic counter = %d", s.Counters["par.foreach.panics"])
	}
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(64, 8, func(int) {})
	}
}
