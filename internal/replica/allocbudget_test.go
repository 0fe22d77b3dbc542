package replica

import (
	"io"
	"runtime"
	"testing"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/dgram"
	"dynalloc/internal/simfs"
)

// bytesAllocated is the heap fn allocates, the smallest of three tries
// (a stray runtime allocation only ever adds).
func bytesAllocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestAllocBudgetSnapshot: a fresh subscription's SNAPSHOT streams from
// the loaded checkpoint through the frame writer, so what it costs
// beyond a subscription that needs none is one 64 KiB piece, whatever
// n is. An encoded copy held two more images, 8 MiB at n = 2^20.
func TestAllocBudgetSnapshot(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	const piece = 64 << 10
	for _, n := range []int{1 << 12, 1 << 20} {
		fs := simfs.New()
		loads := make([]int32, n)
		for b := range loads {
			loads[b] = int32(b % 3)
		}
		if _, err := checkpoint.WriteFS(fs, "/p", checkpoint.Snapshot{Seq: 1, Allocs: int64(n), Loads: loads}); err != nil {
			t.Fatal(err)
		}
		// A subscription from seq 1 loads the same checkpoint and opens
		// the same tail, and needs no snapshot.
		subscribe := func(after uint64) uint64 {
			return bytesAllocated(func() {
				sh := NewShipper(ShipperConfig{FS: fs, Dir: "/p"}, after)
				defer sh.Close()
				if caught, err := sh.PumpFrames(dgram.NewWriter(io.Discard)); !caught || err != nil {
					t.Fatalf("pump from seq %d: caught up %v, %v", after, caught, err)
				}
			})
		}
		got := int64(subscribe(0)) - int64(subscribe(1))
		t.Logf("n = %d: the snapshot allocates %d bytes", n, got)
		if got > piece+piece/8 {
			t.Errorf("n = %d: the snapshot allocates %d bytes, budget one %d-byte piece", n, got, piece)
		}
	}
}
