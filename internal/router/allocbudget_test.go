package router

import (
	"runtime"
	"testing"

	"dynalloc/internal/dgram"
	"dynalloc/internal/process"
	"dynalloc/internal/serve"
)

// statePiece is the dgram Writer's piece: the most of a load vector a
// STATE reply holds at once.
const statePiece = 64 << 10

// handleBytes is the heap a connection that sends reqs and hangs up
// allocates on the shard, the smallest of three tries (a stray runtime
// allocation only ever adds).
func handleBytes(srv *Server, reqs []byte) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		srv.handle(&feedConn{buf: reqs})
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestAllocBudgetState: a STATE is streamed from the store, so what it
// allocates beyond a connection that only probes is one piece of the
// writer's buffer, whatever n is. A copied reply allocated three
// vectors' worth, 12 MiB at n = 2^20, and kept them.
func TestAllocBudgetState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are meaningless under -race instrumentation")
	}
	probe := dgram.AppendFrame(nil, dgram.TProbe, nil)
	state := dgram.AppendFrame(dgram.AppendFrame(nil, dgram.TProbe, nil), dgram.TState, nil)
	for _, n := range []int{1 << 12, 1 << 20} {
		st := serve.NewStoreShards(n, 8)
		st.FillBalanced(2 * n)
		srv := NewServer(ServerConfig{Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA, Seed: 1})
		got := int64(handleBytes(srv, state)) - int64(handleBytes(srv, probe))
		t.Logf("n = %d: a STATE allocates %d bytes", n, got)
		if got > statePiece+statePiece/8 {
			t.Errorf("n = %d: a STATE allocates %d bytes, budget one %d-byte piece", n, got, statePiece)
		}
	}
}
