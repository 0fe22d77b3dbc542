package router

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"dynalloc/internal/dgram"
	"dynalloc/internal/process"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
)

// benchCluster boots `shards` in-process dgram servers and a Router,
// mirroring cmd/bench's router workloads at test scale.
func benchCluster(b *testing.B, nPerShard, shards, d int) *Router {
	b.Helper()
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		st := serve.NewStore(nPerShard)
		st.FillBalanced(nPerShard)
		srv := NewServer(ServerConfig{
			Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA,
			Seed: uint64(i + 1),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go srv.Serve(ln)
		b.Cleanup(func() { srv.Close() })
	}
	rt, err := New(Options{Shards: addrs, D: d})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	return rt
}

func BenchmarkSessionProbe(b *testing.B) {
	rt := benchCluster(b, 1024, 1, 1)
	ses := rt.NewSession()
	defer ses.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Probe(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionAdmit(b *testing.B) {
	rt := benchCluster(b, 1024, 3, 2)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(1, 0)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ses.Admit(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionAdmitBatch16(b *testing.B) {
	rt := benchCluster(b, 1024, 3, 2)
	ses := rt.NewSession()
	defer ses.Close()
	r := rng.NewStream(1, 0)
	res := make([]AdmitResult, 0, 16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := ses.AdmitBatch(r, 16, res[:0])
		if err != nil {
			b.Fatal(err)
		}
		res = out
	}
}

func BenchmarkSessionAdmitParallel8(b *testing.B) {
	rt := benchCluster(b, 1024, 3, 2)
	var mu sync.Mutex
	w := 0
	b.ResetTimer()
	b.ReportAllocs()
	b.SetParallelism(1) // RunParallel spawns GOMAXPROCS goroutines
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		w++
		r := rng.NewStream(2, uint64(w))
		mu.Unlock()
		ses := rt.NewSession()
		defer ses.Close()
		for pb.Next() {
			if _, err := ses.Admit(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// feedConn is a net.Conn that serves pre-encoded request frames from
// memory and discards the replies: the handler loop with no socket, no
// scheduler and no peer in it.
type feedConn struct {
	net.Conn // nil: the handler only reads and writes
	buf      []byte
}

func (c *feedConn) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}
func (c *feedConn) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServerHandle is the shard's cost per closed-loop round —
// decode, one Lane call, encode, for one ADMIT of 16 and 16 FREEs of
// one — measured with the wire and the scheduler taken out, which is
// what lets two commits be compared to a few percent where loopback
// round trips scatter by a third. The hook variant has a mutation hook
// installed, as a journaled shard does.
func BenchmarkServerHandle(b *testing.B) {
	for _, hooked := range []bool{false, true} {
		b.Run(map[bool]string{false: "mem", true: "hook"}[hooked], func(b *testing.B) {
			st := serve.NewStoreShards(1<<14, 8)
			st.FillBalanced(1 << 14)
			if hooked {
				st.SetHook(countHook{})
			}
			srv := NewServer(ServerConfig{Store: st, Policy: serve.NewABKUPolicy(2), Scenario: process.ScenarioA, Seed: 1})
			round := dgram.AppendFrame(nil, dgram.TAdmit, dgram.AppendAdmitReq(nil, dgram.AdmitReq{Count: 16}))
			for i := 0; i < 16; i++ {
				round = dgram.AppendFrame(round, dgram.TFree, dgram.AppendFreeReq(nil, dgram.FreeReq{Mode: dgram.FreeScenario, Count: 1}))
			}
			c := &feedConn{buf: bytes.Repeat(round, b.N)}
			b.ReportAllocs()
			b.ResetTimer()
			srv.handle(c)
			if st.Total() != 1<<14 || st.Allocs() != int64(16*b.N) {
				b.Fatalf("after %d rounds: %+v", b.N, st.Stats())
			}
		})
	}
}

type countHook struct{}

func (countHook) OnAllocRun([]int) {}
func (countHook) OnFree(int)       {}
func (countHook) OnCrash(int, int) {}
