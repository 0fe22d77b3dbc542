// Package router is the cluster tier of the live allocation service:
// the shard-side dgram listener (Server) that lets a dynallocd
// instance speak the binary protocol natively, the client/router layer
// (Router) that partitions the bin space across N shard endpoints and
// applies the paper's d-choice rule ACROSS shards — probe d shards,
// admit at the least loaded — and the fleet load source that lets a
// serve.Detector judge per-shard load digests against the fluid-limit
// prediction exactly as it judges one store (NewDetector).
//
// This is the two-level power-of-d structure of the Luczak–McDiarmid
// continuous-time two-choices model: the router balances ball mass
// across shards by total load, and each shard's local admission policy
// balances across its own bins. Recovery of the whole cluster from an
// adversarial state (a crashed shard bin, a killed and restored shard)
// is measured against the same Theorem 1 budget as the single-node
// service, on the cluster-wide step clock (the sum of shard admission
// clocks).
//
// Fault model: shards fail by connection error or timeout. The router
// degrades rather than fails — a probe that cannot reach its shard
// drops out of the fan-out (d-1 probing), a shard that errors is
// marked down and health-checked in the background until it returns,
// and admissions retry on the surviving shards — so client-visible
// errors require losing every shard. See docs/CLUSTER.md.
package router

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"dynalloc/internal/dgram"
	"dynalloc/internal/metrics"
	"dynalloc/internal/process"
	"dynalloc/internal/serve"
)

// ServerConfig wires a shard's dgram listener to its store.
type ServerConfig struct {
	Store    *serve.Store
	Policy   serve.Policy
	Scenario process.Scenario
	// Seed derives the per-connection rng streams (serve.DgramStream +
	// connection ordinal): deterministic per connection.
	Seed uint64
	// Detector, when set, supplies the Recovered bit of PROBE replies
	// and is notified (MarkDisrupted) on CRASH injections.
	Detector *serve.Detector
}

// Server is the dgram codec over one shard's serve.Service: it decodes
// a frame, makes one Lane call (or reads the store, for PROBE and
// STATE), and encodes the reply; every check, bound and refusal of the
// mutating verbs is the Service's. One goroutine per connection, each
// with its own Lane (policy clone + rng stream serve.DgramStream +
// connection ordinal), so connections never contend on admission
// state and admissions are deterministic per connection.
type Server struct {
	svc     *serve.Service
	connSeq atomic.Uint64
	acc     dgram.Acceptor
}

// NewServer returns a Server over a Service of its own built from cfg.
// It panics without a store or policy, mirroring serve.NewEngine.
func NewServer(cfg ServerConfig) *Server {
	svc := serve.NewService(cfg.Store, cfg.Policy, cfg.Scenario, cfg.Seed)
	svc.Arm(nil, cfg.Detector)
	return NewServiceServer(svc)
}

// NewServiceServer returns a Server over svc — the form a daemon uses,
// so its admin plane and its dgram listener share ONE service, and so
// one gate: svc.SetDraining refuses every mutation.
func NewServiceServer(svc *serve.Service) *Server {
	return &Server{svc: svc}
}

// Serve accepts connections on ln until Close (or an unrecoverable
// accept error) and blocks until every connection handler has exited.
func (s *Server) Serve(ln net.Listener) error { return s.acc.Serve(ln, s.handle) }

// Close stops accepting, closes every live connection, and waits for
// the handlers to exit.
func (s *Server) Close() error { return s.acc.Close() }

// errCode maps a decode failure or a Service refusal to the protocol's
// error vocabulary. A standby answers as a draining shard does: the
// router pushes the traffic elsewhere and keeps probing.
func errCode(err error) dgram.ErrCode {
	switch {
	case errors.Is(err, dgram.ErrShort), errors.Is(err, serve.ErrBadRequest):
		return dgram.CodeBadRequest
	case errors.Is(err, serve.ErrEmpty), errors.Is(err, serve.ErrEmptyBin):
		return dgram.CodeEmpty
	case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStandby):
		return dgram.CodeDraining
	}
	return dgram.CodeInternal
}

// handle is one connection's request loop. All reply encoding goes
// through per-connection scratch buffers, so a steady request stream
// does not allocate, and a STATE reply holds one piece of the vector
// at a time.
func (s *Server) handle(c net.Conn) {
	st := s.svc.Store()
	lane := s.svc.NewLane(serve.DgramStream + s.connSeq.Add(1))
	fr := dgram.NewReader(c)
	fw := dgram.NewWriter(c)

	var payload []byte           // reply payload scratch
	var placed []serve.Placement // admit/free outcomes
	var pairs []dgram.BinLoad    // ... in their wire form

	binLoads := func() []byte {
		pairs = pairs[:0]
		for _, p := range placed {
			pairs = append(pairs, dgram.BinLoad{Bin: uint32(p.Bin), Load: p.Load})
		}
		return dgram.AppendBinLoads(payload[:0], pairs)
	}

	for {
		t, req, err := fr.ReadFrame()
		if err != nil {
			return // connection gone, version skew, or corruption: drop it
		}
		metrics.AddCounter("dgram.server.requests", 1)
		var rt dgram.Type // the reply when err stays nil
		switch t {
		case dgram.TProbe:
			sum := st.LoadSummary()
			w := dgram.Summary{
				N:        uint32(sum.N),
				Total:    sum.Total,
				MaxLoad:  int32(sum.MaxLoad),
				NonEmpty: sum.NonEmpty,
				Allocs:   sum.Allocs,
				Frees:    sum.Frees,
			}
			if d := s.svc.Detector(); d != nil {
				w.Recovered = d.Recovered()
			}
			rt, payload = dgram.TSummary, dgram.AppendSummary(payload[:0], w)

		case dgram.TAdmit:
			var q dgram.AdmitReq
			if q, err = dgram.DecodeAdmitReq(req); err == nil {
				placed, _, err = lane.Admit(int(q.Count), placed[:0])
			}
			if rt = dgram.TAdmitOK; err == nil {
				payload = binLoads()
			}

		case dgram.TFree:
			var q dgram.FreeReq
			if q, err = dgram.DecodeFreeReq(req); err == nil {
				placed, err = lane.Free(q.Mode == dgram.FreeBin, int(q.Bin), int(q.Count), placed[:0])
			}
			if rt = dgram.TFreeOK; err == nil {
				payload = binLoads()
			}

		case dgram.TCrash:
			var q dgram.CrashReq
			var load int
			if q, err = dgram.DecodeCrashReq(req); err == nil {
				load, err = lane.Crash(int(q.Bin), int(q.K))
			}
			rt, payload = dgram.TCrashOK, dgram.AppendLoad(payload[:0], int32(load))

		case dgram.TState:
			// Streamed from the store, so no copy of the vector is held.
			// A store too large for one frame is refused before a byte
			// is written; PROBE still serves it.
			if err = fw.WriteState(st.Allocs(), st.Frees(), st.N(), st.Load); err == nil {
				s.svc.Answered()
				continue
			}
			if !errors.Is(err, dgram.ErrTooLarge) {
				return // connection gone
			}

		default:
			// A reply type (or anything else) arriving as a request is a
			// confused peer, not a crash.
			err = fmt.Errorf("%w: unexpected frame %v", serve.ErrBadRequest, t)
		}
		if err != nil {
			metrics.AddCounter("dgram.server.errors", 1)
			rt = dgram.TErr
			payload = dgram.AppendErrReply(payload[:0], dgram.ErrReply{Code: errCode(err), Msg: err.Error()})
		}
		if fw.WriteFrame(rt, payload) != nil {
			return
		}
		s.svc.Answered()
	}
}
