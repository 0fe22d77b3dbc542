package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dynalloc/internal/process"
	"dynalloc/internal/rng"
)

// MaxCount bounds the count of one Admit or Free request: a ball
// answers with an 8-byte (bin, load) pair, so a full request still fits
// one dgram frame (2^20 × 8 B against dgram.MaxPayload's 16 MiB).
const MaxCount = 1 << 20

// laneChunk is the pass size a Lane admits a larger request in, so its
// scratch stays bounded whatever count the peer asks for. The picks of
// one chunk do not see that chunk's own admissions (Policy.PickBatch).
const laneChunk = 256

// The refusals of the mutating verbs. With ErrEmpty and ErrEmptyBin,
// which the departure verb passes through, they are what a codec maps
// to its own status vocabulary (the table is in docs/SERVING.md).
var (
	// ErrDraining: shutdown, or a promoting follower's fence, has begun.
	ErrDraining = errors.New("shutting down")
	// ErrStandby: an un-promoted replica; the stream is the only writer.
	ErrStandby = errors.New("replica: not promoted (POST /promote to take over)")
	// ErrBadRequest wraps every refused argument: a bin out of range, a
	// count outside 1..MaxCount, a negative or overflowing crash size.
	ErrBadRequest = errors.New("bad request")
)

// The gate's states. Draining is final: it outlives a promotion.
const (
	gateServing int32 = iota
	gateStandby
	gateDraining
)

// Service states the mutating verbs — admit, free, crash — once: which
// arguments they accept, when they refuse, how a large request is
// chunked, which scenario a departure draws from, and that a crash
// marks the detector disrupted. Its one front end, router.Server's
// dgram loop, is a codec over it: decode, one Lane call, encode (HTTP
// is the daemons' admin plane and carries no verb). Journal and
// detector are swappable because a hot standby gains both at promotion;
// the gate is the one place shutdown, a promotion fence and the standby
// role refuse mutations.
type Service struct {
	st   *Store
	pol  Policy
	sc   process.Scenario
	seed uint64

	det  atomic.Pointer[Detector]
	jp   atomic.Pointer[Journal] // nil when durability is off
	gate atomic.Int32

	answered   chan struct{} // closed by the first Answered
	answerOnce sync.Once
}

// NewService returns a serving service with no detector or journal yet
// (see Arm). It panics without a store or policy, mirroring NewEngine.
func NewService(st *Store, pol Policy, sc process.Scenario, seed uint64) *Service {
	if st == nil || pol == nil {
		panic("serve: service needs a store and a policy")
	}
	if sc != process.ScenarioA && sc != process.ScenarioB {
		panic(fmt.Sprintf("serve: unknown scenario %v", sc))
	}
	return &Service{st: st, pol: pol, sc: sc, seed: seed, answered: make(chan struct{})}
}

// Answered records that a front end has written a reply; the listeners
// call it after every one. FirstReply is closed from the first call on:
// the boot's deferred chores wait for it, so nothing but the state
// rebuild stands between a restart and its first answer.
func (s *Service) Answered() { s.answerOnce.Do(func() { close(s.answered) }) }

// FirstReply is closed once a front end has answered a request.
func (s *Service) FirstReply() <-chan struct{} { return s.answered }

// Store, Policy (the prototype Lanes clone) and Scenario return what the
// service was built over.
func (s *Service) Store() *Store              { return s.st }
func (s *Service) Policy() Policy             { return s.pol }
func (s *Service) Scenario() process.Scenario { return s.sc }

// Detector and Journal return what Arm installed; nil when there is
// none (no detector configured, durability off, a standby not promoted).
func (s *Service) Detector() *Detector { return s.det.Load() }
func (s *Service) Journal() *Journal   { return s.jp.Load() }

// Arm installs the journal and detector of a serving primary (either
// may be nil) and ends the standby refusal: boot and promotion end here.
func (s *Service) Arm(j *Journal, det *Detector) {
	s.jp.Store(j)
	s.det.Store(det)
	s.gate.CompareAndSwap(gateStandby, gateServing)
}

// SetStandby makes the mutating verbs refuse with ErrStandby until Arm.
func (s *Service) SetStandby() { s.gate.CompareAndSwap(gateServing, gateStandby) }

// SetDraining makes the mutating verbs refuse with ErrDraining from now
// on, so a shutdown checkpoint sees a quiesced store; reads stay live.
func (s *Service) SetDraining() { s.gate.Store(gateDraining) }

// Draining reports whether SetDraining has been called.
func (s *Service) Draining() bool { return s.gate.Load() == gateDraining }

// refusal is the gate check every mutating verb starts with.
func (s *Service) refusal() error {
	switch s.gate.Load() {
	case gateDraining:
		return ErrDraining
	case gateStandby:
		return ErrStandby
	}
	return nil
}

// Placement is one ball's outcome: the bin it was admitted to or freed
// from, and that bin's load right after.
type Placement struct {
	Bin  int
	Load int32
}

// Lane is one caller's handle on the mutating verbs: its own policy
// clone, rng stream and chunk scratch, so callers never contend on
// admission state — the isolation the Engine gives its workers. It is
// single-caller state (one per connection, or one behind a mutex), and
// a steady stream of calls allocates nothing once dst has grown to the
// largest reply.
type Lane struct {
	svc   *Service
	pol   Policy
	r     *rng.RNG
	bins  [laneChunk]int
	loads [laneChunk]int32
}

// The rng stream layout under one seed: the Engine's workers decide on
// streams 0..W-1 and pace on PacingStream + worker, and the dgram
// listener's connections draw from DgramStream + ordinal — disjoint, so
// neither surface (nor an open-loop pacing draw) perturbs the other's
// allocation decisions.
const (
	PacingStream = 1 << 32
	DgramStream  = 1 << 34
)

// NewLane returns a lane drawing from rng stream `stream` of the
// service's seed.
func (s *Service) NewLane(stream uint64) *Lane {
	return &Lane{svc: s, pol: s.pol.Clone(), r: rng.NewStream(s.seed, stream)}
}

// check is what Admit and Free refuse before any mutation: the gate,
// then a count outside 1..MaxCount.
func (l *Lane) check(count int) error {
	if err := l.svc.refusal(); err != nil {
		return err
	}
	if count < 1 || count > MaxCount {
		return fmt.Errorf("%w: count %d (want 1..%d)", ErrBadRequest, count, MaxCount)
	}
	return nil
}

func badBin(bin, n int) error {
	return fmt.Errorf("%w: bin %d out of range [0,%d)", ErrBadRequest, bin, n)
}

// Admit admits count balls through the policy in passes of at most
// laneChunk, appends one Placement per ball to dst, and returns the
// probes consumed. Each chunk checks, inside its critical section, that
// the store can hold the whole rest of the request, so one that would
// take it past math.MaxInt32 balls is refused (ErrOverflow under
// ErrBadRequest) before anything moves. Traffic racing it to the bound
// can stop a later chunk; then, as in Free, partial success is success.
func (l *Lane) Admit(count int, dst []Placement) ([]Placement, int, error) {
	if err := l.check(count); err != nil {
		return dst, 0, err
	}
	st, probes := l.svc.st, 0
	for left := count; left > 0; {
		n := min(left, laneChunk)
		bins, loads := l.bins[:n], l.loads[:n]
		probes += l.pol.PickBatch(st, l.r, bins)
		if err := st.admit(bins, loads, left); err != nil {
			if left < count {
				break
			}
			return dst, probes, fmt.Errorf("%w: admit of %d balls: %w", ErrBadRequest, count, err)
		}
		for i, b := range bins {
			dst = append(dst, Placement{Bin: b, Load: loads[i]})
		}
		left -= n
	}
	return dst, probes, nil
}

// Free removes count balls — from bin when fromBin is set (a bin out of
// range is refused), otherwise drawn from the service's departure
// scenario (A: uniform ball, B: uniform nonempty bin) one critical
// section per laneChunk departures — and appends one Placement per
// departure to dst. Partial success is success: when the supply runs
// dry mid-request the departures so far are returned with a nil error,
// and ErrEmpty or ErrEmptyBin only when there were none.
func (l *Lane) Free(fromBin bool, bin, count int, dst []Placement) ([]Placement, error) {
	st := l.svc.st
	if err := l.check(count); err != nil {
		return dst, err
	}
	if fromBin && (bin < 0 || bin >= st.n) {
		return dst, badBin(bin, st.n)
	}
	if fromBin {
		for freed := 0; freed < count; freed++ {
			load, err := st.FreeBin(bin)
			if err != nil {
				if freed > 0 {
					err = nil // partial success
				}
				return dst, err
			}
			dst = append(dst, Placement{Bin: bin, Load: int32(load)})
		}
		return dst, nil
	}
	for freed := 0; freed < count; {
		n := min(count-freed, laneChunk)
		got, err := st.freeDrawn(l.r, l.svc.sc, l.bins[:n], l.loads[:n])
		for i := 0; i < got; i++ {
			dst = append(dst, Placement{Bin: l.bins[i], Load: l.loads[i]})
		}
		if freed += got; freed == 0 {
			return dst, err
		} else if got < n {
			break
		}
	}
	return dst, nil
}

// Crash dumps k extra balls into bin — the fault injector — marks the
// detector disrupted so the recovery is measured from the injection,
// and returns the bin's new load. Beyond the gate it refuses a bin out
// of range, a negative k, and a k that would take the store past
// math.MaxInt32 balls (checked inside the crash's critical section;
// nothing is applied).
func (l *Lane) Crash(bin, k int) (int, error) {
	st := l.svc.st
	if err := l.svc.refusal(); err != nil {
		return 0, err
	}
	if bin < 0 || bin >= st.n {
		return 0, badBin(bin, st.n)
	}
	if k < 0 {
		return 0, fmt.Errorf("%w: crash of %d balls", ErrBadRequest, k)
	}
	load, err := st.Crash(bin, k)
	if err != nil {
		return load, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if det := l.svc.Detector(); det != nil {
		det.MarkDisrupted()
	}
	return load, nil
}
