package main

import (
	"sync"
	"syscall"
	"time"

	"dynalloc/internal/rng"
)

// The load generator. A client is one session's worth of the system
// under test: the real one wraps a router.Session, the tests substitute
// a fake with a known stall. Clients are single-goroutine state; the
// generator gives each its own goroutine and never runs more of them
// than it was handed.

type client interface {
	// free removes one ball; admit places count balls with one call.
	free() error
	admit(count int) error
}

// stageResult is what one traffic stage measured.
type stageResult struct {
	wall   time.Duration
	phases int64 // balls admitted and acknowledged, each paired with a departure

	admit, free latencies // closed loop: one call each
	phase       latencies // open loop: due time → reply
	late        latencies // open loop: send time − due time, on arrivals the generator was idle for

	admitsOK, freesOK int64 // acknowledged balls in and out (the conservation check's inputs)
	attempted, failed int64 // calls made (open loop: arrivals due), and those that failed or never completed
}

func (r *stageResult) mergeWorker(o *stageResult) {
	r.phases += o.phases
	r.admit.merge(&o.admit)
	r.free.merge(&o.free)
	r.phase.merge(&o.phase)
	r.late.merge(&o.late)
	r.admitsOK += o.admitsOK
	r.freesOK += o.freesOK
	r.attempted += o.attempted
	r.failed += o.failed
}

// closedLoop runs one goroutine per client, each issuing its next op
// the moment the previous one returns, until the duration has passed
// (maxOps == 0) or each client has issued maxOps ops. One op is batch
// frees followed by one admit(batch), so the ball count is conserved op
// by op; every call is timed on its own.
func closedLoop(clients []client, batch int, dur time.Duration, maxOps int) stageResult {
	var res stageResult
	parts := make([]stageResult, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, out *stageResult) {
			defer wg.Done()
			for op := 0; maxOps == 0 || op < maxOps; op++ {
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				freed := 0
				for k := 0; k < batch; k++ {
					t0 := time.Now()
					err := c.free()
					out.attempted++
					if err != nil {
						out.failed++
						continue
					}
					out.free.add(time.Since(t0).Nanoseconds())
					freed++
				}
				out.freesOK += int64(freed)
				if freed == 0 {
					continue
				}
				// Re-admit exactly what left, so a failed free never
				// inflates the store.
				t0 := time.Now()
				err := c.admit(freed)
				out.attempted++
				if err != nil {
					out.failed++
					continue
				}
				out.admit.add(time.Since(t0).Nanoseconds())
				out.admitsOK += int64(freed)
				out.phases += int64(freed)
			}
		}(c, &parts[i])
	}
	wg.Wait()
	res.wall = time.Since(start)
	for i := range parts {
		res.mergeWorker(&parts[i])
	}
	return res
}

// arrivals is a Poisson arrival schedule: exponential inter-arrival
// times at a fixed rate, drawn from its own rng stream so the schedule
// is a function of the seed alone. take hands the next due time to
// whichever worker asks first.
type arrivals struct {
	mu   sync.Mutex
	r    *rng.RNG
	rate float64 // arrivals per second
	next time.Time
	end  time.Time
}

func newArrivals(seed, stream uint64, rate float64, start time.Time, dur time.Duration) *arrivals {
	a := &arrivals{r: rng.NewStream(seed, stream), rate: rate, next: start, end: start.Add(dur)}
	a.advance()
	return a
}

func (a *arrivals) advance() {
	a.next = a.next.Add(time.Duration(a.r.Exp() / a.rate * float64(time.Second)))
}

// take returns the next arrival's due time, or false once the schedule
// has passed its end.
func (a *arrivals) take() (time.Time, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.next.Before(a.end) {
		return time.Time{}, false
	}
	due := a.next
	a.advance()
	return due, true
}

// remaining consumes and counts the arrivals nobody took.
func (a *arrivals) remaining() int64 {
	var n int64
	for {
		if _, ok := a.take(); !ok {
			return n
		}
		n++
	}
}

// spinLead is how long before a due time the generator stops sleeping
// and polls the clock instead. The runtime's timers are only good to
// about a millisecond when the process is otherwise idle, and even a
// nanosleep system call wakes a hundred microseconds late in a small
// virtual machine — both would show up as latency in every open-loop
// sample. Sleeping short by this much and polling the rest keeps the
// send within microseconds of due at the cost of this much CPU per
// arrival at most.
const spinLead = 100 * time.Microsecond

// sleepUntil blocks until t. The sleep is a nanosleep system call,
// which does not go through the runtime's timer wheel.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // woken early by a signal: the poll below covers the rest
	}
	for time.Now().Before(t) {
	}
}

// pause sleeps for d without the millisecond rounding of time.Sleep;
// the pollers that time a restart use it.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // a short sleep only makes the poll sooner
}

// openGrace is how long after a stage's end its backlog may still
// complete; an arrival not served by then counts as failed.
const openGrace = time.Second

// openLoop offers Poisson arrivals at rate per second for dur, each
// arrival one phase (a free, then an admit of batch balls), dispatched
// to the first idle client. Latency runs from the arrival's due time,
// not from when a client got round to it, so a stall is charged to
// every arrival that queued behind it: no coordinated omission.
func openLoop(clients []client, batch int, rate float64, dur time.Duration, seed, stream uint64) stageResult {
	var res stageResult
	parts := make([]stageResult, len(clients))
	start := time.Now()
	sched := newArrivals(seed, stream, rate, start, dur)
	cutoff := sched.end.Add(openGrace)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c client, out *stageResult) {
			defer wg.Done()
			for {
				idleAt := time.Now()
				if idleAt.After(cutoff) {
					return
				}
				due, ok := sched.take()
				if !ok {
					return
				}
				out.attempted++
				sleepUntil(due)
				sent := time.Now()
				if !idleAt.After(due) {
					// The generator was waiting for this arrival, so
					// any delay in sending it is the generator's own.
					out.late.add(sent.Sub(due).Nanoseconds())
				}
				if err := c.free(); err != nil {
					out.failed++
					continue
				}
				out.freesOK++
				if err := c.admit(batch); err != nil {
					out.failed++
					continue
				}
				out.admitsOK += int64(batch)
				out.phases += int64(batch)
				out.phase.add(time.Since(due).Nanoseconds())
			}
		}(c, &parts[i])
	}
	wg.Wait()
	res.wall = sched.end.Sub(start)
	for i := range parts {
		res.mergeWorker(&parts[i])
	}
	if left := sched.remaining(); left > 0 {
		res.attempted += left
		res.failed += left
	}
	return res
}
