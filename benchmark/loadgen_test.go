package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// fakeClient is a system under test with a known fault: every call
// returns at once, except that the free numbered stallAt takes stall.
// It times its own calls the way a closed-loop client would.
type fakeClient struct {
	stallAt int
	stall   time.Duration
	failAt  int // a free that fails (0: none)

	frees, admits int
	service       latencies
}

func (c *fakeClient) free() error {
	t0 := time.Now()
	c.frees++
	if c.frees == c.stallAt {
		time.Sleep(c.stall)
	}
	c.service.add(time.Since(t0).Nanoseconds())
	if c.frees == c.failAt {
		return errors.New("injected")
	}
	return nil
}

func (c *fakeClient) admit(int) error {
	c.admits++
	return nil
}

// A 50 ms stall in an open loop at 2000 arrivals a second delays the
// hundred arrivals that fall due during it, and those queued behind them.
// Timed from the due time that shows in the p99; timed from the send
// time — what the stalled client itself sees, and what a closed loop
// would report — one slow call in twelve hundred vanishes below the p99.
func TestOpenLoopChargesStallToQueuedArrivals(t *testing.T) {
	const rate, dur = 2000, 600 * time.Millisecond
	run := func(stall time.Duration) (fromDue, fromSend summary, res stageResult) {
		c := &fakeClient{stallAt: 400, stall: stall}
		res = openLoop([]client{c}, 1, rate, dur, 42, 1)
		return res.phase.summarize(1e3), c.service.summarize(1e3), res
	}
	// A timing test on a shared machine: a descheduled test process is
	// itself a stall. Each scenario gets three tries to show its clean
	// outcome; an injected stall can be hidden by no amount of retrying.
	var quiet, due, send summary
	var qres, res stageResult
	for try := 0; try < 3; try++ {
		if quiet, _, qres = run(0); quiet.tail <= 10_000 {
			break
		}
	}
	for try := 0; try < 3; try++ {
		if due, send, res = run(50 * time.Millisecond); send.tail <= 10_000 {
			break
		}
	}

	if qres.failed != 0 || res.failed != 0 {
		t.Fatalf("failed arrivals: %d without the stall, %d with it", qres.failed, res.failed)
	}
	if res.attempted != qres.attempted {
		t.Errorf("same seed, different schedules: %d and %d arrivals", qres.attempted, res.attempted)
	}
	if n := float64(res.attempted); math.Abs(n-rate*dur.Seconds()) > 5*math.Sqrt(n) {
		t.Errorf("%d arrivals in %v at %d/s", res.attempted, dur, rate)
	}
	if due.tailP != 99 || quiet.tailP != 99 {
		t.Fatalf("too few samples for a p99: %+v %+v", due, quiet)
	}
	if quiet.tail > 10_000 {
		t.Errorf("no stall, yet p99 from due time is %.0f us", quiet.tail)
	}
	if due.tail < 20_000 {
		t.Errorf("50 ms stall: p99 from due time is only %.0f us — the backlog is hidden", due.tail)
	}
	if send.tail > 10_000 {
		t.Errorf("p99 from send time is %.0f us: one slow call in %d should not reach it", send.tail, send.n)
	}
}

func TestArrivalsAreAFunctionOfTheSeed(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	draw := func(seed, stream uint64) []time.Time {
		a := newArrivals(seed, stream, 500, start, time.Second)
		var out []time.Time
		for {
			due, ok := a.take()
			if !ok {
				return out
			}
			out = append(out, due)
		}
	}
	a, b, c := draw(7, 1), draw(7, 1), draw(7, 2)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d and %d arrivals", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("same seed: arrival %d differs", i)
		}
		if i > 0 && !a[i].After(a[i-1]) {
			t.Fatalf("arrival %d not after arrival %d", i, i-1)
		}
		if same && !a[i].Equal(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("streams 1 and 2 gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-500) > 5*math.Sqrt(500) {
		t.Errorf("%g arrivals in 1 s at 500/s", n)
	}
	if last := a[len(a)-1]; !last.Before(start.Add(time.Second)) {
		t.Errorf("arrival at %v, past the end", last.Sub(start))
	}
	// What nobody took is counted, once.
	sched := newArrivals(7, 1, 500, start, time.Second)
	sched.take()
	if left := sched.remaining(); left != int64(len(a)-1) {
		t.Errorf("remaining = %d, want %d", left, len(a)-1)
	}
	if left := sched.remaining(); left != 0 {
		t.Errorf("remaining twice = %d", left)
	}
}

// The closed loop re-admits exactly what left, so the ball count is
// conserved op by op even when a departure fails.
func TestClosedLoopConservesBalls(t *testing.T) {
	c := &fakeClient{failAt: 5}
	res := closedLoop([]client{c}, 4, 0, 3)
	if res.attempted != 3*4+3 || res.failed != 1 {
		t.Errorf("attempted %d failed %d, want 15 and 1", res.attempted, res.failed)
	}
	if res.freesOK != 11 || res.admitsOK != 11 || res.phases != 11 {
		t.Errorf("freed %d admitted %d phases %d, want 11 each", res.freesOK, res.admitsOK, res.phases)
	}
	if res.free.count() != 11 || res.admit.count() != 3 {
		t.Errorf("%d free and %d admit samples, want 11 and 3", res.free.count(), res.admit.count())
	}
}
