package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The span recorder of the traced run. A span is one call across a
// layer boundary: its kind, when it started and ended, a count it
// carried (balls, records, bytes), the span that caused it, and the id
// of the client operation it was part of. Spans are kept in memory and
// written out when the run ends.
//
// Spans are recorded per lane. A lane is a sequence of calls that
// cannot overlap: one generator client, one connection handler of a
// shard, one lock stripe's hook calls, one file's writes. Within a lane
// nesting is a stack, so the parent of a span is known when it begins
// and its self time — its duration less the part its children cover —
// when it ends. Two links cross lanes and are resolved afterwards: from
// a shard's service span back to the client call that sent the frame
// (by which connection belongs to which client), and from a hook call
// to the service span it ran inside (by shard and time).

type spanKind uint8

const (
	spAdmitCall    spanKind = iota // Session.AdmitBatch, client side
	spFreeCall                     // Session.Free, client side
	spProbeCall                    // Session.Probe, client side
	spServiceAdmit                 // shard: request read → reply written, by frame type
	spServiceFree
	spServiceProbe
	spServiceOther
	spConnWrite      // the reply's Write call on the server-side conn
	spPolicyPick     // BatchPolicy.PickBatch
	spJournalEnqueue // the store hook: Journal.OnFree / OnAllocRun / ...
	spWalWrite       // File.Write on a WAL segment
	spWalFsync       // File.Sync on a WAL segment
	spCkptWrite      // File.Write on any other file of the durability directory
	spCkptFsync
	spCheckpoint    // Journal.Checkpoint
	spDetectorCheck // Detector.Check
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"router.admit_call", "router.free_call", "router.probe_call",
	"shard.service.admit", "shard.service.free", "shard.service.probe", "shard.service.other",
	"dgram.conn_write", "policy.pick_batch", "journal.enqueue",
	"wal.write", "wal.fsync", "checkpoint.file_write", "checkpoint.file_fsync",
	"journal.checkpoint", "detector.check",
}

func (k spanKind) isService() bool { return k >= spServiceAdmit && k <= spServiceOther }

type span struct {
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
	n          int64 // what the call carried: balls, records or bytes
	parent     int32 // index of the enclosing span in the same lane, -1 at the lane's root
	covered    int64 // ns of [start, end] covered by child spans
	who        int32 // client spans: client index; service spans: connection id
	link       int64 // resolved afterwards: global id of a parent in another lane (0: none)
}

type lane struct {
	spans []span
	stack []int32
	base  int64 // global id of spans[0] is base+1; set by assemble
	shard int32 // the shard a handler's or a hook's lane belongs to, else -1
}

func (l *lane) begin(k spanKind, now int64) int32 {
	parent := int32(-1)
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1]
	}
	l.spans = append(l.spans, span{kind: k, start: now, parent: parent, who: -1})
	i := int32(len(l.spans) - 1)
	l.stack = append(l.stack, i)
	return i
}

func (l *lane) end(i int32, now, n int64) {
	s := &l.spans[i]
	s.end = now
	s.n += n
	l.stack = l.stack[:len(l.stack)-1]
	if s.parent >= 0 {
		p := &l.spans[s.parent]
		p.covered += s.end - s.start
		if s.kind == spPolicyPick {
			p.n += s.n // an ADMIT's service span carries the balls it placed
		}
	}
}

// abandon drops a span that began and will never end (a connection that
// closed while a request was being read).
func (l *lane) abandon(i int32) {
	if int(i) == len(l.spans)-1 && len(l.stack) > 0 && l.stack[len(l.stack)-1] == i {
		l.stack = l.stack[:len(l.stack)-1]
		l.spans = l.spans[:i]
	}
}

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	byGID map[int64]*lane
	lanes []*lane
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byGID: make(map[int64]*lane)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newLane returns a lane owned by its caller, for a sequence of calls
// the caller knows cannot overlap.
func (t *tracer) newLane() *lane {
	l := &lane{shard: -1}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// goroutineLane returns the calling goroutine's lane, making it on
// first use. It is for wrappers whose instance is bound to one
// goroutine: they call it once and keep the result, so that everything
// recorded on that goroutine nests in one stack.
func (t *tracer) goroutineLane() *lane {
	gid := goid()
	t.mu.Lock()
	l := t.byGID[gid]
	if l == nil {
		l = &lane{shard: -1}
		t.byGID[gid] = l
		t.lanes = append(t.lanes, l)
	}
	t.mu.Unlock()
	return l
}

// goid returns the calling goroutine's id, read off the first line of
// its stack trace ("goroutine 123 [running]:"). The runtime offers no
// cheaper way, and this one walks the whole stack — tens of
// microseconds under a request handler — so it is called once per
// connection, never per span.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// assemble gives every span its global id and resolves the links from
// service spans to client calls. connClient maps a connection id to the
// client it was bound to (absent: the router's own health probes).
func (t *tracer) assemble(connClient map[int32]int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var next int64
	for _, l := range t.lanes {
		l.base = next
		next += int64(len(l.spans))
	}
	// Client calls by client, in time order (each client is one lane).
	type ref struct {
		l *lane
		i int
	}
	calls := make(map[int32][]ref)
	for _, l := range t.lanes {
		for i := range l.spans {
			if s := &l.spans[i]; s.kind <= spProbeCall && s.parent < 0 {
				calls[s.who] = append(calls[s.who], ref{l, i})
			}
		}
	}
	// What the service spans of one call cover of it. A fan-out's
	// service spans overlap each other, and the call waits for the
	// slowest, so an interval counts once.
	type cover struct {
		parent     *span
		start, end int64
	}
	var covers []cover
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			if !s.kind.isService() {
				continue
			}
			client, ok := connClient[s.who]
			if !ok {
				continue
			}
			cs := calls[client]
			// The last call that started at or before the service did.
			j := sort.Search(len(cs), func(j int) bool { return cs[j].l.spans[cs[j].i].start > s.start }) - 1
			if j < 0 {
				continue
			}
			p := &cs[j].l.spans[cs[j].i]
			if s.start > p.end {
				continue // between two calls: not this client's frame after all
			}
			s.link = cs[j].l.base + int64(cs[j].i) + 1
			// The reply can reach the client before the shard's Write
			// call has returned; the call is covered only up to its end.
			end := s.end
			if end > p.end {
				end = p.end
			}
			covers = append(covers, cover{p, s.start, end})
		}
	}
	sort.Slice(covers, func(a, b int) bool {
		if covers[a].parent != covers[b].parent {
			return covers[a].parent.start < covers[b].parent.start || (covers[a].parent.start == covers[b].parent.start && covers[a].parent.who < covers[b].parent.who)
		}
		return covers[a].start < covers[b].start
	})
	var reach int64 // end of the union so far, within the current parent
	for i, c := range covers {
		if i == 0 || covers[i-1].parent != c.parent {
			reach = c.parent.start
		}
		from := c.start
		if from < reach {
			from = reach
		}
		if c.end > from {
			c.parent.covered += c.end - from
			reach = c.end
		}
	}
	t.linkHooks()
}

// linkHooks gives every hook call the service span it ran inside: the
// one on the same shard that contains it in time. With two clients
// inside one shard at once two spans can; then the one whose frame type
// fits the hook (a departure's hook under FREE, an admission run's
// under ADMIT) and, of those, the one that started last is taken. The
// totals per kind do not depend on that choice.
func (t *tracer) linkHooks() {
	type ref struct {
		l *lane
		i int
	}
	services := make(map[int32][]ref)
	for _, l := range t.lanes {
		for i := range l.spans {
			if l.shard >= 0 && l.spans[i].kind.isService() && l.spans[i].end != 0 {
				services[l.shard] = append(services[l.shard], ref{l, i})
			}
		}
	}
	for _, refs := range services {
		sort.Slice(refs, func(a, b int) bool { return refs[a].l.spans[refs[a].i].start < refs[b].l.spans[refs[b].i].start })
	}
	for _, l := range t.lanes {
		if l.shard < 0 {
			continue
		}
		refs := services[l.shard]
		for i := range l.spans {
			h := &l.spans[i]
			if h.kind != spJournalEnqueue || h.parent >= 0 {
				continue
			}
			want := spServiceFree
			if h.who == hookAdmit {
				want = spServiceAdmit
			}
			j := sort.Search(len(refs), func(j int) bool { return refs[j].l.spans[refs[j].i].start > h.start }) - 1
			var best *span
			var bestID int64
			// A shard has a handful of connections, so the spans still
			// open at h.start are among the last few that began.
			for back := 0; j >= 0 && back < 8; j, back = j-1, back+1 {
				sv := &refs[j].l.spans[refs[j].i]
				if sv.end < h.end {
					continue
				}
				if best == nil || (sv.kind == want && best.kind != want) {
					best, bestID = sv, refs[j].l.base+int64(refs[j].i)+1
				}
			}
			if best != nil {
				h.link = bestID
				best.covered += h.end - h.start
			}
		}
	}
}

// What a hook span's who field says about the call.
const (
	hookFree  int32 = 0 // OnFree
	hookAdmit int32 = 1 // OnAlloc, OnAllocRun
	hookOther int32 = 2 // OnCrash
)

// kindStats is what the spans of one kind add up to. Sums are exact
// but one descheduled handler moves them; the per-unit figures are
// medians over spans, which it does not.
type kindStats struct {
	count       int64
	total       int64 // Σ duration, ns
	self        int64 // Σ (duration − covered), ns
	n           int64 // Σ carried count
	durations   latencies
	perUnit     latencies // duration ÷ carried count, per span
	selfPerUnit latencies // self time ÷ carried count, per span
}

func (t *tracer) stats() [numSpanKinds]kindStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numSpanKinds]kindStats
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			if s.end == 0 {
				continue
			}
			k := &out[s.kind]
			d := s.end - s.start
			k.count++
			k.total += d
			k.self += d - s.covered
			k.n += s.n
			k.durations.add(d)
			units := float64(s.n)
			if units < 1 {
				units = 1
			}
			k.perUnit.ns = append(k.perUnit.ns, float64(d)/units)
			k.selfPerUnit.ns = append(k.selfPerUnit.ns, float64(d-s.covered)/units)
		}
	}
	return out
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, l := range t.lanes {
		total += len(l.spans)
	}
	return total
}

// maxSpansWritten bounds the trace file; a full stage of spans is tens of
// megabytes nobody reads past the first few thousand operations.
const maxSpansWritten = 100_000

// write stores the spans, oldest lanes first, one JSON object a line.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int64  `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int64  `json:"parent"`
		Op     int64  `json:"op"`
		N      int64  `json:"n,omitempty"`
	}
	// The op of a span is the id of the root it hangs from, followed
	// through the cross-lane link.
	var rootOf func(l *lane, i int) int64
	linked := make(map[int64]int64) // global id of a lane root → its op
	for _, l := range t.lanes {
		for i := range l.spans {
			if s := &l.spans[i]; s.parent < 0 && s.link != 0 {
				linked[l.base+int64(i)+1] = s.link
			}
		}
	}
	rootOf = func(l *lane, i int) int64 {
		for l.spans[i].parent >= 0 {
			i = int(l.spans[i].parent)
		}
		id := l.base + int64(i) + 1
		if op, ok := linked[id]; ok {
			return op // client calls are lane roots: one hop reaches the op
		}
		return id
	}
	written := 0
	for _, l := range t.lanes {
		for i := range l.spans {
			s := &l.spans[i]
			if s.end == 0 {
				continue
			}
			if written == maxSpansWritten {
				return w.Flush()
			}
			parent := s.link
			if s.parent >= 0 {
				parent = l.base + int64(s.parent) + 1
			}
			if err := enc.Encode(line{l.base + int64(i) + 1, spanNames[s.kind], s.start, s.end, parent, rootOf(l, i), s.n}); err != nil {
				return err
			}
			written++
		}
	}
	return w.Flush()
}
