package replica

import (
	"errors"
	"testing"

	"dynalloc/internal/dgram"
	"dynalloc/internal/rng"
	"dynalloc/internal/serve"
	"dynalloc/internal/simfs"
	"dynalloc/internal/wal"
)

// The tests in this file drive the replication pipeline with no
// network: a Shipper pumping frames straight into a Follower's
// Deliver, both on simulated filesystems. This is the same coupling
// the Streamer provides over TCP, minus the sockets — so every
// schedule is deterministic and crash points are exact.

const (
	schedN      = 16
	schedShards = 4
)

// tinySeg forces a rotation every ~20 records so schedules exercise
// segment boundaries constantly.
var tinySeg = int64(16 + 20*wal.RecordSize)

// primary is a journaled store on its own simulated filesystem.
type primary struct {
	t     *testing.T
	fs    *simfs.FS
	dir   string
	fsync wal.FsyncPolicy
	l     *wal.Log
	st    *serve.Store
	j     *serve.Journal
}

func newPrimary(t *testing.T, fill int, fsync wal.FsyncPolicy) *primary {
	t.Helper()
	p := &primary{t: t, fs: simfs.New(), dir: "/primary", fsync: fsync}
	l, err := wal.Open(wal.Options{Dir: p.dir, FS: p.fs, Fsync: fsync, SegmentBytes: tinySeg})
	if err != nil {
		t.Fatal(err)
	}
	p.l = l
	p.st = serve.NewStoreShards(schedN, schedShards)
	p.st.FillBalanced(fill)
	p.j = serve.NewJournal(p.st, l, 0, serve.JournalOptions{Buffer: 8192, MaxBatch: 4, SyncWriter: true})
	p.j.Drain()
	// The boot image: balanced seeding predates the journal hook, so
	// it exists only here — exactly the production layout a fresh
	// subscription must be able to bootstrap from.
	if _, _, err := p.j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return p
}

// admitOne admits one ball into bin b: a pass of one through the
// store's only admission path.
func admitOne(st *serve.Store, b int) {
	st.AdmitBatch([]int{b}, nil)
}

// mutate applies ops random mutations and drains them to the log.
func (p *primary) mutate(r *rng.RNG, ops int) {
	for i := 0; i < ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			p.st.FreeBin(r.Intn(schedN)) // empty-bin errors are fine: not journaled
		case 3:
			p.st.Crash(r.Intn(schedN), 1+r.Intn(3))
		default:
			admitOne(p.st, r.Intn(schedN))
		}
	}
	p.j.Drain()
}

// checkpoint cuts a checkpoint (which also prunes + truncates the log
// behind the oldest retained one).
func (p *primary) checkpoint() {
	p.t.Helper()
	if _, _, err := p.j.Checkpoint(); err != nil {
		p.t.Fatal(err)
	}
}

// powerCutRestart kills the primary process (losing unsynced bytes per
// its fsync policy) and restores a fresh store + journal from disk.
func (p *primary) powerCutRestart() {
	p.t.Helper()
	p.j.Close() // best effort; the cut below fences everything anyway
	p.fs.PowerCut(nil)
	l, err := wal.Open(wal.Options{Dir: p.dir, FS: p.fs, Fsync: p.fsync, SegmentBytes: tinySeg})
	if err != nil {
		p.t.Fatal(err)
	}
	st := serve.NewStoreShards(schedN, schedShards)
	res, err := serve.RestoreFSOpts(st, p.fs, p.dir, serve.RestoreOptions{})
	if err != nil {
		p.t.Fatal(err)
	}
	p.l = l
	p.st = st
	p.j = serve.NewJournal(st, l, res.LastSeq, serve.JournalOptions{Buffer: 8192, MaxBatch: 4, SyncWriter: true})
}

// standby is a Follower on its own simulated filesystem.
type standby struct {
	fs *simfs.FS
	st *serve.Store
	f  *Follower
}

func openStandby(t *testing.T, fs *simfs.FS) *standby {
	t.Helper()
	st := serve.NewStoreShards(schedN, schedShards)
	f, _, err := NewFollower(FollowerConfig{
		Store:           st,
		FS:              fs,
		Dir:             "/standby",
		Fsync:           wal.FsyncAlways,
		SegmentBytes:    tinySeg,
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &standby{fs: fs, st: st, f: f}
}

func newStandby(t *testing.T) *standby { return openStandby(t, simfs.New()) }

// powerCut kills the standby process and reopens it from its own
// durable state — the old Follower's handles are fenced and abandoned.
func (s *standby) powerCut(t *testing.T) *standby {
	t.Helper()
	s.fs.PowerCut(nil)
	return openStandby(t, s.fs)
}

// errShipStop is the sentinel a frame budget stops a ship with.
var errShipStop = errors.New("ship stop")

// ship streams the primary's log into the standby, exactly as one
// Streamer connection would: a fresh subscription from the follower's
// applied seq, with the divergent-subscriber snapshot check. maxFrames
// > 0 cuts the stream after that many frames (a mid-flight
// disconnect). Returns frames delivered and whether it caught up.
func ship(t *testing.T, p *primary, s *standby, maxFrames int) (int, bool) {
	t.Helper()
	after := s.f.AppliedSeq()
	sh := NewShipper(ShipperConfig{
		FS:            p.fs,
		Dir:           p.dir,
		BatchRecords:  5,
		ForceSnapshot: after > p.j.LastSeq(),
	}, after)
	defer sh.Close()
	n := 0
	caught, err := sh.Pump(func(ty dgram.Type, payload []byte) error {
		if maxFrames > 0 && n >= maxFrames {
			return errShipStop
		}
		n++
		return s.f.Deliver(ty, payload)
	})
	if err != nil && !errors.Is(err, errShipStop) {
		t.Fatalf("ship: %v", err)
	}
	return n, caught
}

// assertConverged checks the two invariants of a quiesced, caught-up
// pair: the standby's warm store is bit-exact with the primary, and
// bit-exact with a reference restore of the standby's own directory
// (the state a restart — or a promotion — would serve from).
func assertConverged(t *testing.T, p *primary, s *standby, repro string) {
	t.Helper()
	pl, sl := p.st.LoadsCopy(), s.st.LoadsCopy()
	for b := range pl {
		if pl[b] != sl[b] {
			t.Fatalf("bin %d: standby %d, primary %d (%s)", b, sl[b], pl[b], repro)
		}
	}
	if p.st.Allocs() != s.st.Allocs() || p.st.Frees() != s.st.Frees() {
		t.Fatalf("op clocks: standby %d/%d, primary %d/%d (%s)",
			s.st.Allocs(), s.st.Frees(), p.st.Allocs(), p.st.Frees(), repro)
	}
	assertSelfConsistent(t, s, repro)
}

// assertSelfConsistent checks the standby's warm store against a
// reference restore of its own directory.
func assertSelfConsistent(t *testing.T, s *standby, repro string) {
	t.Helper()
	ref := serve.NewStoreShards(schedN, schedShards)
	res, err := serve.RestoreFSOpts(ref, s.fs.Clone(), "/standby", serve.RestoreOptions{})
	if err != nil {
		t.Fatalf("reference restore: %v (%s)", err, repro)
	}
	if res.LastSeq != s.f.AppliedSeq() {
		t.Fatalf("reference replay reaches seq %d, warm store claims %d (%s)",
			res.LastSeq, s.f.AppliedSeq(), repro)
	}
	rl, sl := ref.LoadsCopy(), s.st.LoadsCopy()
	for b := range rl {
		if rl[b] != sl[b] {
			t.Fatalf("bin %d: warm %d, own-dir replay %d (%s)", b, sl[b], rl[b], repro)
		}
	}
	if ref.Allocs() != s.st.Allocs() || ref.Frees() != s.st.Frees() {
		t.Fatalf("op clocks: warm %d/%d, own-dir replay %d/%d (%s)",
			s.st.Allocs(), s.st.Frees(), ref.Allocs(), ref.Frees(), repro)
	}
}

// TestShipBootstrapAndFollow is the happy path: a fresh follower gets
// the boot image as a SNAPSHOT (seeded balls exist in no WAL record),
// then incremental batches as the primary keeps writing.
func TestShipBootstrapAndFollow(t *testing.T) {
	r := rng.New(1)
	p := newPrimary(t, 6, wal.FsyncAlways)
	s := newStandby(t)

	if _, caught := ship(t, p, s, 0); !caught {
		t.Fatal("bootstrap ship did not catch up")
	}
	if s.f.Status().Snapshots != 1 {
		t.Fatalf("bootstrap used %d snapshots, want exactly 1", s.f.Status().Snapshots)
	}
	if s.st.Total() != p.st.Total() {
		t.Fatalf("seeded balls missing: standby total %d, primary %d", s.st.Total(), p.st.Total())
	}
	assertConverged(t, p, s, "bootstrap")

	for i := 0; i < 5; i++ {
		p.mutate(r, 40)
		if _, caught := ship(t, p, s, 0); !caught {
			t.Fatalf("follow round %d did not catch up", i)
		}
	}
	// The first follow round still subscribes from seq 0 (a seq-0
	// subscriber is indistinguishable from a fresh one, so it gets the
	// boot image again — idempotent); every later round streams records
	// only.
	if s.f.Status().Snapshots != 2 {
		t.Fatalf("steady-state follow resynced: %d snapshots, want 2", s.f.Status().Snapshots)
	}
	assertConverged(t, p, s, "follow")
}

// TestShipTruncationResync pins the gap path: the primary checkpoints
// and truncates past a lagging follower's position, so the next
// subscription cannot be served from the log alone and must be primed
// with a snapshot — after which it converges exactly.
func TestShipTruncationResync(t *testing.T) {
	r := rng.New(2)
	p := newPrimary(t, 4, wal.FsyncAlways)
	s := newStandby(t)
	ship(t, p, s, 0)

	// The follower sleeps while the primary writes on and checkpoints
	// twice (truncation runs behind the *oldest* retained checkpoint).
	p.mutate(r, 120)
	p.checkpoint()
	p.mutate(r, 120)
	p.checkpoint()

	before := s.f.Status().Snapshots
	if _, caught := ship(t, p, s, 0); !caught {
		t.Fatal("resync ship did not catch up")
	}
	if got := s.f.Status().Snapshots; got != before+1 {
		t.Fatalf("truncation resync used %d snapshots, want 1", got-before)
	}
	assertConverged(t, p, s, "truncation resync")
}

// TestShipDivergentFollowerRewound pins the fencing rule for a
// follower that outlived the primary's durable state: the primary
// lost unsynced records in a power cut, restarted, and re-issued seqs
// the follower had already applied from the dead timeline. The
// subscription must be rewound onto the primary's history with a
// forced snapshot, never silently resumed.
func TestShipDivergentFollowerRewound(t *testing.T) {
	r := rng.New(3)
	p := newPrimary(t, 4, wal.FsyncNever) // unsynced tail dies with the process
	s := newStandby(t)
	p.mutate(r, 80)
	// Seal flushes the bufio tail into the (simulated) page cache —
	// visible to the tail reader, but NOT durable under FsyncNever.
	if err := p.l.Seal(); err != nil {
		t.Fatal(err)
	}
	ship(t, p, s, 0) // follower applies the full (partly unsynced) log

	ahead := s.f.AppliedSeq()
	p.powerCutRestart()
	if p.j.LastSeq() >= ahead {
		t.Fatalf("schedule did not diverge: primary restored to %d, follower at %d", p.j.LastSeq(), ahead)
	}
	// The restarted primary writes its own history over the re-issued
	// seq range.
	p.mutate(r, 60)
	p.checkpoint()

	if _, caught := ship(t, p, s, 0); !caught {
		t.Fatal("divergent ship did not catch up")
	}
	assertConverged(t, p, s, "divergent rewind")
}
