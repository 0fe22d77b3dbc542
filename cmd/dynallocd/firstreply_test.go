package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/dgram"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// bootDir writes a durability directory whose boot maintenance has
// real work: a checkpoint at seq 0, which the boot checkpoint's prune
// removes; a WAL segment of records 1..k whose footer is cut off, like
// the open tail of a killed shard; a checkpoint at seq k covering it,
// so the boot checkpoint's truncation removes the segment; and a
// sealed segment of 10 more records, so the boot checkpoint is a third
// one. It returns the directory and the two paths maintenance removes.
func bootDir(t *testing.T, n, k int) (dir string, garbage []string) {
	t.Helper()
	dir = t.TempDir()
	loads := make([]int32, n)
	for b := range loads {
		loads[b] = 1
	}
	old, err := checkpoint.WriteFS(vfs.OS, dir, checkpoint.Snapshot{Loads: loads})
	if err != nil {
		t.Fatal(err)
	}
	appendRun := func(from, to int) {
		l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		var recs []wal.Record
		for seq := from; seq <= to; seq++ {
			recs = append(recs, wal.Record{Op: wal.OpAlloc, Bin: uint32(seq % n), K: 1, Seq: uint64(seq)})
			if seq <= k {
				loads[seq%n]++
			}
		}
		if err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendRun(1, k)
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], int64(len(data)-wal.FooterLen(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.WriteFS(vfs.OS, dir, checkpoint.Snapshot{Seq: uint64(k), Allocs: int64(k), Loads: loads}); err != nil {
		t.Fatal(err)
	}
	appendRun(k+1, k+10)
	return dir, []string{old, segs[0]}
}

// boot runs dynallocd with a dgram listener on an ephemeral port and
// returns its address once the port file is there, the moment it saw
// it, and the channel run's exit code arrives on.
func boot(t *testing.T, opt options) (string, time.Time, chan int) {
	t.Helper()
	pf := filepath.Join(t.TempDir(), "dgram.port")
	opt.dgramAddr, opt.dgramPortFile = "127.0.0.1:0", pf
	done := make(chan int, 1)
	go func() { done <- run(opt) }()
	for {
		if b, err := os.ReadFile(pf); err == nil {
			return strings.TrimSpace(string(b)), time.Now(), done
		}
		select {
		case code := <-done:
			t.Fatalf("dynallocd exited %d before listening", code)
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// probe sends one PROBE to addr and waits for its reply.
func probe(t *testing.T, addr string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := dgram.NewWriter(c).WriteFrame(dgram.TProbe, nil); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := dgram.NewReader(c).ReadFrame(); err != nil || typ != dgram.TSummary {
		t.Fatalf("PROBE answered %v, %v", typ, err)
	}
}

// stop shuts a booted dynallocd down the way an operator does and
// returns its exit code.
func stop(t *testing.T, done chan int) int {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		return code
	case <-time.After(30 * time.Second):
		t.Fatal("dynallocd did not shut down")
	}
	return -1
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestBootMaintenanceWaitsForFirstReply: the boot checkpoint's prune
// and truncation stay off the restart's critical path. However long
// nobody asks, the garbage they remove is still there; once a PROBE is
// answered, it goes.
func TestBootMaintenanceWaitsForFirstReply(t *testing.T) {
	dir, garbage := bootDir(t, 64, 5000)
	addr, _, done := boot(t, options{
		addr: "", n: 64, m: 64, d: 2, scenario: "A",
		seed: 5, workers: 1, slack: 1, checkInterval: time.Second,
		walDir: dir, fsync: "never",
	})
	time.Sleep(300 * time.Millisecond)
	for _, p := range garbage {
		if !exists(p) {
			t.Errorf("%s was removed before any request was answered", filepath.Base(p))
		}
	}
	probe(t, addr)
	for deadline := time.Now().Add(10 * time.Second); exists(garbage[0]) || exists(garbage[1]); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("maintenance did not follow the first reply: %s %v, %s %v",
				filepath.Base(garbage[0]), exists(garbage[0]), filepath.Base(garbage[1]), exists(garbage[1]))
		}
	}
	if code := stop(t, done); code != 0 {
		t.Fatalf("dynallocd exited %d", code)
	}
}

// firstReplyBound is one sysmon tick: Go polls the network from sysmon
// every 10 ms when no P is idle, so a reply queued behind work that
// holds every P waits about that long. On 2 vCPUs single boots read
// 0.6–1 ms, or 5–10 ms when the drive's two workers hold both Ps.
const firstReplyBound = 10 * time.Millisecond

// TestFirstReplyWithinASysmonTick: a restarted shard with a drive
// running answers its first PROBE, counted from the port file, within
// firstReplyBound, best of 3 boots — on a directory whose maintenance
// has a 4 MiB footer-less segment to read and unlink.
func TestFirstReplyWithinASysmonTick(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing test: not under -short or -race")
	}
	const n = 1 << 14
	best := time.Hour
	for i := 0; i < 3; i++ {
		dir, _ := bootDir(t, n, 200_000)
		addr, t0, done := boot(t, options{
			addr: "", n: n, m: n, d: 2, scenario: "A",
			seed: uint64(11 + i), workers: 2, slack: 1, checkInterval: time.Second,
			walDir: dir, fsync: "never",
			drive: true, stay: true, batch: 64, checkEvery: 4096, crashK: n / 4,
		})
		probe(t, addr)
		d := time.Since(t0)
		t.Logf("boot %d: first reply %v after the port file", i, d)
		best = min(best, d)
		stop(t, done) // interrupts the drive: the exit code says NOT recovered
	}
	if best > firstReplyBound {
		t.Fatalf("first reply %v after the port file, best of 3; bound %v", best, firstReplyBound)
	}
}
