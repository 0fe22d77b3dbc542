package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dynalloc/internal/rng"
	"dynalloc/internal/router"
)

// env is where a run happens: the dynallocd binary under test and the
// scratch directory everything the run writes lives under.
type env struct {
	bin   string // built cmd/dynallocd
	work  string // os.MkdirTemp directory, removed when the run ends
	out   string // where trace files go
	scale scale  // sizes of the layers timed alone
}

// cluster is a booted system under test: shard processes, a router over
// them, and one session per generator goroutine.
type cluster struct {
	w      workload
	dir    string
	procs  []*shardProc
	rt     *router.Router
	ses    []*router.Session
	retire procUsage // usage of shard incarnations already killed
	rssKiB []int64   // per shard slot: largest peak RSS of any incarnation
}

// driveFsync is the fsync policy of every incarnation that runs the
// recovery drive, whatever the workload serves under. Under "always" the
// drive outruns the WAL writer as soon as an fsync takes over half a
// millisecond, and MTTR then times the sandbox's disk: ten runs spread
// by 34 % and two sets of runs differed by 40 % in their medians.
const driveFsync = "interval"

// shardArgs returns the dynallocd flags of shard i. The recovery drive
// flags are added for incarnations started by the fail-and-recover act.
func (c *cluster) shardArgs(i int, seed uint64, drive bool) []string {
	w := c.w
	args := []string{
		"-n", strconv.Itoa(w.n), "-d", "2", "-scenario", "A",
		"-seed", strconv.FormatUint(seed+uint64(i), 10),
	}
	if w.durable {
		fsync := w.fsync
		if drive {
			fsync = driveFsync
		}
		args = append(args, "-wal-dir", c.walDir(i), "-fsync", fsync)
		if w.ckptEvery != "" {
			args = append(args, "-checkpoint-every", w.ckptEvery)
		}
	}
	if drive {
		args = append(args, "-drive", "-batch", strconv.Itoa(driveBatch), "-stay",
			"-check-every", strconv.Itoa(w.checkEvery))
	}
	return args
}

func (c *cluster) walDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("wal%d", i)) }

// bootTimeout bounds every wait on a shard. A healthy boot takes tens
// of milliseconds; the bound only has to end a hung run.
const bootTimeout = 20 * time.Second

// boot starts the workload's shards, waits until each answers a probe,
// and opens the generator's sessions.
func boot(e env, w workload, seed uint64, tag string) (*cluster, error) {
	c := &cluster{w: w, dir: filepath.Join(e.work, tag), rssKiB: make([]int64, w.shards)}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < w.shards; i++ {
		p, err := startShard(e.bin, c.dir, fmt.Sprintf("shard%d", i), c.shardArgs(i, seed, false))
		if err != nil {
			c.close()
			return nil, err
		}
		c.procs = append(c.procs, p)
	}
	if err := c.connect(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// connect waits for every shard's address and (re)builds the router and
// sessions over them.
func (c *cluster) connect() error {
	addrs := make([]string, len(c.procs))
	for i, p := range c.procs {
		a, err := p.waitAddr(bootTimeout)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		addrs[i] = a
	}
	c.disconnect()
	rt, err := router.New(router.Options{Shards: addrs, D: 2})
	if err != nil {
		return err
	}
	c.rt = rt
	if err := rt.WaitReady(bootTimeout); err != nil {
		return err
	}
	for i := 0; i < sessions; i++ {
		c.ses = append(c.ses, rt.NewSession())
	}
	return nil
}

func (c *cluster) disconnect() {
	for _, s := range c.ses {
		s.Close()
	}
	c.ses = nil
	if c.rt != nil {
		c.rt.Close()
		c.rt = nil
	}
}

// killShard kills shard i and books what it used.
func (c *cluster) killShard(i int) {
	if c.procs[i] == nil {
		return // the restart workload before its first cycle
	}
	u := c.procs[i].kill()
	c.retire.add(u)
	if u.maxRSSKiB > c.rssKiB[i] {
		c.rssKiB[i] = u.maxRSSKiB
	}
}

// close kills every shard and drops the connections. The scratch
// directory is the caller's to remove.
func (c *cluster) close() {
	c.disconnect()
	for i := range c.procs {
		c.killShard(i)
	}
}

// usage is the CPU, I/O and memory of every shard incarnation so far.
// Only valid after close.
func (c *cluster) usage() (u procUsage, rssMiB float64) {
	var kib int64
	for _, r := range c.rssKiB {
		kib += r
	}
	return c.retire, float64(kib) / 1024
}

// cpuSoFar reads the CPU the live shards have used up to now from
// /proc/<pid>/stat, so that boot and warm-up can be left out of
// cpu_s_per_mphase. Where /proc is not readable it returns 0 and the
// metric falls back to the generator's share alone.
func (c *cluster) cpuSoFar() float64 {
	var total float64
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		// Fields 14 and 15 (utime, stime, in clock ticks) counted after
		// the parenthesised command name, which may itself hold spaces.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		total += (ut + st) / clockTicksPerSecond
	}
	return total
}

// rssNow is the resident memory of the live shards, in KiB, from
// /proc/<pid>/statm (0 where that is not readable).
func (c *cluster) rssNow() int64 {
	var pages int64
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			x, _ := strconv.ParseInt(f[1], 10, 64)
			pages += x
		}
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// clockTicksPerSecond is USER_HZ, 100 on every Linux the repository
// supports.
const clockTicksPerSecond = 100

// walBytes is the total size of the shards' durability directories.
func (c *cluster) walBytes() int64 {
	var total int64
	if c.w.durable {
		for i := range c.procs {
			total += dirBytes(c.walDir(i))
		}
	}
	return total
}

// sessionClient adapts one router session, with its own rng stream, to
// the generator's client interface.
type sessionClient struct {
	s   *router.Session
	r   *rng.RNG
	dst []router.AdmitResult
}

func (sc *sessionClient) free() error {
	_, err := sc.s.Free(sc.r)
	return err
}

func (sc *sessionClient) admit(count int) error {
	out, err := sc.s.AdmitBatch(sc.r, count, sc.dst[:0])
	sc.dst = out[:0]
	return err
}

// clientStreamBase keeps the generator's rng streams apart from the
// arrival schedules' and the fixture's.
const clientStreamBase = 1 << 20

func (c *cluster) clients(seed uint64) []client {
	out := make([]client, len(c.ses))
	for i, s := range c.ses {
		out[i] = &sessionClient{s: s, r: rng.NewStream(seed, clientStreamBase+uint64(i))}
	}
	return out
}

// ledger is the cluster's state as STATE reports it, summed over
// shards: the ball mass and both clocks.
type ledger struct {
	balls, allocs, frees int64
}

// readLedger fetches STATE from every shard on session 0.
func (c *cluster) readLedger() (ledger, error) {
	var l ledger
	var loads []int32
	for i := range c.procs {
		sr, err := c.ses[0].State(i, loads[:0])
		if err != nil {
			return l, fmt.Errorf("STATE shard %d: %w", i, err)
		}
		loads = sr.Loads
		for _, x := range sr.Loads {
			l.balls += int64(x)
		}
		l.allocs += sr.Allocs
		l.frees += sr.Frees
	}
	return l, nil
}

// checks counts the run's correctness assertions. A failed one is
// reported with its reason and fails the run.
type checks struct {
	made, failed int64
	reasons      []string
}

func (k *checks) that(ok bool, format string, args ...any) {
	k.made++
	if !ok {
		k.failed++
		if len(k.reasons) < 20 {
			k.reasons = append(k.reasons, fmt.Sprintf(format, args...))
		}
	}
}

// conserved asserts what a stage must leave behind: the ball mass moved
// by exactly the acknowledged admissions minus departures plus injected
// balls, and both clocks advanced by exactly the acknowledged counts.
func (k *checks) conserved(stage string, before, after ledger, res stageResult, crashed int64) {
	k.that(after.balls == before.balls+res.admitsOK-res.freesOK+crashed,
		"%s: ball mass %d, want %d + %d admitted - %d freed + %d injected",
		stage, after.balls, before.balls, res.admitsOK, res.freesOK, crashed)
	k.that(after.allocs-before.allocs == res.admitsOK,
		"%s: admission clock advanced %d, acknowledged %d", stage, after.allocs-before.allocs, res.admitsOK)
	k.that(after.frees-before.frees == res.freesOK,
		"%s: departure clock advanced %d, acknowledged %d", stage, after.frees-before.frees, res.freesOK)
}
