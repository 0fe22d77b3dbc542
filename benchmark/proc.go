package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Shard processes. Every dynallocd the harness starts goes through
// startShard and is entered in a process table, so that every exit path
// — a failed check, a test's t.Fatal, SIGINT — can kill and reap all of
// them with one call.

// procUsage is what the operating system charged one finished process.
type procUsage struct {
	userS, sysS float64
	maxRSSKiB   int64
	// /proc/<pid>/io, read just before the kill; zero where the
	// sandbox does not expose the file.
	syscr, syscw, writeBytes int64
}

func (u *procUsage) add(o procUsage) {
	u.userS += o.userS
	u.sysS += o.sysS
	u.syscr += o.syscr
	u.syscw += o.syscw
	u.writeBytes += o.writeBytes
}

// shardProc is one running dynallocd.
type shardProc struct {
	cmd      *exec.Cmd
	portFile string
	logPath  string
	started  time.Time // just before exec
	addr     string    // resolved dgram address, set by waitAddr
	done     bool
}

var procTable struct {
	mu   sync.Mutex
	live map[*shardProc]struct{}
}

// startShard execs the dynallocd binary with args plus an ephemeral
// dgram listener publishing its address to a fresh port file in dir.
// Output goes to a log file in dir (read back only on failure).
func startShard(bin, dir, tag string, args []string) (*shardProc, error) {
	portFile := filepath.Join(dir, tag+".port")
	// A restarted shard reuses its tag: the previous incarnation's port
	// file must not be mistaken for the new one's.
	if err := os.Remove(portFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logPath := filepath.Join(dir, tag+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor after Start
	full := append([]string{"-addr", "", "-dgram-addr", "127.0.0.1:0", "-dgram-port-file", portFile}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the harness itself is killed the shard must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &shardProc{cmd: cmd, portFile: portFile, logPath: logPath, started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", tag, err)
	}
	procTable.mu.Lock()
	if procTable.live == nil {
		procTable.live = make(map[*shardProc]struct{})
	}
	procTable.live[p] = struct{}{}
	procTable.mu.Unlock()
	return p, nil
}

// waitAddr polls for the port file (the shard writes it by rename once
// it listens) and returns the address. It fails if the process exits or
// the timeout passes first.
func (p *shardProc) waitAddr(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(p.portFile); err == nil {
			p.addr = strings.TrimSpace(string(b))
			return p.addr, nil
		}
		if err := p.cmd.Process.Signal(syscall.Signal(0)); err != nil {
			return "", fmt.Errorf("shard exited before listening: %s", p.logTail())
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no port file after %v: %s", timeout, p.logTail())
		}
		pause(probeEvery)
	}
}

func (p *shardProc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 800 {
		b = b[len(b)-800:]
	}
	return string(bytes.TrimSpace(b))
}

// readProcIO returns the syscr, syscw and write_bytes counters of pid.
func readProcIO(pid int) (syscr, syscw, writeBytes int64) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		x, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = x
		case "syscw":
			syscw = x
		case "write_bytes":
			writeBytes = x
		}
	}
	return
}

// kill sends SIGKILL, reaps the process, and returns what it used. It
// is idempotent; a second call returns zero usage.
func (p *shardProc) kill() procUsage {
	procTable.mu.Lock()
	if p.done {
		procTable.mu.Unlock()
		return procUsage{}
	}
	p.done = true
	delete(procTable.live, p)
	procTable.mu.Unlock()

	var u procUsage
	u.syscr, u.syscw, u.writeBytes = readProcIO(p.cmd.Process.Pid)
	p.cmd.Process.Kill()
	p.cmd.Wait() // the kill is the expected cause of death
	if ps := p.cmd.ProcessState; ps != nil {
		u.userS = ps.UserTime().Seconds()
		u.sysS = ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.maxRSSKiB = int64(ru.Maxrss)
		}
	}
	return u
}

// killAllShards kills and reaps every shard still in the table.
func killAllShards() {
	procTable.mu.Lock()
	live := make([]*shardProc, 0, len(procTable.live))
	for p := range procTable.live {
		live = append(live, p)
	}
	procTable.mu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// liveShards reports how many started shards have not been reaped.
func liveShards() int {
	procTable.mu.Lock()
	defer procTable.mu.Unlock()
	return len(procTable.live)
}

// selfCPU returns the harness's own user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}
