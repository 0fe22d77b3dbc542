// Package simfs is a deterministic, in-memory, fault-injecting
// filesystem implementing the vfs.FS seam of the durability stack. It
// exists so crash-recovery properties of internal/wal,
// internal/checkpoint and serve.Journal can be checked from
// systematically adversarial disk states — per-operation crash points,
// short and torn writes, injected ENOSPC/rename failures, fsyncs that
// lie — instead of the handful of hand-picked cut points real-disk
// tests can afford.
//
// # Durability model
//
// Every file tracks two lengths: the bytes written (data) and the
// bytes covered by a completed Sync (synced). The namespace is tracked
// twice the same way: cur is what a running process sees, dur is what
// has been made durable. A completed file Sync marks the file's bytes
// durable AND persists its current directory entry (the ext4
// ordered-mode behavior the WAL relies on); rename/remove/create
// become durable only at the next SyncDir of their directory (the
// checkpoint writer's temp-fsync-rename-dirsync sequence) or when the
// file itself is fsynced afterwards.
//
// A power cut (PowerCut) collapses the filesystem to its durable
// image: the namespace reverts to dur, and every file's content
// reverts to its synced prefix plus an arbitrary, caller-chosen
// fragment of the unsynced tail — the torn-write model; a fragment
// that splits a WAL record mid-way is exactly the torn tail replay
// must tolerate. Whatever survives the cut is then on stable media, so
// it is durable against the next cut too.
//
// # Crash points
//
// Every FS operation is numbered. CrashAfterOps(k) arms a crash at the
// k-th operation from now: that operation fails with ErrCrashed
// without effect, and so does everything after it — the moment the
// process "loses the disk". The harness then calls PowerCut and
// restarts the stack, which is the simulated equivalent of kill -9
// plus a machine power failure. Handles opened before the cut are
// fenced by a generation counter, so a straggling goroutine from the
// previous "process" can never write into the next incarnation's
// state.
//
// All operations are serialized on one mutex and consume no wall
// clock and no global randomness: given the same sequence of calls and
// the same injected faults, every run is bit-identical, which is what
// makes failing crash schedules replayable from a one-line seed.
package simfs

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path"
	"path/filepath"
	"sort"
	"sync"

	"dynalloc/internal/vfs"
)

// ErrCrashed is returned by every operation at and after an armed
// crash point, and by operations on handles from a previous process
// incarnation (pre-PowerCut).
var ErrCrashed = errors.New("simfs: crashed (power cut pending)")

// ErrNoSpace is the default error of injected write faults.
var ErrNoSpace = errors.New("simfs: no space left on device (injected)")

// OpKind classifies FS operations for fault matching, crash-point
// accounting and per-kind op counters.
type OpKind int

const (
	OpMkdir OpKind = iota
	OpCreate
	OpCreateTemp
	OpOpen
	OpRead
	OpWrite
	OpSync
	OpClose
	OpReadFile
	OpReadDir
	OpGlob
	OpRename
	OpRemove
	OpStat
	OpSyncDir
	opKinds // sentinel: number of kinds
)

func (k OpKind) String() string {
	names := [...]string{"mkdir", "create", "createtemp", "open", "read", "write", "sync",
		"close", "readfile", "readdir", "glob", "rename", "remove", "stat", "syncdir"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Fault is one injected failure. It fires on the Nth operation of
// kind Op counted from the moment of injection, then disarms.
type Fault struct {
	Op  OpKind
	Nth int   // 1-based; 1 = the next matching operation
	Err error // error to return; nil means ErrNoSpace

	// Short makes an OpWrite fault absorb the first half of the buffer
	// before failing — a short write whose prefix is real.
	Short bool

	// LieSync makes an OpSync fault report success WITHOUT marking
	// anything durable: the classic lying fsync. Err is ignored.
	LieSync bool

	remaining int
}

// inode is one file's storage. Names live in the namespace maps; the
// inode only remembers its current live name so Sync can persist the
// right directory entry deterministically.
type inode struct {
	data    []byte
	synced  int    // durable prefix length
	curName string // current name in cur ("" if unlinked)
}

// FS is the simulated filesystem. It implements vfs.FS. The zero
// value is not usable; call New.
type FS struct {
	mu      sync.Mutex
	cur     map[string]*inode // live namespace
	dur     map[string]*inode // durable namespace
	dirs    map[string]bool   // existing directories (durable immediately)
	faults  []*Fault
	opCount int64
	byKind  [opKinds]int64
	crashAt int64 // absolute opCount that crashes; 0 = unarmed
	crashed bool
	gen     int // incarnation; bumped by PowerCut to fence old handles
	tmpSeq  int // deterministic CreateTemp suffixes
}

// New returns an empty simulated filesystem containing only the root
// directory.
func New() *FS {
	return &FS{
		cur:  map[string]*inode{},
		dur:  map[string]*inode{},
		dirs: map[string]bool{"/": true, ".": true},
	}
}

func clean(p string) string { return path.Clean(p) }

// opLocked numbers one operation and decides its fate: ErrCrashed when
// crashed or at the armed crash point, an injected fault when one
// matches, nil otherwise.
func (s *FS) opLocked(kind OpKind) (*Fault, error) {
	if s.crashed {
		return nil, ErrCrashed
	}
	s.opCount++
	s.byKind[kind]++
	if s.crashAt > 0 && s.opCount >= s.crashAt {
		s.crashed = true
		return nil, ErrCrashed
	}
	for i, f := range s.faults {
		if f.Op != kind {
			continue
		}
		f.remaining--
		if f.remaining > 0 {
			continue
		}
		s.faults = append(s.faults[:i], s.faults[i+1:]...)
		return f, nil
	}
	return nil, nil
}

func faultErr(f *Fault) error {
	if f.Err != nil {
		return f.Err
	}
	return ErrNoSpace
}

// Inject arms one fault. Faults of the same kind fire in injection
// order; each disarms after firing.
func (s *FS) Inject(f Fault) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Nth < 1 {
		f.Nth = 1
	}
	cp := f
	cp.remaining = f.Nth
	s.faults = append(s.faults, &cp)
}

// FailOp arms a plain error fault: the nth subsequent operation of the
// given kind returns err (ErrNoSpace when nil).
func (s *FS) FailOp(op OpKind, nth int, err error) { s.Inject(Fault{Op: op, Nth: nth, Err: err}) }

// ShortWrite arms a short-write fault: the nth subsequent Write
// absorbs half its buffer, then fails with ErrNoSpace.
func (s *FS) ShortWrite(nth int) { s.Inject(Fault{Op: OpWrite, Nth: nth, Short: true}) }

// LieOnSync arms a lying fsync: the nth subsequent Sync reports
// success without making anything durable.
func (s *FS) LieOnSync(nth int) { s.Inject(Fault{Op: OpSync, Nth: nth, LieSync: true}) }

// CrashAfterOps arms a crash at the k-th FS operation from now
// (k >= 1): that operation and every later one fail with ErrCrashed.
func (s *FS) CrashAfterOps(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k < 1 {
		k = 1
	}
	s.crashAt = s.opCount + int64(k)
}

// CrashNow crashes immediately: every subsequent operation fails with
// ErrCrashed until PowerCut.
func (s *FS) CrashNow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
}

// Crashed reports whether the simulated process has lost the disk.
func (s *FS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// OpCount returns the total number of operations attempted (crashed
// and faulted ones included).
func (s *FS) OpCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opCount
}

// Ops returns how many operations of one kind have been attempted.
func (s *FS) Ops(kind OpKind) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKind[kind]
}

// TornPolicy decides, at power-cut time, how many of a file's unsynced
// tail bytes survive (0 <= kept <= unsynced). The zero policy (nil)
// keeps none — the strictest cut.
type TornPolicy func(name string, unsynced int) int

// PowerCut collapses the filesystem to its durable image and starts a
// new process incarnation: the namespace reverts to the durable
// entries, each file keeps its synced prefix plus keep(name, unsynced)
// bytes of unsynced tail (nil keeps none), the crash state clears, all
// pending faults are dropped, and handles from before the cut are
// permanently fenced. Bytes that survive are durable from now on.
func (s *FS) PowerCut(keep TornPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.dur))
	for name := range s.dur {
		names = append(names, name)
	}
	sort.Strings(names)
	cur := make(map[string]*inode, len(names))
	seen := make(map[*inode]bool, len(names))
	for _, name := range names {
		ino := s.dur[name]
		cur[name] = ino
		if seen[ino] {
			continue
		}
		seen[ino] = true
		kept := ino.synced
		if unsynced := len(ino.data) - ino.synced; unsynced > 0 && keep != nil {
			extra := keep(name, unsynced)
			if extra < 0 {
				extra = 0
			}
			if extra > unsynced {
				extra = unsynced
			}
			kept += extra
		}
		ino.data = ino.data[:kept]
		ino.synced = kept
		ino.curName = name
	}
	s.cur = cur
	s.crashed = false
	s.crashAt = 0
	s.faults = nil
	s.gen++
}

// --- vfs.FS implementation ---

var _ vfs.FS = (*FS)(nil)

func notExist(op, p string) error { return &iofs.PathError{Op: op, Path: p, Err: iofs.ErrNotExist} }
func exist(op, p string) error    { return &iofs.PathError{Op: op, Path: p, Err: iofs.ErrExist} }

// MkdirAll implements vfs.FS. Directories are durable immediately (a
// modeling simplification: the stack creates its directory once at
// boot, long before any state worth losing exists).
func (s *FS) MkdirAll(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.opLocked(OpMkdir); err != nil {
		return err
	}
	for p := clean(dir); ; p = path.Dir(p) {
		s.dirs[p] = true
		if p == "/" || p == "." {
			return nil
		}
	}
}

func (s *FS) createLocked(op, name string) (*inode, error) {
	name = clean(name)
	if !s.dirs[path.Dir(name)] {
		return nil, notExist(op, name)
	}
	if _, ok := s.cur[name]; ok || s.dirs[name] {
		return nil, exist(op, name)
	}
	ino := &inode{curName: name}
	s.cur[name] = ino
	return ino, nil
}

// Create implements vfs.FS (O_CREATE|O_EXCL|O_WRONLY semantics).
func (s *FS) Create(name string) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpCreate); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	ino, err := s.createLocked("create", name)
	if err != nil {
		return nil, err
	}
	return &handle{fs: s, ino: ino, name: clean(name), gen: s.gen, writable: true}, nil
}

// CreateTemp implements vfs.FS with deterministic unique suffixes.
func (s *FS) CreateTemp(dir, pattern string) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpCreateTemp); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	prefix, suffix := pattern, ""
	if i := lastIndexByte(pattern, '*'); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for {
		s.tmpSeq++
		name := clean(path.Join(dir, fmt.Sprintf("%s%08d%s", prefix, s.tmpSeq, suffix)))
		if _, ok := s.cur[name]; ok {
			continue
		}
		ino, err := s.createLocked("createtemp", name)
		if err != nil {
			return nil, err
		}
		return &handle{fs: s, ino: ino, name: name, gen: s.gen, writable: true}, nil
	}
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Open implements vfs.FS (read-only).
func (s *FS) Open(name string) (vfs.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpOpen); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	name = clean(name)
	ino, ok := s.cur[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return &handle{fs: s, ino: ino, name: name, gen: s.gen}, nil
}

// ReadFile implements vfs.FS.
func (s *FS) ReadFile(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpReadFile); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	name = clean(name)
	ino, ok := s.cur[name]
	if !ok {
		return nil, notExist("readfile", name)
	}
	return append([]byte(nil), ino.data...), nil
}

// ReadDir implements vfs.FS.
func (s *FS) ReadDir(dir string) ([]vfs.DirEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpReadDir); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	dir = clean(dir)
	if !s.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var out []vfs.DirEntry
	for name := range s.cur {
		if path.Dir(name) == dir {
			out = append(out, vfs.DirEntry{Name: path.Base(name)})
		}
	}
	for d := range s.dirs {
		if d != dir && path.Dir(d) == dir {
			out = append(out, vfs.DirEntry{Name: path.Base(d), IsDir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Glob implements vfs.FS (filepath.Match syntax, sorted results).
func (s *FS) Glob(pattern string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpGlob); err != nil {
		return nil, err
	} else if f != nil {
		return nil, faultErr(f)
	}
	var out []string
	for name := range s.cur {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	for d := range s.dirs {
		if ok, _ := filepath.Match(pattern, d); ok {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Rename implements vfs.FS (POSIX: replaces newPath when present).
func (s *FS) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpRename); err != nil {
		return err
	} else if f != nil {
		return faultErr(f)
	}
	oldPath, newPath = clean(oldPath), clean(newPath)
	ino, ok := s.cur[oldPath]
	if !ok {
		return notExist("rename", oldPath)
	}
	if !s.dirs[path.Dir(newPath)] {
		return notExist("rename", newPath)
	}
	if displaced, ok := s.cur[newPath]; ok && displaced.curName == newPath {
		displaced.curName = ""
	}
	delete(s.cur, oldPath)
	s.cur[newPath] = ino
	ino.curName = newPath
	return nil
}

// Remove implements vfs.FS. The durable entry (if any) survives until
// the next SyncDir — a removed-but-unsynced file resurrects at the
// next power cut, exactly like a real unsynced directory.
func (s *FS) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpRemove); err != nil {
		return err
	} else if f != nil {
		return faultErr(f)
	}
	name = clean(name)
	ino, ok := s.cur[name]
	if !ok {
		return notExist("remove", name)
	}
	if ino.curName == name {
		ino.curName = ""
	}
	delete(s.cur, name)
	return nil
}

// Stat implements vfs.FS.
func (s *FS) Stat(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpStat); err != nil {
		return 0, err
	} else if f != nil {
		return 0, faultErr(f)
	}
	name = clean(name)
	if ino, ok := s.cur[name]; ok {
		return int64(len(ino.data)), nil
	}
	if s.dirs[name] {
		return 0, nil
	}
	return 0, notExist("stat", name)
}

// SyncDir implements vfs.FS: the directory's live entries become the
// durable ones (creates, renames and removes in dir are now
// power-cut-proof; file *contents* still need their own Sync).
func (s *FS) SyncDir(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, err := s.opLocked(OpSyncDir); err != nil {
		return err
	} else if f != nil {
		return faultErr(f)
	}
	dir = clean(dir)
	if !s.dirs[dir] {
		return notExist("syncdir", dir)
	}
	for name := range s.dur {
		if path.Dir(name) == dir {
			if _, live := s.cur[name]; !live {
				delete(s.dur, name)
			}
		}
	}
	for name, ino := range s.cur {
		if path.Dir(name) == dir {
			s.dur[name] = ino
		}
	}
	return nil
}

// --- handles ---

// handle is one open file. Write-handles append; read-handles stream
// from a cursor. A handle from a previous incarnation (pre-PowerCut)
// fails every operation with ErrCrashed.
type handle struct {
	fs       *FS
	ino      *inode
	name     string
	gen      int
	off      int
	writable bool
	closed   bool
}

func (h *handle) Name() string { return h.name }

func (h *handle) guardLocked(kind OpKind) (*Fault, error) {
	if h.gen != h.fs.gen {
		return nil, ErrCrashed
	}
	if h.closed {
		return nil, iofs.ErrClosed
	}
	return h.fs.opLocked(kind)
}

func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.guardLocked(OpWrite)
	if err != nil {
		return 0, err
	}
	if !h.writable {
		return 0, errors.New("simfs: file not open for writing")
	}
	if f != nil {
		if f.Short {
			n := len(p) / 2
			h.ino.data = append(h.ino.data, p[:n]...)
			return n, faultErr(f)
		}
		return 0, faultErr(f)
	}
	h.ino.data = append(h.ino.data, p...)
	return len(p), nil
}

// Sync makes the file's bytes durable and persists its current
// directory entry (dropping any stale durable name of the same file).
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.guardLocked(OpSync)
	if err != nil {
		return err
	}
	if f != nil {
		if f.LieSync {
			return nil // the lie: success reported, nothing durable
		}
		return faultErr(f)
	}
	if !h.writable {
		return nil
	}
	h.ino.synced = len(h.ino.data)
	if name := h.ino.curName; name != "" {
		for durName, ino := range h.fs.dur {
			if ino == h.ino && durName != name {
				delete(h.fs.dur, durName)
			}
		}
		h.fs.dur[name] = h.ino
	}
	return nil
}

func (h *handle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, err := h.guardLocked(OpRead)
	if err != nil {
		return 0, err
	}
	if f != nil {
		return 0, faultErr(f)
	}
	if h.writable {
		return 0, errors.New("simfs: file not open for reading")
	}
	if h.off >= len(h.ino.data) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[h.off:])
	h.off += n
	return n, nil
}

// ReadAt reads at off without moving the cursor; it is one OpRead.
func (h *handle) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("simfs: negative offset")
	}
	at := *h
	at.off = int(off)
	n, err := at.Read(p)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.gen != h.fs.gen {
		return ErrCrashed
	}
	if h.closed {
		return iofs.ErrClosed
	}
	f, err := h.fs.opLocked(OpClose)
	h.closed = true
	if err != nil {
		return err
	}
	if f != nil {
		return faultErr(f)
	}
	return nil
}

// --- test manipulation helpers (not FS operations; never counted) ---

// Truncate cuts name to size bytes, as a test's stand-in for an
// external corruption. The truncation is immediately durable.
func (s *FS) Truncate(name string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = clean(name)
	ino, ok := s.cur[name]
	if !ok {
		return notExist("truncate", name)
	}
	if size < 0 || size > int64(len(ino.data)) {
		return fmt.Errorf("simfs: truncate %s to %d (size %d)", name, size, len(ino.data))
	}
	ino.data = ino.data[:size]
	if ino.synced > int(size) {
		ino.synced = int(size)
	}
	return nil
}

// Corrupt XORs the byte at off with x — bit rot on demand.
func (s *FS) Corrupt(name string, off int64, x byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = clean(name)
	ino, ok := s.cur[name]
	if !ok {
		return notExist("corrupt", name)
	}
	if off < 0 || off >= int64(len(ino.data)) {
		return fmt.Errorf("simfs: corrupt %s at %d (size %d)", name, off, len(ino.data))
	}
	ino.data[off] ^= x
	return nil
}

// WriteFile plants a fully-durable file (parents auto-created) — test
// setup for pre-existing disk states.
func (s *FS) WriteFile(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	name = clean(name)
	for p := path.Dir(name); ; p = path.Dir(p) {
		s.dirs[p] = true
		if p == "/" || p == "." {
			break
		}
	}
	ino := &inode{data: append([]byte(nil), data...), curName: name}
	ino.synced = len(ino.data)
	s.cur[name] = ino
	s.dur[name] = ino
	return nil
}

// Size returns a file's live length, -1 when absent.
func (s *FS) Size(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ino, ok := s.cur[clean(name)]; ok {
		return int64(len(ino.data))
	}
	return -1
}

// Clone returns an independent deep copy of the filesystem (contents,
// durable state, directories; not faults, crash state or open
// handles). Tests fork trials from one prepared disk image with it.
func (s *FS) Clone() *FS {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := New()
	copied := map[*inode]*inode{}
	cp := func(ino *inode) *inode {
		if d, ok := copied[ino]; ok {
			return d
		}
		d := &inode{data: append([]byte(nil), ino.data...), synced: ino.synced, curName: ino.curName}
		copied[ino] = d
		return d
	}
	for name, ino := range s.cur {
		c.cur[name] = cp(ino)
	}
	for name, ino := range s.dur {
		c.dur[name] = cp(ino)
	}
	for d := range s.dirs {
		c.dirs[d] = true
	}
	c.tmpSeq = s.tmpSeq
	return c
}
