// Package vfs is the filesystem seam of the durability stack: the
// small set of operations internal/wal and internal/checkpoint perform
// against a directory, abstracted behind one FS interface so the same
// code runs against the real OS in production and against the
// deterministic fault-injecting filesystem (internal/simfs) in the
// crash-schedule simulations.
//
// The interface is deliberately narrow — create-exclusive, append-only
// writes, fsync, rename, remove, globbing, streaming, positional (a WAL
// segment's footer) and whole-file reads — exactly the vocabulary a
// write-ahead log and an atomic-rename checkpoint store need, and a
// power-cut model can give precise semantics to. Anything richer
// (seeks, truncation, permissions) is intentionally absent: if the
// durability code cannot express an operation here, it cannot
// accidentally depend on filesystem behavior the simulator does not
// model.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file handle. Handles returned by Create/CreateTemp
// are write-only and append-only; handles returned by Open are
// read-only. Both directions implement the full interface so one type
// serves the log writer (Write/Sync/Close) and the replay reader
// (Read/ReadAt/Close; ReadAt leaves Read's position alone); calling the
// wrong direction returns an error from the underlying implementation.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	// Sync forces everything written so far to stable storage. Only
	// bytes covered by a completed Sync are guaranteed to survive a
	// power cut (see the simfs power-cut model).
	Sync() error
	Close() error
	// Name returns the path the handle was opened at (for temp files,
	// the generated name — the caller renames it into place).
	Name() string
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name  string
	IsDir bool
}

// FS is the filesystem surface of the durability stack. All paths are
// slash-separated absolute or relative paths as the caller composed
// them (the OS implementation hands them to the os package verbatim).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create creates name exclusively for writing: it fails with an
	// error satisfying errors.Is(err, fs.ErrExist) when the name already
	// exists. This is the segment-creation primitive of the WAL.
	Create(name string) (File, error)
	// CreateTemp creates a fresh uniquely-named file in dir for
	// writing, replacing the final "*" of pattern with a unique suffix
	// (os.CreateTemp semantics). The checkpoint writer builds its
	// temp-fsync-rename sequence on this.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens name read-only; errors.Is(err, fs.ErrNotExist) when
	// absent.
	Open(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists dir; errors.Is(err, fs.ErrNotExist) when absent.
	ReadDir(dir string) ([]DirEntry, error)
	// Glob returns the sorted paths matching pattern (filepath.Match
	// syntax, as used by filepath.Glob).
	Glob(pattern string) ([]string, error)
	// Rename atomically moves oldPath to newPath, replacing newPath if
	// present (POSIX rename).
	Rename(oldPath, newPath string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat returns the size of name; errors.Is(err, fs.ErrNotExist)
	// when absent. Used as an existence probe and for segment sizing.
	Stat(name string) (int64, error)
	// SyncDir fsyncs the directory itself, making entry mutations
	// (create, rename, remove) durable against a power cut. A failure
	// is best-effort information: callers treat it like the OS
	// implementation does (directory fsync is advisory on many
	// filesystems).
	SyncDir(dir string) error
}

// OS is the production FS: a thin pass-through to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]DirEntry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, len(ents))
	for i, e := range ents {
		out[i] = DirEntry{Name: e.Name(), IsDir: e.IsDir()}
	}
	return out, nil
}

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Lstat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// IsNotExist reports whether err denotes a missing file on any FS
// implementation.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// IsExist reports whether err denotes an already-existing file on any
// FS implementation.
func IsExist(err error) bool { return errors.Is(err, fs.ErrExist) }
