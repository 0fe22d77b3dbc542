package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// FsyncPolicy controls when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncInterval flushes and fsyncs when at least Options.FsyncInterval
	// has elapsed since the last sync (checked on each append), bounding
	// the data-loss window on power failure to roughly that interval.
	// This is the default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways flushes and fsyncs after every append: no committed
	// record is ever lost, at the cost of one fsync per mutation.
	FsyncAlways
	// FsyncNever leaves syncing to the OS (and to Close/rotation
	// flushes). A process kill loses only the user-space buffer; a
	// power failure can lose everything since the last rotation.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	if names := [...]string{FsyncInterval: "interval", FsyncAlways: "always", FsyncNever: "never"}; p >= 0 && int(p) < len(names) {
		return names[p]
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files (created if
	// missing). Required.
	Dir string

	// SegmentBytes is the rotation threshold: once a segment reaches
	// this size it is sealed and the next append opens a fresh one.
	// Default 4 MiB.
	SegmentBytes int64

	// Fsync is the sync policy (default FsyncInterval).
	Fsync FsyncPolicy

	// FsyncInterval is the cadence for FsyncInterval (default 100ms).
	FsyncInterval time.Duration

	// FS is the filesystem the log runs against. Default vfs.OS; the
	// crash-schedule simulations substitute the fault-injecting
	// in-memory filesystem (internal/simfs).
	FS vfs.FS
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return errors.New("wal: Options.Dir is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	return nil
}

// createSegmentFile creates a fresh segment file exclusively. When a
// segment with this first-seq already exists — a fork left behind by a
// crash whose replay could not reach it (a gap, a bad header, or a
// checkpoint that superseded it) — it is dead to replay, but it may
// still hold durably-written records an operator wants for forensics,
// so it is never truncated: it is renamed aside to a .dead.N name —
// which no wal-*.seg glob matches, so replay and TruncateThrough
// ignore it — and a fresh segment takes the name.
func createSegmentFile(fsys vfs.FS, path string) (vfs.File, error) {
	f, err := fsys.Create(path)
	if !vfs.IsExist(err) {
		return f, err
	}
	for i := 0; ; i++ {
		aside := fmt.Sprintf("%s.dead.%d", path, i)
		if _, err := fsys.Stat(aside); vfs.IsNotExist(err) {
			if err := fsys.Rename(path, aside); err != nil {
				return nil, fmt.Errorf("wal: move colliding segment aside: %w", err)
			}
			break
		} else if err != nil {
			return nil, fmt.Errorf("wal: move colliding segment aside: %w", err)
		}
	}
	return fsys.Create(path)
}

// segMagic is the 8-byte segment header magic; the header is the magic
// followed by the first record seq the segment was opened for.
var segMagic = [8]byte{'d', 'w', 'a', 'l', 's', 'e', 'g', '1'}

// segHeaderSize is the on-disk segment header size.
const segHeaderSize = 16

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

// Log is a segmented append-only record log. All methods are safe for
// concurrent use; appends from concurrent callers serialize on one
// mutex (callers that want the append off their hot path put a
// buffered writer goroutine in front — see serve.Journal).
type Log struct {
	opts Options

	mu       sync.Mutex
	f        vfs.File
	bw       *bufio.Writer
	curPath  string
	curSize  int64
	lastSync time.Time
	closed   bool
	one      [1]Record // Append's one-element batch, reused under mu
	batchBuf []byte    // grow-only encode buffer, reused under mu
	sum      segSum    // the open segment's footer, built as records land

	// Resolved once in Open: a by-name lookup takes the registry's read
	// lock and hashes the name, three times per batch on the CPU of
	// whoever appends (the journal's writer).
	appendRecords, appendBytes *metrics.Counter
	batchRecords               *metrics.Histogram
}

// Open prepares a log in opts.Dir. No segment file is created until
// the first Append (segments are named by their first record's seq),
// so opening after a restore never clobbers existing segments: new
// records always go to a fresh file and torn tails in old segments
// stay untouched for forensics until TruncateThrough removes them.
func Open(opts Options) (*Log, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	reg := metrics.Default()
	return &Log{
		opts: opts, lastSync: time.Now(),
		appendRecords: reg.Counter("wal.append.records"),
		appendBytes:   reg.Counter("wal.append.bytes"),
		batchRecords:  reg.Histogram("wal.batch.records"),
	}, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.opts.Dir }

// FS returns the filesystem the log runs against, so cooperating
// components (the journal's checkpoint writer) share the same seam.
func (l *Log) FS() vfs.FS { return l.opts.FS }

// Append encodes and writes one record, applying the fsync policy and
// rotating the segment when the size threshold is crossed. The record's
// Seq must be assigned by the caller (see the package comment). Append
// is a one-element AppendBatch.
func (l *Log) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.one[0] = r
	return l.appendBatchLocked(l.one[:])
}

// AppendBatch encodes and writes a batch of records under one mutex
// acquisition, with one buffered write and — the group commit — the
// fsync policy applied once for the whole batch: a single fsync durably
// covers every record in it, so under FsyncAlways the per-record fsync
// cost is divided by the batch size. Rotation happens at batch
// boundaries only: the entire batch lands in the current segment, and
// the size threshold is checked after it (a batch larger than
// SegmentBytes simply produces one oversized segment, which replay and
// truncation handle like any other).
//
// A write error fails the whole batch: none of its records may be
// reported durable (a torn prefix can still survive on disk — replay
// treats it like any torn tail and recovers the clean prefix). An
// empty batch is a no-op.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendBatchLocked(recs)
}

func (l *Log) appendBatchLocked(recs []Record) error {
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.f == nil {
		if err := l.openSegmentLocked(recs[0].Seq); err != nil {
			return err
		}
	}
	need := len(recs) * RecordSize
	if cap(l.batchBuf) < need {
		l.batchBuf = make([]byte, need)
	}
	buf := l.batchBuf[:need]
	for i := range recs {
		recs[i].encode(buf[i*RecordSize : (i+1)*RecordSize])
	}
	if _, err := l.bw.Write(buf); err != nil {
		l.abortSegmentLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.sum.add(recs, buf)
	l.curSize += int64(need)
	if metrics.Enabled() {
		l.appendRecords.Add(int64(len(recs)))
		l.appendBytes.Add(int64(need))
		l.batchRecords.Observe(int64(len(recs)))
	}

	sync := l.opts.Fsync == FsyncAlways ||
		l.opts.Fsync == FsyncInterval && time.Since(l.lastSync) >= l.opts.FsyncInterval
	var err error
	switch {
	case l.curSize >= l.opts.SegmentBytes:
		err = l.sealLocked() // the seal's fsync covers the batch too
	case sync:
		err = l.syncLocked()
	}
	if err != nil {
		l.abortSegmentLocked()
		return err
	}
	if sync && len(recs) > 1 {
		// Group commit: all but the first record rode an fsync that
		// would each have been their own under per-record append.
		metrics.AddCounter("wal.sync.coalesced", int64(len(recs)-1))
	}
	return nil
}

// abortSegmentLocked drops the current segment handle after a failed
// write, fsync or seal, so the next append opens a fresh segment
// instead of re-hitting the wedged one. Without this a transient fault
// (an injected ENOSPC, a momentarily failing device) would jam the log
// forever: a bufio.Writer error is sticky, and the failed segment's
// size counter stops advancing so rotation never triggers. The failed
// segment's clean prefix stays on disk — replay treats it like any
// torn tail, and the seq-continuity rule decides whether the stream
// continues into the next segment (it does whenever the failed bytes
// in fact reached the disk; a truly lost record is a real gap and
// stops replay there, exactly as it must).
func (l *Log) abortSegmentLocked() {
	if l.f == nil {
		return
	}
	l.f.Close() // best effort: the segment is already suspect
	l.f, l.bw, l.curPath = nil, nil, ""
	l.curSize = 0
	clear(l.sum.bins)
	metrics.AddCounter("wal.segment.aborts", 1)
}

// openSegmentLocked starts a fresh segment whose name and header carry
// firstSeq.
func (l *Log) openSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.opts.Dir, segmentName(firstSeq))
	f, err := createSegmentFile(l.opts.FS, path)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	bw := bufio.NewWriter(f)
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], firstSeq)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f, l.bw, l.curPath = f, bw, path
	l.curSize = segHeaderSize
	l.sum.reset(hdr[:])
	if metrics.Enabled() {
		l.appendBytes.Add(segHeaderSize)
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs the current segment,
// recording the fsync latency.
func (l *Log) syncLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	metrics.ObserveHistogram("wal.fsync_ns", time.Since(start).Nanoseconds())
	l.lastSync = time.Now()
	return nil
}

// sealLocked writes the current segment's footer and closes it
// (flushed, and fsynced unless the policy is FsyncNever); the next
// append opens a fresh one. The footer rides the seal's one fsync.
func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.sum.write(l.bw); err != nil {
		return fmt.Errorf("wal: write footer: %w", err)
	}
	if l.opts.Fsync != FsyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	} else if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	err := l.f.Close()
	l.f, l.bw, l.curPath = nil, nil, ""
	l.curSize = 0
	metrics.AddCounter("wal.segment.rotations", 1)
	if err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return nil
}

// Sync flushes buffered records and fsyncs the current segment. Under
// FsyncInterval a caller (e.g. the journal's idle ticker) uses this to
// bound the loss window when no appends are arriving.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if err := l.syncLocked(); err != nil {
		l.abortSegmentLocked()
		return err
	}
	return nil
}

// Close seals the current segment and closes the log. Unless the
// policy is FsyncNever the tail is fsynced first.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.sealLocked()
}

// TruncateThrough deletes every sealed segment whose records are all
// covered by seq (that is, whose max record seq is <= seq), scanning
// the directory so segments left by previous processes are pruned too.
// The open segment is never touched. Segments holding only garbage
// (no valid record) are removed when their header seq is covered.
// It returns the number of files removed.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	l.mu.Lock()
	cur := l.curPath
	l.mu.Unlock()

	paths, err := listSegments(l.opts.FS, l.opts.Dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, p := range paths {
		if cur != "" && p == cur {
			continue
		}
		covered, err := segmentCovered(l.opts.FS, p, seq)
		if err != nil || !covered {
			continue // an unreadable file stays: replay will classify it
		}
		if err := l.opts.FS.Remove(p); err != nil {
			return removed, fmt.Errorf("wal: truncate: %w", err)
		}
		removed++
	}
	if removed > 0 {
		metrics.AddCounter("wal.segment.truncated", int64(removed))
	}
	return removed, nil
}

// listSegments returns the segment paths in dir sorted by name, which
// is first-seq order (names are zero-padded hex).
func listSegments(fsys vfs.FS, dir string) ([]string, error) {
	paths, err := fsys.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
