// Package checkpoint writes and restores atomic point-in-time
// snapshots of the live allocation store, pairing each snapshot with
// the WAL sequence number it covers so restore is "load the latest
// valid checkpoint, then replay the WAL suffix with seq > Snapshot.Seq"
// (see internal/wal and serve.RestoreFSOpts).
//
// A checkpoint is a single binary file written via temp + fsync +
// rename, so a crash mid-checkpoint leaves either the previous
// checkpoint set intact plus a stray *.tmp file (ignored and swept by
// the next WriteFS) or the complete new file — never a half-visible
// one. Every byte is covered by a CRC32C (see sections.go for the
// layout); LoadLatestFS skips files that fail validation and falls
// back to the next-newest, which is why callers keep at least two (see
// PruneFS) and truncate the WAL only up to the *oldest* retained
// checkpoint's seq.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dynalloc/internal/metrics"
	"dynalloc/internal/vfs"
)

// ErrNoCheckpoint is returned by LoadLatestFS when dir holds no valid
// checkpoint (including when it holds only corrupt ones).
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// Snapshot is one point-in-time state of the store: the per-bin loads
// and the service counters, consistent as of WAL sequence number Seq
// (every record with seq <= Seq is reflected, none with seq > Seq is).
//
// A striped checkpoint additionally carries Sections — per-stripe seq
// watermarks from copies taken under the store's stripe locks one at a
// time instead of under a stop-the-world cut. Seq is then the MINIMUM
// section watermark, which keeps the reading above true (everything
// with seq <= Seq is reflected in its section) and so keeps WAL
// truncation through Seq sound; restore filters replayed records per
// section with WatermarkFor. Empty Sections (replica snapshots,
// decoded v1 files) mean one uniform watermark, Seq; WriteFS persists
// such a snapshot as a single section [0, n) at that watermark.
type Snapshot struct {
	Seq      uint64
	Allocs   int64
	Frees    int64
	Loads    []int32
	Sections []Section
}

// magic identifies a format version 1 checkpoint file: one flat blob
// under a trailing CRC. Nothing writes v1 any more; the decoder stays
// because the committed fuzz corpus (seed_v1, seed_v1_torn) reads it.
var magic = [8]byte{'d', 'c', 'k', 'p', 't', '0', '0', '1'}

// headerSize is magic(8) + seq(8) + allocs(8) + frees(8) + n(4).
const headerSize = 8 + 8 + 8 + 8 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// fileName returns the canonical name for a checkpoint covering seq.
func fileName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.ck", seq) }

// seqOfName parses the seq out of a checkpoint file name.
func seqOfName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ck") {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ck"), 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// decode parses and validates a checkpoint file's bytes, dispatching
// on the magic: v1 (one flat CRC-covered blob) or v2 (sectioned, see
// sections.go).
func decode(buf []byte) (Snapshot, error) {
	if len(buf) >= 8 && [8]byte(buf[:8]) == magicV2 {
		return decodeV2(buf)
	}
	if len(buf) < headerSize+4 {
		return Snapshot{}, errors.New("checkpoint: file too short")
	}
	if [8]byte(buf[:8]) != magic {
		return Snapshot{}, errors.New("checkpoint: bad magic")
	}
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(buf[:len(buf)-4], crcTable) != want {
		return Snapshot{}, errors.New("checkpoint: CRC mismatch")
	}
	n := int(binary.LittleEndian.Uint32(buf[32:36]))
	if len(buf) != headerSize+4*n+4 {
		return Snapshot{}, fmt.Errorf("checkpoint: size %d does not match n=%d", len(buf), n)
	}
	s := Snapshot{
		Seq:    binary.LittleEndian.Uint64(buf[8:16]),
		Allocs: int64(binary.LittleEndian.Uint64(buf[16:24])),
		Frees:  int64(binary.LittleEndian.Uint64(buf[24:32])),
		Loads:  make([]int32, n),
	}
	for i := range s.Loads {
		s.Loads[i] = int32(binary.LittleEndian.Uint32(buf[headerSize+4*i:]))
	}
	return s, nil
}

// WriteFS atomically persists s into dir (created if missing) and
// returns the file path. The write path is temp file -> fsync ->
// rename -> directory fsync, so the named file is either absent or
// complete. Stray temp files from crashed writers are swept first.
//
// The file is always format v2: the sections are encoded — CRCs
// computed in parallel — and each section's payload goes out in its
// own Write call. A crash between section writes therefore tears only
// the invisible temp file; the rename that publishes the checkpoint
// happens strictly after every section and the fsync.
func WriteFS(fsys vfs.FS, dir string, s Snapshot) (string, error) {
	defer metrics.Span("checkpoint.write_ns")()
	if err := fsys.MkdirAll(dir); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	if stale, err := fsys.Glob(filepath.Join(dir, "ckpt-*.ck.tmp-*")); err == nil {
		for _, p := range stale {
			fsys.Remove(p)
		}
	}

	chunks, err := encodeV2(s)
	if err != nil {
		return "", err
	}
	metrics.SetGauge("checkpoint.stripe.sections", float64(len(chunks)-1)) // chunks: table + one per section
	size := 0
	for _, c := range chunks {
		size += len(c)
	}
	path := filepath.Join(dir, fileName(s.Seq))
	tmp, err := fsys.CreateTemp(dir, fileName(s.Seq)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fsys.Remove(tmpName) }
	for _, c := range chunks {
		if _, err := tmp.Write(c); err != nil {
			cleanup()
			return "", fmt.Errorf("checkpoint: write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return "", fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return "", fmt.Errorf("checkpoint: rename: %w", err)
	}
	// Directory fsync is advisory (see vfs.FS.SyncDir): without it the
	// rename may not survive a power cut, in which case restore falls
	// back to the previous checkpoint — consistent, just older.
	fsys.SyncDir(dir)
	metrics.AddCounter("checkpoint.writes", 1)
	metrics.SetGauge("checkpoint.bytes", float64(size))
	metrics.SetGauge("checkpoint.seq", float64(s.Seq))
	return path, nil
}

// Meta names one checkpoint file and the seq its name claims.
type Meta struct {
	Seq  uint64
	Path string
}

// ListFS returns dir's checkpoint files sorted by seq ascending. File
// contents are not validated here (LoadLatestFS does that); names that
// do not parse are ignored.
func ListFS(fsys vfs.FS, dir string) ([]Meta, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		if vfs.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []Meta
	for _, e := range ents {
		if e.IsDir {
			continue
		}
		if seq, ok := seqOfName(e.Name); ok {
			out = append(out, Meta{Seq: seq, Path: filepath.Join(dir, e.Name)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// LoadLatestFS returns the newest valid checkpoint in dir. It skips any
// file that fails validation (a crash mid-write cannot produce one, but
// disk corruption can). ErrNoCheckpoint when none validates.
func LoadLatestFS(fsys vfs.FS, dir string) (Snapshot, string, error) {
	metas, err := ListFS(fsys, dir)
	if err != nil {
		return Snapshot{}, "", err
	}
	for i := len(metas) - 1; i >= 0; i-- {
		buf, err := fsys.ReadFile(metas[i].Path)
		if err != nil {
			continue
		}
		s, err := decode(buf)
		if err != nil {
			continue
		}
		return s, metas[i].Path, nil
	}
	return Snapshot{}, "", ErrNoCheckpoint
}

// PruneFS deletes all but the newest keep checkpoints (by seq). It
// returns how many files were removed. keep < 1 is treated as 1.
func PruneFS(fsys vfs.FS, dir string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	metas, err := ListFS(fsys, dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i < len(metas)-keep; i++ {
		if err := fsys.Remove(metas[i].Path); err != nil {
			return removed, fmt.Errorf("checkpoint: prune: %w", err)
		}
		removed++
	}
	return removed, nil
}
