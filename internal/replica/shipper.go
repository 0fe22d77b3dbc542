// Package replica is the log-shipping replication layer of the live
// allocation service: a primary-side Streamer that serves the WAL as
// an ordered frame stream over the dgram protocol, and a follower-side
// Follower that persists its own copy of the stream, continuously
// replays it into a warm serve.Store, and can be promoted into a
// serving primary on demand.
//
// The wire conversation (frame codecs in internal/dgram):
//
//	SUBSCRIBE(afterSeq)  follower → primary   open/resume a stream
//	SNAPSHOT(seq, image) primary → follower   bootstrap/resync image
//	SEG_HDR(firstSeq)    primary → follower   segment boundary
//	REC_BATCH(records)   primary → follower   seq-ordered WAL records
//	HEARTBEAT(lastSeq)   primary → follower   durable seq while caught up
//	PROMOTE(force)       follower → primary   stand-down fence
//	PROMOTE_OK(lastSeq)  primary → follower   final durable seq
//
// Everything the primary ships comes off disk through the vfs seam
// (wal.TailReader), never from the live store, so what a follower
// applies is exactly what a local restore would replay — replication
// is restore, streamed. The one exception is bootstrap: balanced
// seeding at first boot never hits the WAL (it predates the journal
// hook), so a fresh subscription is primed with the primary's latest
// checkpoint as a SNAPSHOT frame, and the record stream tails from the
// snapshot's seq. See docs/REPLICATION.md for the full walkthrough.
package replica

import (
	"errors"
	"fmt"

	"dynalloc/internal/checkpoint"
	"dynalloc/internal/dgram"
	"dynalloc/internal/vfs"
	"dynalloc/internal/wal"
)

// ErrStreamGap is returned when the log cannot serve a contiguous
// record stream (truncated under the reader) and a snapshot resync did
// not restore continuity. The caller drops the subscription; the
// follower redials and resubscribes from its own durable seq.
var ErrStreamGap = errors.New("replica: record stream gap")

// ShipperConfig configures the primary-side stream pump.
type ShipperConfig struct {
	// FS and Dir locate the primary's WAL + checkpoint directory (use
	// Log.FS()/Log.Dir() of the live journal's log).
	FS  vfs.FS
	Dir string
	// BatchRecords caps records per REC_BATCH frame (default 256).
	BatchRecords int
	// ForceSnapshot primes the stream with a snapshot even when the log
	// could serve afterSeq, and rewinds the stream to the snapshot's
	// seq. The Streamer sets it when a subscriber claims a seq the
	// primary has never issued — a divergent timeline left behind by a
	// primary restore — so the follower is pulled back onto the
	// primary's history instead of silently missing re-issued seqs.
	ForceSnapshot bool
}

func (c *ShipperConfig) fill() {
	if c.FS == nil {
		c.FS = vfs.OS
	}
	if c.BatchRecords <= 0 {
		c.BatchRecords = 256
	}
	if c.BatchRecords > dgram.MaxBatchRecords {
		c.BatchRecords = dgram.MaxBatchRecords
	}
}

// Shipper turns one subscription (an afterSeq) into the SNAPSHOT /
// SEG_HDR / REC_BATCH frame sequence, by pumping a wal.TailReader and
// priming (or resyncing) from the latest checkpoint when the log alone
// cannot serve the requested position. It is a synchronous,
// single-goroutine pump: the Streamer drives one per connection, and
// the deterministic replication schedules drive one directly against a
// Follower with no network in between.
type Shipper struct {
	cfg   ShipperConfig
	after uint64
	tail  *wal.TailReader
	pbuf  []byte // payload encode scratch

	// gapCovered detects a resync that made no progress: a second gap
	// at the same covered seq means the checkpoint cannot bridge it.
	gapCovered uint64
	gapSeen    bool
}

// NewShipper returns a Shipper serving a subscription that has already
// applied afterSeq.
func NewShipper(cfg ShipperConfig, afterSeq uint64) *Shipper {
	cfg.fill()
	return &Shipper{cfg: cfg, after: afterSeq}
}

// Close releases the underlying tail reader.
func (s *Shipper) Close() {
	if s.tail != nil {
		s.tail.Close()
		s.tail = nil
	}
}

// Covered returns the highest seq the shipper has streamed (or the
// subscription floor).
func (s *Shipper) Covered() uint64 {
	if s.tail != nil {
		return s.tail.Covered()
	}
	return s.after
}

// Pump advances the stream, emitting frames through send until it is
// caught up with the live log (returns caughtUp=true) or send fails.
// A seq gap triggers one snapshot resync in place; a gap the snapshot
// cannot bridge is ErrStreamGap.
func (s *Shipper) Pump(send func(t dgram.Type, payload []byte) error) (caughtUp bool, err error) {
	if s.tail == nil {
		if err := s.initTail(send); err != nil {
			return false, err
		}
	}
	for {
		res, err := s.tail.Next(s.cfg.BatchRecords)
		if err != nil {
			return false, err
		}
		switch res.Event {
		case wal.TailSegment:
			s.pbuf = dgram.AppendSegHdr(s.pbuf[:0], dgram.SegHdr{FirstSeq: res.FirstSeq})
			if err := send(dgram.TSegHdr, s.pbuf); err != nil {
				return false, err
			}
		case wal.TailRecords:
			s.pbuf = dgram.AppendRecBatch(s.pbuf[:0], res.Records)
			if err := send(dgram.TRecBatch, s.pbuf); err != nil {
				return false, err
			}
			s.gapSeen = false
		case wal.TailCaughtUp:
			return true, nil
		case wal.TailGap:
			// The log was truncated under the reader (or an aborted
			// append lost records). Resync from the latest checkpoint:
			// it always covers at least the truncation point.
			covered := s.tail.Covered()
			if s.gapSeen && covered == s.gapCovered {
				return false, fmt.Errorf("%w: at seq %d, next segment opens at %d", ErrStreamGap, covered, res.FirstSeq)
			}
			s.gapSeen, s.gapCovered = true, covered
			s.tail.Close()
			s.tail = nil
			s.after = covered
			if err := s.resync(send); err != nil {
				return false, err
			}
		}
	}
}

// initTail primes a new subscription: decide whether the log alone can
// serve afterSeq+1 onward, send a SNAPSHOT when it cannot (or when the
// follower is fresh — boot seeding lives only in the checkpoint), and
// open the tail at the right floor.
func (s *Shipper) initTail(send func(dgram.Type, []byte) error) error {
	snap, _, err := checkpoint.LoadLatestFS(s.cfg.FS, s.cfg.Dir)
	haveCkpt := err == nil
	if err != nil && !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return fmt.Errorf("replica: load checkpoint: %w", err)
	}
	segs, err := wal.SegmentsFS(s.cfg.FS, s.cfg.Dir)
	if err != nil {
		return err
	}

	need := false
	if haveCkpt {
		switch {
		case s.cfg.ForceSnapshot:
			need = true // divergent subscriber: rewind onto our history
		case s.after == 0:
			// A fresh follower must get the boot image: seeded balls
			// predate the journal hook and exist in no WAL record.
			need = true
		case len(segs) > 0 && segs[0].FirstSeq > s.after+1:
			need = true // retained log starts past the follower
		case len(segs) == 0 && snap.Seq > s.after:
			need = true // log fully truncated past the follower
		}
	}
	after := s.after
	if need {
		if err := s.sendSnapshot(send, &snap); err != nil {
			return err
		}
		if s.cfg.ForceSnapshot {
			after = snap.Seq // rewind, even below the claimed afterSeq
		} else if snap.Seq > after {
			after = snap.Seq
		}
	}
	s.tail = wal.NewTailReaderFS(s.cfg.FS, s.cfg.Dir, after)
	return nil
}

// sendSnapshot ships snap to the follower as one SNAPSHOT frame.
func (s *Shipper) sendSnapshot(send func(dgram.Type, []byte) error, snap *checkpoint.Snapshot) error {
	s.pbuf = dgram.AppendSnapshotMsg(s.pbuf[:0], dgram.SnapshotMsg{Seq: snap.Seq, Allocs: snap.Allocs, Frees: snap.Frees, Loads: snap.Loads})
	return send(dgram.TSnapshot, s.pbuf)
}

// resync is initTail for the mid-stream gap case: the snapshot is
// mandatory (a gap means the log alone cannot continue).
func (s *Shipper) resync(send func(dgram.Type, []byte) error) error {
	snap, _, err := checkpoint.LoadLatestFS(s.cfg.FS, s.cfg.Dir)
	if err != nil {
		if errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return fmt.Errorf("%w: no checkpoint to resync from", ErrStreamGap)
		}
		return fmt.Errorf("replica: resync: %w", err)
	}
	if err := s.sendSnapshot(send, &snap); err != nil {
		return err
	}
	after := s.after
	if snap.Seq > after {
		after = snap.Seq
	}
	s.tail = wal.NewTailReaderFS(s.cfg.FS, s.cfg.Dir, after)
	return nil
}
