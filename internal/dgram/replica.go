package dgram

import (
	"encoding/binary"
	"fmt"

	"dynalloc/internal/wal"
)

// Replication payload codecs (internal/replica). The conversation:
//
//	follower                         primary
//	   | -- SUBSCRIBE(afterSeq) ------> |
//	   | <------ SNAPSHOT(seq, image) - |  (only if the log can't cover afterSeq+1)
//	   | <------ SEG_HDR(firstSeq) ---- |  (segment boundary: seal + rotate)
//	   | <------ REC_BATCH(records) --- |  (seq-ordered WAL records)
//	   | <------ HEARTBEAT(lastSeq) --- |  (caught up; repeats on a cadence)
//	   | -- PROMOTE(force) -----------> |  (forced takeover fence, best effort)
//	   | <------ PROMOTE_OK(lastSeq) -- |
//
// Like msg.go these are fixed-layout append/parse pairs; the frame CRC
// covers them, so record CRCs are not re-sent on the wire (the
// follower re-checksums when it appends to its own log).

// SubscribeReq opens a replication stream: send everything with
// seq > AfterSeq.
type SubscribeReq struct {
	AfterSeq uint64
}

// AppendSubscribeReq appends the encoded form of q to dst.
func AppendSubscribeReq(dst []byte, q SubscribeReq) []byte {
	return binary.LittleEndian.AppendUint64(dst, q.AfterSeq)
}

// DecodeSubscribeReq parses a SubscribeReq payload.
func DecodeSubscribeReq(p []byte) (SubscribeReq, error) {
	if len(p) != 8 {
		return SubscribeReq{}, fmt.Errorf("%w: subscribe payload %d bytes, want 8", ErrShort, len(p))
	}
	return SubscribeReq{AfterSeq: binary.LittleEndian.Uint64(p)}, nil
}

// SegHdr announces a segment boundary: records that follow belong to a
// segment whose header seq is FirstSeq. The follower seals its current
// segment and opens a new one, mirroring the primary's rotation points.
type SegHdr struct {
	FirstSeq uint64
}

// AppendSegHdr appends the encoded form of h to dst.
func AppendSegHdr(dst []byte, h SegHdr) []byte {
	return binary.LittleEndian.AppendUint64(dst, h.FirstSeq)
}

// DecodeSegHdr parses a SegHdr payload.
func DecodeSegHdr(p []byte) (SegHdr, error) {
	if len(p) != 8 {
		return SegHdr{}, fmt.Errorf("%w: seghdr payload %d bytes, want 8", ErrShort, len(p))
	}
	return SegHdr{FirstSeq: binary.LittleEndian.Uint64(p)}, nil
}

// recBatchRecSize is the wire size of one record in a REC_BATCH:
// op(1) + bin(4) + k(4) + seq(8). The on-disk per-record CRC is
// omitted — the frame CRC covers the batch.
const recBatchRecSize = 1 + 4 + 4 + 8

// MaxBatchRecords is the most records one REC_BATCH frame may carry,
// chosen so a batch stays well under MaxPayload.
const MaxBatchRecords = (MaxPayload - 4) / recBatchRecSize

// AppendRecBatch appends a REC_BATCH payload (count + records) to dst.
// It panics if recs exceeds MaxBatchRecords (a sender-side bug).
func AppendRecBatch(dst []byte, recs []wal.Record) []byte {
	if len(recs) > MaxBatchRecords {
		panic(fmt.Sprintf("dgram: batch of %d records exceeds MaxBatchRecords", len(recs)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Op))
		dst = binary.LittleEndian.AppendUint32(dst, r.Bin)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.K))
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	}
	return dst
}

// DecodeRecBatch parses a REC_BATCH payload, appending into dst (which
// may be a reused slice) and returning it. Ops are validated here so a
// skewed peer can't smuggle an op byte replay would reject later.
func DecodeRecBatch(p []byte, dst []wal.Record) ([]wal.Record, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("%w: record batch %d bytes", ErrShort, len(p))
	}
	n := binary.LittleEndian.Uint32(p[0:4])
	if uint64(len(p)) != 4+uint64(recBatchRecSize)*uint64(n) {
		return dst, fmt.Errorf("%w: record batch %d bytes for %d records", ErrShort, len(p), n)
	}
	off := 4
	for i := uint32(0); i < n; i++ {
		r := wal.Record{
			Op:  wal.Op(p[off]),
			Bin: binary.LittleEndian.Uint32(p[off+1 : off+5]),
			K:   int32(binary.LittleEndian.Uint32(p[off+5 : off+9])),
			Seq: binary.LittleEndian.Uint64(p[off+9 : off+17]),
		}
		if r.Op != wal.OpAlloc && r.Op != wal.OpFree && r.Op != wal.OpCrash {
			return dst, fmt.Errorf("%w: record op %d", ErrShort, p[off])
		}
		dst = append(dst, r)
		off += recBatchRecSize
	}
	return dst, nil
}

// Heartbeat reports the primary's durable seq while the stream is
// caught up; the follower computes lag = LastSeq - appliedSeq.
type Heartbeat struct {
	LastSeq uint64
}

// AppendHeartbeat appends the encoded form of h to dst.
func AppendHeartbeat(dst []byte, h Heartbeat) []byte {
	return binary.LittleEndian.AppendUint64(dst, h.LastSeq)
}

// DecodeHeartbeat parses a Heartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) != 8 {
		return Heartbeat{}, fmt.Errorf("%w: heartbeat payload %d bytes, want 8", ErrShort, len(p))
	}
	return Heartbeat{LastSeq: binary.LittleEndian.Uint64(p)}, nil
}

// PromoteReq is the follower's stand-down fence before a forced
// takeover of a still-live primary.
type PromoteReq struct {
	Force bool
}

// AppendPromoteReq appends the encoded form of q to dst.
func AppendPromoteReq(dst []byte, q PromoteReq) []byte {
	b := byte(0)
	if q.Force {
		b = 1
	}
	return append(dst, b)
}

// DecodePromoteReq parses a PromoteReq payload.
func DecodePromoteReq(p []byte) (PromoteReq, error) {
	if len(p) != 1 {
		return PromoteReq{}, fmt.Errorf("%w: promote payload %d bytes, want 1", ErrShort, len(p))
	}
	return PromoteReq{Force: p[0] != 0}, nil
}

// PromoteOK acknowledges a PROMOTE with the primary's final durable
// seq, so the follower can confirm it is caught up before taking over.
type PromoteOK struct {
	LastSeq uint64
}

// AppendPromoteOK appends the encoded form of a to dst.
func AppendPromoteOK(dst []byte, a PromoteOK) []byte {
	return binary.LittleEndian.AppendUint64(dst, a.LastSeq)
}

// DecodePromoteOK parses a PromoteOK payload.
func DecodePromoteOK(p []byte) (PromoteOK, error) {
	if len(p) != 8 {
		return PromoteOK{}, fmt.Errorf("%w: promote_ok payload %d bytes, want 8", ErrShort, len(p))
	}
	return PromoteOK{LastSeq: binary.LittleEndian.Uint64(p)}, nil
}

// SnapshotMsg bootstraps a follower: a full store image as of Seq,
// with the admission/departure clocks. It is sent when the primary's
// retained segments cannot cover the follower's requested AfterSeq —
// including the always-true first boot case (seeded balls exist only
// in the boot checkpoint, never in the WAL).
type SnapshotMsg struct {
	Seq    uint64
	Allocs int64
	Frees  int64
	Loads  []int32
}

// AppendSnapshotMsg appends the encoded form of s to dst: the seq, then
// the clocks and loads as a StateReply encodes them.
func AppendSnapshotMsg(dst []byte, s SnapshotMsg) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
	return AppendStateReply(dst, StateReply{Allocs: s.Allocs, Frees: s.Frees, Loads: s.Loads})
}

// DecodeSnapshotMsg parses a SnapshotMsg payload, appending the loads
// into loads (which may be a reused slice).
func DecodeSnapshotMsg(p []byte, loads []int32) (SnapshotMsg, error) {
	if len(p) < 8 {
		return SnapshotMsg{}, fmt.Errorf("%w: snapshot payload %d bytes", ErrShort, len(p))
	}
	r, err := DecodeStateReply(p[8:], loads)
	if err != nil {
		return SnapshotMsg{}, fmt.Errorf("snapshot: %w", err)
	}
	return SnapshotMsg{Seq: binary.LittleEndian.Uint64(p), Allocs: r.Allocs, Frees: r.Frees, Loads: r.Loads}, nil
}
