package dgram

import (
	"encoding/binary"
	"fmt"
)

// Summary is the PROBE reply payload: a shard's load digest, the wire
// form of serve.Store.LoadSummary plus the shard's recovered bit. It
// is everything the cluster-level d-choice rule (compare Total) and
// the cluster recovery detector (MaxLoad, clocks) need per probe.
type Summary struct {
	N         uint32 // bins on this shard
	Total     int64  // balls currently stored
	MaxLoad   int32  // current maximum bin load
	NonEmpty  int64  // bins with load > 0
	Allocs    int64  // shard admission clock
	Frees     int64  // shard departure clock
	Recovered bool   // the shard's own detector state (0 if it has none)
}

// summarySize is the fixed encoded size of a Summary.
const summarySize = 4 + 8 + 4 + 8 + 8 + 8 + 1

// AppendSummary appends the encoded form of s to dst.
func AppendSummary(dst []byte, s Summary) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, s.N)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Total))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.MaxLoad))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.NonEmpty))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Allocs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Frees))
	b := byte(0)
	if s.Recovered {
		b = 1
	}
	return append(dst, b)
}

// DecodeSummary parses a Summary payload.
func DecodeSummary(p []byte) (Summary, error) {
	if len(p) != summarySize {
		return Summary{}, fmt.Errorf("%w: summary payload %d bytes, want %d", ErrShort, len(p), summarySize)
	}
	return Summary{
		N:         binary.LittleEndian.Uint32(p[0:4]),
		Total:     int64(binary.LittleEndian.Uint64(p[4:12])),
		MaxLoad:   int32(binary.LittleEndian.Uint32(p[12:16])),
		NonEmpty:  int64(binary.LittleEndian.Uint64(p[16:24])),
		Allocs:    int64(binary.LittleEndian.Uint64(p[24:32])),
		Frees:     int64(binary.LittleEndian.Uint64(p[32:40])),
		Recovered: p[40] != 0,
	}, nil
}

// AdmitReq asks a shard to admit Count balls through its local policy.
type AdmitReq struct {
	Count uint32
}

// AppendAdmitReq appends the encoded form of q to dst.
func AppendAdmitReq(dst []byte, q AdmitReq) []byte {
	return binary.LittleEndian.AppendUint32(dst, q.Count)
}

// DecodeAdmitReq parses an AdmitReq payload.
func DecodeAdmitReq(p []byte) (AdmitReq, error) {
	if len(p) != 4 {
		return AdmitReq{}, fmt.Errorf("%w: admit payload %d bytes, want 4", ErrShort, len(p))
	}
	return AdmitReq{Count: binary.LittleEndian.Uint32(p)}, nil
}

// BinLoad is one (bin, resulting load) pair of an ADMIT_OK / FREE_OK
// reply.
type BinLoad struct {
	Bin  uint32
	Load int32
}

// AppendBinLoads appends a pair-list payload (count + pairs) to dst.
func AppendBinLoads(dst []byte, pairs []BinLoad) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = binary.LittleEndian.AppendUint32(dst, p.Bin)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Load))
	}
	return dst
}

// DecodeBinLoads parses a pair-list payload, appending into dst (which
// may be a reused slice) and returning it.
func DecodeBinLoads(p []byte, dst []BinLoad) ([]BinLoad, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("%w: pair list %d bytes", ErrShort, len(p))
	}
	n := binary.LittleEndian.Uint32(p[0:4])
	if uint64(len(p)) != 4+8*uint64(n) {
		return dst, fmt.Errorf("%w: pair list %d bytes for %d pairs", ErrShort, len(p), n)
	}
	off := 4
	for i := uint32(0); i < n; i++ {
		dst = append(dst, BinLoad{
			Bin:  binary.LittleEndian.Uint32(p[off : off+4]),
			Load: int32(binary.LittleEndian.Uint32(p[off+4 : off+8])),
		})
		off += 8
	}
	return dst, nil
}

// FreeMode selects a FreeReq's departure semantics.
type FreeMode uint8

const (
	// FreeScenario draws departures from the shard's configured
	// scenario stream (A: uniform ball, B: uniform nonempty bin).
	FreeScenario FreeMode = 0
	// FreeBin frees from the specific bin in FreeReq.Bin.
	FreeBin FreeMode = 1
)

// FreeReq asks a shard for Count departures.
type FreeReq struct {
	Mode  FreeMode
	Bin   uint32 // used when Mode == FreeBin
	Count uint32
}

// AppendFreeReq appends the encoded form of q to dst.
func AppendFreeReq(dst []byte, q FreeReq) []byte {
	dst = append(dst, byte(q.Mode))
	dst = binary.LittleEndian.AppendUint32(dst, q.Bin)
	return binary.LittleEndian.AppendUint32(dst, q.Count)
}

// DecodeFreeReq parses a FreeReq payload.
func DecodeFreeReq(p []byte) (FreeReq, error) {
	if len(p) != 9 {
		return FreeReq{}, fmt.Errorf("%w: free payload %d bytes, want 9", ErrShort, len(p))
	}
	q := FreeReq{
		Mode:  FreeMode(p[0]),
		Bin:   binary.LittleEndian.Uint32(p[1:5]),
		Count: binary.LittleEndian.Uint32(p[5:9]),
	}
	if q.Mode != FreeScenario && q.Mode != FreeBin {
		return FreeReq{}, fmt.Errorf("%w: free mode %d", ErrShort, p[0])
	}
	return q, nil
}

// CrashReq dumps K extra balls into Bin — the cluster fault injector.
type CrashReq struct {
	Bin uint32
	K   uint32
}

// AppendCrashReq appends the encoded form of q to dst.
func AppendCrashReq(dst []byte, q CrashReq) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, q.Bin)
	return binary.LittleEndian.AppendUint32(dst, q.K)
}

// DecodeCrashReq parses a CrashReq payload.
func DecodeCrashReq(p []byte) (CrashReq, error) {
	if len(p) != 8 {
		return CrashReq{}, fmt.Errorf("%w: crash payload %d bytes, want 8", ErrShort, len(p))
	}
	return CrashReq{
		Bin: binary.LittleEndian.Uint32(p[0:4]),
		K:   binary.LittleEndian.Uint32(p[4:8]),
	}, nil
}

// AppendLoad appends a CRASH_OK payload (the bin's new load).
func AppendLoad(dst []byte, load int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(load))
}

// DecodeLoad parses a CRASH_OK payload.
func DecodeLoad(p []byte) (int32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: load payload %d bytes, want 4", ErrShort, len(p))
	}
	return int32(binary.LittleEndian.Uint32(p)), nil
}

// StateReply is the STATE_OK payload: the shard's clocks plus its full
// per-bin load vector, the cluster detector's raw material.
type StateReply struct {
	Allocs int64
	Frees  int64
	Loads  []int32
}

// appendLoadHead appends what a STATE_OK payload carries ahead of its
// loads: the clocks, then the bin count.
func appendLoadHead(dst []byte, allocs, frees int64, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(allocs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(frees))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// appendLoads appends load(b) for the bins b in [lo, hi): the one load
// encoder, behind AppendSnapshotMsg and the Writer's streamed frames.
func appendLoads(dst []byte, load func(b int) int, lo, hi int) []byte {
	for b := lo; b < hi; b++ {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(load(b)))
	}
	return dst
}

// DecodeStateReply parses a STATE_OK payload, appending the loads into
// loads (which may be a reused slice).
func DecodeStateReply(p []byte, loads []int32) (StateReply, error) {
	if len(p) < 20 {
		return StateReply{}, fmt.Errorf("%w: state payload %d bytes", ErrShort, len(p))
	}
	s := StateReply{
		Allocs: int64(binary.LittleEndian.Uint64(p[0:8])),
		Frees:  int64(binary.LittleEndian.Uint64(p[8:16])),
	}
	n := binary.LittleEndian.Uint32(p[16:20])
	if uint64(len(p)) != 20+4*uint64(n) {
		return StateReply{}, fmt.Errorf("%w: state payload %d bytes for %d bins", ErrShort, len(p), n)
	}
	off := 20
	for i := uint32(0); i < n; i++ {
		loads = append(loads, int32(binary.LittleEndian.Uint32(p[off:off+4])))
		off += 4
	}
	s.Loads = loads
	return s, nil
}

// ErrCode classifies a TErr reply.
type ErrCode uint8

const (
	// CodeBadRequest: the request payload did not decode, or its
	// arguments are out of range for this shard.
	CodeBadRequest ErrCode = 1
	// CodeEmpty: a departure found no ball to free.
	CodeEmpty ErrCode = 2
	// CodeDraining: the shard is shutting down; retry elsewhere.
	CodeDraining ErrCode = 3
	// CodeInternal: the shard failed to apply the mutation.
	CodeInternal ErrCode = 4
)

var errCodeNames = [...]string{CodeBadRequest: "bad_request", CodeEmpty: "empty", CodeDraining: "draining", CodeInternal: "internal"}

func (c ErrCode) String() string {
	if c != 0 && int(c) < len(errCodeNames) {
		return errCodeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// ErrReply is the TErr payload.
type ErrReply struct {
	Code ErrCode
	Msg  string
}

// Error makes ErrReply usable as a Go error on the client side.
func (e ErrReply) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("dgram: shard error %s", e.Code)
	}
	return fmt.Sprintf("dgram: shard error %s: %s", e.Code, e.Msg)
}

// AppendErrReply appends the encoded form of e to dst.
func AppendErrReply(dst []byte, e ErrReply) []byte {
	dst = append(dst, byte(e.Code))
	return append(dst, e.Msg...)
}

// DecodeErrReply parses a TErr payload. The message is copied (error
// paths are cold, and the payload buffer is reused).
func DecodeErrReply(p []byte) (ErrReply, error) {
	if len(p) < 1 {
		return ErrReply{}, fmt.Errorf("%w: empty error payload", ErrShort)
	}
	return ErrReply{Code: ErrCode(p[0]), Msg: string(p[1:])}, nil
}
