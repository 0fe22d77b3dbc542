// Package dgram is the cluster tier's wire protocol: compact
// length-prefixed binary frames over persistent TCP connections,
// carrying the probe/admit conversation between a d-choice shard
// router and the dynallocd shard fleet.
//
// A frame is
//
//	magic(1) version(1) type(1) reserved(1) payload_len(4, LE)
//	payload(payload_len)
//	crc32c(4, LE)   — over header + payload, Castagnoli (same as the WAL)
//
// The header is fixed-width so a reader always knows how many bytes to
// expect next; the CRC covers the header too, so a flipped type or a
// corrupted length never decodes as a shorter valid frame. Payload
// codecs (Summary, AdmitReq, ...) are fixed-layout append/parse pairs
// in msg.go.
//
// Encoding and decoding are allocation-free on the hot path, mirroring
// the WAL's group-commit buffer reuse: AppendFrame appends into a
// caller-owned buffer, a Reader reuses one fill buffer (a ReadFrame
// payload is valid only until the next ReadFrame), and a Writer
// streams a load vector in fixed pieces instead of copying it.
//
// Malformed input never panics; it surfaces as one of the typed
// errors (ErrMagic, ErrVersion, ErrType, ErrTooLarge, ErrCRC,
// ErrTruncated), so a router can tell version skew from corruption
// from a half-closed peer. See docs/CLUSTER.md for the full protocol
// walkthrough.
package dgram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Protocol constants.
const (
	// Magic is the first byte of every frame.
	Magic = 0xD6
	// Version is the protocol version this package speaks. A frame
	// with any other version decodes to ErrVersion, the forward-compat
	// seam for rolling upgrades of a shard fleet.
	Version = 1
	// HeaderSize is the fixed frame header length.
	HeaderSize = 8
	// TrailerSize is the CRC32C trailer length.
	TrailerSize = 4
	// MaxPayload bounds a frame's payload. A STATE reply carries 4
	// bytes per bin, so this admits shards up to ~4M bins while keeping
	// a corrupted length prefix from provoking a giant allocation.
	MaxPayload = 16 << 20
)

// Type identifies a frame's meaning. Requests and replies share one
// space; each request type documents its reply type.
type Type uint8

const (
	// TProbe asks a shard for its load digest. Empty payload.
	// Reply: TSummary.
	TProbe Type = 1
	// TSummary is the PROBE reply: an encoded Summary.
	TSummary Type = 2
	// TAdmit asks the shard to admit Count balls through its local
	// admission policy. Payload: AdmitReq. Reply: TAdmitOK.
	TAdmit Type = 3
	// TAdmitOK carries the admitted (bin, load) pairs.
	TAdmitOK Type = 4
	// TFree asks for departures: FreeReq (a specific bin, or a draw
	// from the shard's departure scenario). Reply: TFreeOK.
	TFree Type = 5
	// TFreeOK carries the freed (bin, load) pairs.
	TFreeOK Type = 6
	// TCrash is the fault injector: CrashReq dumps K balls into a bin.
	// Reply: TCrashOK.
	TCrash Type = 7
	// TCrashOK carries the crashed bin's new load (int32).
	TCrashOK Type = 8
	// TState asks for the full per-bin load vector. Empty payload.
	// Reply: TStateOK.
	TState Type = 9
	// TStateOK is an encoded StateReply: clocks plus n int32 loads.
	TStateOK Type = 10
	// TErr is the error reply to any request: ErrReply.
	TErr Type = 11

	// Replication types (internal/replica). A follower opens the
	// conversation with TSubscribe; the primary answers with a stream
	// of TSnapshot / TSegHdr / TRecBatch frames and idles with
	// THeartbeat. TPromote travels follower→primary as a best-effort
	// stand-down fence.

	// TSubscribe asks the primary to stream WAL records after a seq.
	// Payload: SubscribeReq. Replies: a TSnapshot and/or TSegHdr +
	// TRecBatch stream, then THeartbeat while caught up.
	TSubscribe Type = 12
	// TSegHdr announces a segment boundary in the stream: the follower
	// seals its current segment and opens one with the carried firstSeq.
	// Payload: SegHdr.
	TSegHdr Type = 13
	// TRecBatch carries a batch of WAL records in seq order.
	// Payload: RecBatch.
	TRecBatch Type = 14
	// THeartbeat reports the primary's durable seq while the stream is
	// caught up; the follower derives replication lag from it.
	// Payload: Heartbeat.
	THeartbeat Type = 15
	// TPromote is the follower's stand-down fence: sent best-effort to
	// a still-live primary before a forced promotion. Payload:
	// PromoteReq. Reply: TPromoteOK.
	TPromote Type = 16
	// TPromoteOK acknowledges a TPromote with the primary's final
	// durable seq, letting the follower catch up before taking over.
	// Payload: PromoteOK.
	TPromoteOK Type = 17
	// TSnapshot bootstraps a follower whose local log predates the
	// primary's retained segments (or is empty: seeded balls never hit
	// the WAL, only the boot checkpoint). Payload: SnapshotMsg — a full
	// store image as of a seq, like TStateOK plus counters.
	TSnapshot Type = 18

	maxType = TSnapshot
)

var typeNames = [...]string{TProbe: "PROBE", TSummary: "SUMMARY", TAdmit: "ADMIT", TAdmitOK: "ADMIT_OK",
	TFree: "FREE", TFreeOK: "FREE_OK", TCrash: "CRASH", TCrashOK: "CRASH_OK", TState: "STATE",
	TStateOK: "STATE_OK", TErr: "ERR", TSubscribe: "SUBSCRIBE", TSegHdr: "SEG_HDR",
	TRecBatch: "REC_BATCH", THeartbeat: "HEARTBEAT", TPromote: "PROMOTE", TPromoteOK: "PROMOTE_OK",
	TSnapshot: "SNAPSHOT"}

func (t Type) String() string {
	if t != 0 && t <= maxType {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Typed decode errors. Decoders wrap these with context via %w, so
// errors.Is works on every return path.
var (
	// ErrMagic: the first byte is not Magic — the peer is not speaking
	// this protocol (or the stream lost sync).
	ErrMagic = errors.New("dgram: bad magic byte")
	// ErrVersion: a well-formed frame of a protocol version this
	// build does not speak.
	ErrVersion = errors.New("dgram: protocol version mismatch")
	// ErrType: a well-framed frame (magic, version, and CRC all good)
	// of a type this build does not speak — version skew, not
	// corruption. DecodeFrame returns rest advanced past the frame, so
	// a stream can surface the skew and keep decoding.
	ErrType = errors.New("dgram: unknown frame type")
	// ErrTooLarge: the length prefix exceeds MaxPayload.
	ErrTooLarge = errors.New("dgram: frame payload exceeds limit")
	// ErrCRC: header+payload failed the CRC32C check.
	ErrCRC = errors.New("dgram: frame crc mismatch")
	// ErrTruncated: the buffer or stream ended inside a frame.
	ErrTruncated = errors.New("dgram: truncated frame")
	// ErrShort: a payload is too short for its fixed-layout message.
	ErrShort = errors.New("dgram: short payload")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one encoded frame of type t carrying payload to
// dst and returns the extended slice. It never allocates beyond dst's
// growth and panics only on a payload over MaxPayload (a programming
// error on the sending side, not an input condition).
func AppendFrame(dst []byte, t Type, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("dgram: payload of %d bytes exceeds MaxPayload", len(payload)))
	}
	start := len(dst)
	dst = append(dst, Magic, Version, byte(t), 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// DecodeFrame parses the first frame in b, returning its type, its
// payload (aliasing b, no copy), and the remainder of b after the
// frame. Errors are the typed errors above; ErrTruncated means b ends
// mid-frame (read more and retry).
func DecodeFrame(b []byte) (t Type, payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return 0, nil, b, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), HeaderSize)
	}
	if b[0] != Magic {
		return 0, nil, b, fmt.Errorf("%w: 0x%02x", ErrMagic, b[0])
	}
	if b[1] != Version {
		return 0, nil, b, fmt.Errorf("%w: got %d, speak %d", ErrVersion, b[1], Version)
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxPayload {
		return 0, nil, b, fmt.Errorf("%w: length prefix %d", ErrTooLarge, n)
	}
	total := HeaderSize + int(n) + TrailerSize
	if len(b) < total {
		return 0, nil, b, fmt.Errorf("%w: %d bytes of %d", ErrTruncated, len(b), total)
	}
	body := b[:HeaderSize+int(n)]
	want := binary.LittleEndian.Uint32(b[HeaderSize+int(n) : total])
	if crc32.Checksum(body, crcTable) != want {
		return 0, nil, b, ErrCRC
	}
	// Type is checked only after the CRC passes: a corrupted type byte
	// is ErrCRC, so ErrType always means genuine version skew — a
	// well-framed frame from a build that speaks types we don't. The
	// frame's extent is known and verified, so rest advances past it.
	t = Type(b[2])
	if t == 0 || t > maxType {
		return 0, nil, b[total:], fmt.Errorf("%w: %d", ErrType, uint8(b[2]))
	}
	return t, b[HeaderSize : HeaderSize+int(n)], b[total:], nil
}

// Reader decodes a frame stream incrementally, buffering reads so one
// read syscall typically delivers one or more whole frames (the
// protocol's frames are tens of bytes; an unbuffered header+body pair
// of reads would double the syscall count, which dominates loopback
// round-trip cost). It is the stream-side twin of DecodeFrame; a Conn
// embeds one per direction.
type Reader struct {
	r        io.Reader
	buf      []byte // buffered stream bytes; frames decode from buf[pos:end]
	pos, end int
}

// readerBufSize is the fill-buffer size: comfortably larger than any
// fixed-layout frame, so steady-state request/reply traffic never
// regrows it (a STATE reply grows it until the next fill).
const readerBufSize = 4096

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// decodable reports whether buf[pos:end] holds enough bytes for
// DecodeFrame to return something other than ErrTruncated: a complete
// frame, or a header whose fixed fields are invalid (DecodeFrame
// rejects those from the header alone). Gating DecodeFrame on this
// keeps the fill path from constructing ErrTruncated values that are
// only ever discarded — ReadFrame runs once per reply on the router's
// hot path, and a thrown-away fmt.Errorf per fill is real garbage.
func (fr *Reader) decodable() bool {
	avail := fr.end - fr.pos
	if avail < HeaderSize {
		return false
	}
	b := fr.buf[fr.pos:fr.end]
	if b[0] != Magic || b[1] != Version {
		return true
	}
	// An unknown type is NOT decidable from the header alone: the
	// decoder verifies the CRC before ruling on the type, so the whole
	// frame must be buffered first.
	n := binary.LittleEndian.Uint32(b[4:8])
	if n > MaxPayload {
		return true
	}
	return avail >= HeaderSize+int(n)+TrailerSize
}

// ReadFrame reads and verifies the next frame. The returned payload is
// valid only until the next ReadFrame call. io.EOF is returned only on
// a clean frame boundary; an EOF inside a frame is ErrTruncated.
func (fr *Reader) ReadFrame() (Type, []byte, error) {
	for {
		if fr.decodable() {
			t, payload, rest, err := DecodeFrame(fr.buf[fr.pos:fr.end])
			if err != nil {
				// An unknown-but-well-framed frame (version skew) has a
				// verified extent; advance past it so the caller can
				// report the skew and keep reading the stream.
				if errors.Is(err, ErrType) {
					fr.pos = fr.end - len(rest)
				}
				return 0, nil, err
			}
			fr.pos = fr.end - len(rest)
			return t, payload, nil
		}
		// A partial frame: compact it to the front, make sure the whole
		// frame can fit, and fill with one read.
		if fr.pos > 0 {
			fr.end = copy(fr.buf, fr.buf[fr.pos:fr.end])
			fr.pos = 0
		}
		need := readerBufSize
		if fr.end >= HeaderSize {
			if n := binary.LittleEndian.Uint32(fr.buf[4:8]); n <= MaxPayload {
				need = HeaderSize + int(n) + TrailerSize
			}
		}
		// A buffer grown for a large frame shrinks back once it is read.
		if c := cap(fr.buf); c < need || c > readerBufSize && need <= readerBufSize {
			grown := make([]byte, need)
			copy(grown, fr.buf[:fr.end])
			fr.buf = grown
		}
		fr.buf = fr.buf[:cap(fr.buf)]
		n, rerr := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if n == 0 && rerr != nil {
			if rerr == io.EOF {
				if fr.end == 0 {
					return 0, nil, io.EOF
				}
				return 0, nil, fmt.Errorf("%w: stream ended %d bytes into a frame", ErrTruncated, fr.end)
			}
			return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, rerr)
		}
	}
}

// Writer encodes frames onto a stream, reusing one encode buffer.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes and writes one frame. The payload is copied into
// the writer's scratch buffer, so the caller may reuse it immediately.
func (fw *Writer) WriteFrame(t Type, payload []byte) error {
	fw.buf = AppendFrame(fw.buf[:0], t, payload)
	_, err := fw.w.Write(fw.buf)
	return err
}

// pieceSize bounds what a Writer holds while it streams a load vector.
const pieceSize = 64 << 10

// WriteState writes a STATE_OK frame of the clocks and load(b) for the
// n bins: the bytes WriteFrame writes for the whole payload, encoded
// and written a piece at a time, so no copy of the vector is held. A
// vector too large for one frame is ErrTooLarge, and nothing is
// written.
func (fw *Writer) WriteState(allocs, frees int64, n int, load func(b int) int) error {
	var h [20]byte
	return fw.writeLoads(TStateOK, appendLoadHead(h[:0], allocs, frees, n), n, load)
}

// WriteSnapshot is WriteState for a SNAPSHOT frame: the seq, then what
// STATE_OK carries.
func (fw *Writer) WriteSnapshot(seq uint64, allocs, frees int64, n int, load func(b int) int) error {
	var h [28]byte
	return fw.writeLoads(TSnapshot, appendLoadHead(binary.LittleEndian.AppendUint64(h[:0], seq), allocs, frees, n), n, load)
}

// writeLoads streams one frame of type t whose payload is head followed
// by the n loads, folding the CRC over each piece before writing it.
func (fw *Writer) writeLoads(t Type, head []byte, n int, load func(b int) int) error {
	size := len(head) + 4*n
	if size > MaxPayload {
		return fmt.Errorf("%w: %v of %d bins", ErrTooLarge, t, n)
	}
	if c := min(HeaderSize+size+TrailerSize, pieceSize); cap(fw.buf) < c {
		fw.buf = make([]byte, 0, c)
	}
	b := append(fw.buf[:0], Magic, Version, byte(t), 0)
	b = append(binary.LittleEndian.AppendUint32(b, uint32(size)), head...)
	var crc uint32
	for lo := 0; ; b = b[:0] {
		hi := min(n, lo+(cap(b)-len(b)-TrailerSize)/4)
		b = appendLoads(b, load, lo, hi)
		crc = crc32.Update(crc, crcTable, b)
		if lo = hi; lo == n {
			b = binary.LittleEndian.AppendUint32(b, crc)
		}
		if _, err := fw.w.Write(b); err != nil || lo == n {
			return err
		}
	}
}
