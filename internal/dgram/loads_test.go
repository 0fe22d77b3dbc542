package dgram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// AppendStateReply is the reference encoding of a STATE_OK payload,
// written out by hand: the streamed frames and AppendSnapshotMsg are
// held to it.
func AppendStateReply(dst []byte, s StateReply) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Allocs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Frees))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Loads)))
	for _, l := range s.Loads {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l))
	}
	return dst
}

// pieceWriter records each Write a streamed frame makes.
type pieceWriter struct {
	bytes.Buffer
	writes, largest int
}

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

// testLoads is an n-bin vector with a spread of values, negative and
// above 2^16 included, so a byte-order or truncation slip shows.
func testLoads(n int) []int32 {
	l := make([]int32, n)
	for b := range l {
		l[b] = int32(b*2654435761) >> 7
	}
	return l
}

func loadOf(l []int32) func(int) int { return func(b int) int { return int(l[b]) } }

// TestStreamedLoadFramesMatchAppendFrame: WriteState and WriteSnapshot
// put on the wire exactly the bytes AppendFrame writes for the
// reference payload (protocol v1 is frozen), in writes no larger than
// one piece, and the frames decode back to the vector.
func TestStreamedLoadFramesMatchAppendFrame(t *testing.T) {
	onePiece := (pieceSize - HeaderSize - 20 - TrailerSize) / 4 // bins of a one-write STATE_OK
	for _, n := range []int{0, 1, onePiece - 1, onePiece, onePiece + 1, 3*pieceSize/4 + 1} {
		loads := testLoads(n)
		var sw, nw pieceWriter
		if err := NewWriter(&sw).WriteState(42, 17, n, loadOf(loads)); err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(&nw).WriteSnapshot(99, 42, 17, n, loadOf(loads)); err != nil {
			t.Fatal(err)
		}
		state := AppendStateReply(nil, StateReply{Allocs: 42, Frees: 17, Loads: loads})
		snap := AppendStateReply(binary.LittleEndian.AppendUint64(nil, 99), StateReply{Allocs: 42, Frees: 17, Loads: loads})
		if got := AppendSnapshotMsg(nil, SnapshotMsg{Seq: 99, Allocs: 42, Frees: 17, Loads: loads}); !bytes.Equal(got, snap) {
			t.Fatalf("n=%d: AppendSnapshotMsg differs from the reference encoding", n)
		}
		for _, c := range []struct {
			w    *pieceWriter
			want []byte
		}{
			{&sw, AppendFrame(nil, TStateOK, state)},
			{&nw, AppendFrame(nil, TSnapshot, snap)},
		} {
			if !bytes.Equal(c.w.Bytes(), c.want) {
				t.Fatalf("n=%d: streamed frame differs from AppendFrame's (%d vs %d bytes)", n, c.w.Len(), len(c.want))
			}
			// Every piece but the last carries pieceSize-TrailerSize
			// bytes; the last one has room for the CRC.
			if c.w.largest > pieceSize || c.w.writes != 1+(len(c.want)-TrailerSize-1)/(pieceSize-TrailerSize) {
				t.Fatalf("n=%d: %d writes, largest %d bytes, for a %d-byte frame", n, c.w.writes, c.w.largest, len(c.want))
			}
		}
		if n == onePiece && sw.writes != 1 {
			t.Fatalf("a STATE_OK of %d bins took %d writes, want 1", n, sw.writes)
		}

		r := NewReader(&sw)
		typ, p, err := r.ReadFrame()
		if err != nil || typ != TStateOK {
			t.Fatalf("n=%d: read back %v, %v", n, typ, err)
		}
		sr, err := DecodeStateReply(p, nil)
		if err != nil || sr.Allocs != 42 || sr.Frees != 17 || !equalLoads(sr.Loads, loads) {
			t.Fatalf("n=%d: STATE_OK decodes to %d/%d, %d bins, %v", n, sr.Allocs, sr.Frees, len(sr.Loads), err)
		}
		r = NewReader(&nw)
		if typ, p, err = r.ReadFrame(); err != nil || typ != TSnapshot {
			t.Fatalf("n=%d: read back %v, %v", n, typ, err)
		}
		sm, err := DecodeSnapshotMsg(p, nil)
		if err != nil || sm.Seq != 99 || sm.Allocs != 42 || sm.Frees != 17 || !equalLoads(sm.Loads, loads) {
			t.Fatalf("n=%d: SNAPSHOT decodes to %d %d/%d, %d bins, %v", n, sm.Seq, sm.Allocs, sm.Frees, len(sm.Loads), err)
		}
	}
}

func equalLoads(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamedLoadFrameTooLarge: a vector past MaxPayload is
// ErrTooLarge before a byte is written, so the caller can still answer.
func TestStreamedLoadFrameTooLarge(t *testing.T) {
	const n = MaxPayload/4 + 1 // one bin more than a frame can carry
	refused := func(int) int { panic("read a bin of a vector refused as too large") }
	var w pieceWriter
	fw := NewWriter(&w)
	for _, err := range []error{fw.WriteState(1, 0, n, refused), fw.WriteSnapshot(1, 1, 0, n, refused)} {
		if !errors.Is(err, ErrTooLarge) || w.writes != 0 {
			t.Fatalf("oversize vector: %v after %d writes", err, w.writes)
		}
	}
	if err := fw.WriteFrame(TErr, AppendErrReply(nil, ErrReply{Code: CodeInternal})); err != nil || w.writes != 1 {
		t.Fatalf("the reply after a refused STATE: %v, %d writes", err, w.writes)
	}
}

// TestReaderDropsGrownBuffer: a Reader grown for a STATE-sized frame
// goes back to readerBufSize at the next fill, so a connection does
// not keep a frame's size after the frame is consumed.
func TestReaderDropsGrownBuffer(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	if err := w.WriteState(1, 0, 1<<14, loadOf(testLoads(1<<14))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.WriteFrame(TSummary, AppendSummary(nil, Summary{N: 1})); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&stream)
	if typ, p, err := r.ReadFrame(); err != nil || typ != TStateOK || cap(r.buf) < len(p) {
		t.Fatalf("STATE_OK: %v %v, buffer %d bytes", typ, err, cap(r.buf))
	}
	for i := 0; i < 3; i++ {
		if typ, _, err := r.ReadFrame(); err != nil || typ != TSummary {
			t.Fatalf("frame %d after the STATE: %v %v", i, typ, err)
		}
		if cap(r.buf) != readerBufSize {
			t.Fatalf("frame %d after the STATE: buffer holds %d bytes, want %d", i, cap(r.buf), readerBufSize)
		}
	}
}

// TestTypeAndCodeNames: every frame type and error code has its own
// name, and an unknown one prints its number.
func TestTypeAndCodeNames(t *testing.T) {
	seen := map[string]bool{}
	for ty := Type(1); ty <= maxType; ty++ {
		if name := ty.String(); name == "" || seen[name] {
			t.Fatalf("type %d is named %q", uint8(ty), name)
		}
		seen[ty.String()] = true
	}
	for c := CodeBadRequest; c <= CodeInternal; c++ {
		if name := c.String(); name == "" || seen[name] {
			t.Fatalf("code %d is named %q", uint8(c), name)
		}
		seen[c.String()] = true
	}
	if Type(0).String() != "type(0)" || (maxType+1).String() != fmt.Sprintf("type(%d)", maxType+1) || ErrCode(9).String() != "code(9)" {
		t.Fatalf("unknown names: %v %v %v", Type(0), maxType+1, ErrCode(9))
	}
}
