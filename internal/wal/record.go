// Package wal is the durability substrate of the live allocation
// service: a segmented, append-only write-ahead log of the store's
// mutations (alloc / free / crash), written as fixed-width binary
// records each protected by a CRC32C, with a configurable fsync policy
// and size-based segment rotation. A sealed segment ends in a footer
// carrying its per-bin sum (see footer.go), so replay can skip a
// segment a checkpoint covers and apply a later one without decoding
// it.
//
// Restore is "load the latest valid checkpoint (internal/checkpoint),
// then replay the WAL suffix". Replay tolerates the two corruptions a
// crash leaves behind, a torn tail and a corrupted record (CRC
// mismatch): it ends the segment there, walks into the next one when
// its header shows the record stream stays contiguous (segments written
// after a restore open at the restored seq + 1), and stops only where
// continuing would skip a record. It reports the corruption instead of
// failing — the self-stabilization reading of the paper: a
// crash-corrupted state is just another starting point.
//
// Records carry a caller-assigned sequence number (seq). The serving
// journal draws seqs and hands the log its runs in one order, so the
// log holds its records in seq order; replay filters by seq all the
// same, never by file position.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Op is the mutation type of one WAL record.
type Op uint8

const (
	// OpAlloc is one admission into Bin (K is always 1).
	OpAlloc Op = 1
	// OpFree is one departure from Bin (K is always 1).
	OpFree Op = 2
	// OpCrash is a fault injection of K balls into Bin (also used for
	// the balanced seeding at first boot, which goes through
	// Store.Crash).
	OpCrash Op = 3
)

func (o Op) String() string {
	if names := [...]string{OpAlloc: "alloc", OpFree: "free", OpCrash: "crash"}; o != 0 && int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one logged store mutation.
type Record struct {
	Op  Op
	Bin uint32
	K   int32  // ball count: 1 for alloc/free, the injected k for crash
	Seq uint64 // caller-assigned sequence number, 1-based
}

// RecordSize is the fixed on-disk size of an encoded record:
// op(1) + bin(4) + k(4) + seq(8) + crc32c(4).
const RecordSize = 1 + 4 + 4 + 8 + 4

// crcTable is the Castagnoli polynomial table (CRC32C), the same
// checksum used by ext4 and most storage engines.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadSize is the checksummed prefix of a record.
const payloadSize = RecordSize - 4

// encode writes r into buf (which must hold RecordSize bytes).
func (r Record) encode(buf []byte) {
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint32(buf[1:5], r.Bin)
	binary.LittleEndian.PutUint32(buf[5:9], uint32(r.K))
	binary.LittleEndian.PutUint64(buf[9:17], r.Seq)
	binary.LittleEndian.PutUint32(buf[17:21], crc32.Checksum(buf[:payloadSize], crcTable))
}

// DecodeRecord parses one record from buf (RecordSize bytes), verifying
// the CRC. It returns ok=false on checksum mismatch or an invalid op
// byte — the two shapes a torn or corrupted record takes.
func DecodeRecord(buf []byte) (Record, bool) {
	want := binary.LittleEndian.Uint32(buf[17:21])
	if crc32.Checksum(buf[:payloadSize], crcTable) != want {
		return Record{}, false
	}
	r := Record{
		Op:  Op(buf[0]),
		Bin: binary.LittleEndian.Uint32(buf[1:5]),
		K:   int32(binary.LittleEndian.Uint32(buf[5:9])),
		Seq: binary.LittleEndian.Uint64(buf[9:17]),
	}
	if r.Op != OpAlloc && r.Op != OpFree && r.Op != OpCrash {
		return Record{}, false
	}
	return r, true
}
