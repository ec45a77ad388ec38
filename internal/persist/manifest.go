package persist

// The manifest is the append-only log that makes the epoch store crash
// consistent. Two record types flow through it: batch records (the WAL — one
// per ingested update batch, in staging order) and snapshot records (one per
// durably written segment, appended only after the segment file is fully
// synced). Recovery replays the manifest front to back, stopping at the
// first record whose length or checksum does not hold — a torn tail from a
// crashed append is indistinguishable from end-of-log, which is exactly the
// semantics an append-only log wants. After each snapshot the manifest is
// rotated (rewritten via rename) down to the retained snapshot records plus
// the batch records they do not cover, so it stays small.
//
// Record layout (little-endian):
//
//	u32 body length | body | u32 CRC-32C(body)
//	body: u8 type | payload
//	type 1 (snapshot): epoch seq u64 | covered batch seq u64 |
//	                   segment size u64 | segment CRC-32C u32 |
//	                   name length u16 | name bytes |
//	                   referenced segment count u32 | epoch seq u64 each
//	                   (a record of the previous format ends after the
//	                   name; it decodes with no references, so recovery
//	                   meets its segment and refuses the old version
//	                   instead of cutting the manifest there)
//	type 2 (batch):    batch seq u64 | update count u32 |
//	                   updates (flag u8 | id i64 | box 48 B)

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	recSnapshot = 1
	recBatch    = 2

	// maxRecordLen bounds a record body so a corrupted length prefix cannot
	// demand an arbitrary allocation during replay.
	maxRecordLen = 1 << 28

	// maxSegmentName bounds the segment file name inside a snapshot record.
	maxSegmentName = 4096
)

// SnapshotRecord points at one durably written segment file. Refs lists
// the epoch sequences of the older segments its reference records point
// into, ascending: the snapshot needs those files as much as its own, so
// segment GC keeps them while the record is retained.
type SnapshotRecord struct {
	EpochSeq uint64
	BatchSeq uint64
	SegSize  int64
	SegCRC   uint32
	Name     string
	Refs     []uint64
}

// BatchRecord is one WAL entry: an update batch with its position in the
// staging order.
type BatchRecord struct {
	Seq     uint64
	Updates []Update
}

// manifestRecords is the decoded content of a manifest.
type manifestRecords struct {
	snapshots []SnapshotRecord
	batches   []BatchRecord
	// validLen is the byte length of the well-formed prefix; bytes beyond it
	// are a torn tail (or nothing).
	validLen int64
	torn     bool
}

func appendRecord(buf []byte, body []byte) []byte {
	buf = appendU32(buf, uint32(len(body)))
	buf = append(buf, body...)
	return appendU32(buf, crc32.Checksum(body, castagnoli))
}

func encodeSnapshotRecord(buf []byte, sr SnapshotRecord) []byte {
	body := make([]byte, 0, 1+8+8+8+4+2+len(sr.Name)+4+8*len(sr.Refs))
	body = append(body, recSnapshot)
	body = appendU64(body, sr.EpochSeq)
	body = appendU64(body, sr.BatchSeq)
	body = appendU64(body, uint64(sr.SegSize))
	body = appendU32(body, sr.SegCRC)
	body = binary.LittleEndian.AppendUint16(body, uint16(len(sr.Name)))
	body = append(body, sr.Name...)
	body = appendU32(body, uint32(len(sr.Refs)))
	for _, seg := range sr.Refs {
		body = appendU64(body, seg)
	}
	return appendRecord(buf, body)
}

func encodeBatchRecord(buf []byte, br BatchRecord) []byte {
	body := make([]byte, 0, 1+8+4+len(br.Updates)*updateWireSize)
	body = append(body, recBatch)
	body = appendU64(body, br.Seq)
	body = appendU32(body, uint32(len(br.Updates)))
	for _, u := range br.Updates {
		body = appendUpdate(body, u)
	}
	return appendRecord(buf, body)
}

// decodeManifest replays manifest bytes into records, tolerating a torn
// tail. It never fails: whatever holds before the first bad length or
// checksum is the manifest's content.
func decodeManifest(data []byte) manifestRecords {
	var m manifestRecords
	off := 0
	for {
		rec, n, ok := nextRecord(data[off:])
		if !ok {
			m.torn = off < len(data)
			m.validLen = int64(off)
			return m
		}
		switch rec[0] {
		case recSnapshot:
			if sr, ok := decodeSnapshotBody(rec[1:]); ok {
				m.snapshots = append(m.snapshots, sr)
			} else {
				m.torn = true
				m.validLen = int64(off)
				return m
			}
		case recBatch:
			if br, ok := decodeBatchBody(rec[1:]); ok {
				m.batches = append(m.batches, br)
			} else {
				m.torn = true
				m.validLen = int64(off)
				return m
			}
		default:
			// Unknown record type: written by a future version or garbage
			// that passed CRC (astronomically unlikely). Stop cleanly.
			m.torn = true
			m.validLen = int64(off)
			return m
		}
		off += n
	}
}

// nextRecord extracts one length+crc framed record body, reporting the total
// frame size. ok is false on a torn or invalid frame.
func nextRecord(data []byte) (body []byte, frame int, ok bool) {
	if len(data) < 8 {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 1 || n > maxRecordLen || len(data) < 4+n+4 {
		return nil, 0, false
	}
	body = data[4 : 4+n]
	crc := binary.LittleEndian.Uint32(data[4+n:])
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, false
	}
	return body, 4 + n + 4, true
}

func decodeSnapshotBody(payload []byte) (SnapshotRecord, bool) {
	var sr SnapshotRecord
	r := &byteReader{data: payload}
	sr.EpochSeq = r.u64()
	sr.BatchSeq = r.u64()
	sr.SegSize = int64(r.u64())
	sr.SegCRC = r.u32()
	nameLen := 0
	if r.ensure(2) {
		nameLen = int(binary.LittleEndian.Uint16(r.data[r.off:]))
		r.off += 2
	}
	if nameLen > maxSegmentName {
		return sr, false
	}
	name := r.bytes(nameLen)
	if !r.ok() || sr.SegSize < 0 {
		return sr, false
	}
	sr.Name = string(name)
	if r.remaining() == 0 {
		// The previous format: no reference list.
		return sr, true
	}
	refs := int(r.u32())
	if !r.ok() || refs != r.remaining()/8 || r.remaining()%8 != 0 {
		return sr, false
	}
	if refs > 0 {
		sr.Refs = make([]uint64, refs)
		for i := range sr.Refs {
			sr.Refs[i] = r.u64()
		}
	}
	return sr, true
}

func decodeBatchBody(payload []byte) (BatchRecord, bool) {
	var br BatchRecord
	r := &byteReader{data: payload}
	br.Seq = r.u64()
	count := int(r.u32())
	if count < 0 || !r.ok() || count*updateWireSize != r.remaining() {
		return br, false
	}
	br.Updates = make([]Update, count)
	for i := range br.Updates {
		br.Updates[i] = r.update()
	}
	return br, true
}

// DecodeManifest replays manifest bytes into snapshot and batch records,
// reporting whether a torn tail was skipped. Exported for the fuzz harness;
// the store replays through it on open and recovery.
func DecodeManifest(data []byte) (snapshots []SnapshotRecord, batches []BatchRecord, torn bool) {
	m := decodeManifest(data)
	return m.snapshots, m.batches, m.torn
}

func segmentName(epochSeq uint64) string {
	return fmt.Sprintf("epoch-%016d.seg", epochSeq)
}
