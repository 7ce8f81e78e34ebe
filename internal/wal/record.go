// Package wal implements disqo's durability substrate: a
// length-prefixed, CRC32C-checksummed, monotonically-sequenced
// write-ahead log of logical DML/DDL records, plus the checkpoint
// files that bound how much of it recovery must replay.
//
// On-disk frame format (all integers little-endian):
//
//	[u32 payloadLen][u32 CRC32C(payload)][payload]
//
// payload:
//
//	[u64 LSN][u64 AppliedVersion][u8 kind][body...]
//
// LSNs are assigned by the log and strictly contiguous: record N+1
// always carries LSN(N)+1, and the counter survives checkpoints (a
// checkpoint truncates the file, never the sequence). AppliedVersion is
// the catalog commit counter the record applied against — replay
// verifies it before re-applying each record, so a divergent recovery
// fails closed instead of silently building a different database.
//
// Torn-vs-corrupt classification (the recovery contract): damage that
// is consistent with a crash mid-write of the FINAL record — a short
// header, a frame extending past end of file, a trailing frame whose
// checksum fails, or an all-zero tail (preallocated but never written)
// — is "torn" and silently truncated at the last valid frame boundary.
// Damage anywhere earlier, or damage a crash cannot produce (a bad
// checksum with more log after it, a well-checksummed payload that does
// not decode, a sequence break), is corruption and surfaces as a typed
// *RecoveryError: the log's prefix invariant is broken and no automatic
// repair is sound.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Kind tags the logical operation a record replays as.
type Kind uint8

const (
	// KindSQL is a DML/DDL statement, as written, replayed through Exec.
	KindSQL Kind = 1
	// KindInsert is a binary-encoded batch insert (table + rows),
	// logged by the programmatic Insert path to avoid SQL round-trips.
	KindInsert Kind = 2
	// KindCreateTable is a programmatic CreateTable (name + columns).
	KindCreateTable Kind = 3
	// KindDropTable is a programmatic DropTable (name).
	KindDropTable Kind = 4
	// KindLoadRST replays a deterministic seeded RST dataset load by
	// its generator parameters instead of logging megabytes of rows.
	KindLoadRST Kind = 5
	// KindLoadTPCH replays a deterministic seeded TPC-H-style load.
	KindLoadTPCH Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindSQL:
		return "sql"
	case KindInsert:
		return "insert"
	case KindCreateTable:
		return "create-table"
	case KindDropTable:
		return "drop-table"
	case KindLoadRST:
		return "load-rst"
	case KindLoadTPCH:
		return "load-tpch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one logical WAL entry.
type Record struct {
	// LSN is the record's log sequence number, contiguous from 1.
	LSN uint64
	// AppliedVersion is the catalog commit counter immediately before
	// this record applied; replay checks it as a pre-image guard.
	AppliedVersion uint64
	// Kind selects how Body replays.
	Kind Kind
	// Body is the kind-specific payload (SQL text as written, a binary
	// row batch, generator parameters, ...). Opaque to this package.
	Body []byte
}

const (
	// frameHeader is the fixed prefix: u32 payload length + u32 CRC32C.
	frameHeader = 8
	// payloadFixed is the fixed payload prefix: LSN + AppliedVersion + kind.
	payloadFixed = 8 + 8 + 1
	// maxRecordLen bounds a single payload; a length prefix above it is
	// treated as damage, never as an allocation request.
	maxRecordLen = 1 << 28
)

// castagnoli is the CRC32C table (iSCSI polynomial), the same checksum
// ext4 and RocksDB use for log frames.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum returns the CRC32C of a payload.
func checksum(payload []byte) uint32 {
	return crc32.Checksum(payload, castagnoli)
}

// appendFrame appends the framed encoding of rec to buf.
func appendFrame(buf []byte, rec Record) []byte {
	payloadLen := payloadFixed + len(rec.Body)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	// CRC is computed over the payload about to be appended; reserve the
	// slot and backfill once the payload bytes exist.
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	payloadAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, rec.LSN)
	buf = binary.LittleEndian.AppendUint64(buf, rec.AppliedVersion)
	buf = append(buf, byte(rec.Kind))
	buf = append(buf, rec.Body...)
	binary.LittleEndian.PutUint32(buf[crcAt:], checksum(buf[payloadAt:]))
	return buf
}

// RecoveryError reports log or snapshot damage recovery cannot repair:
// corruption before the final record, a payload that fails to decode
// despite a valid checksum, or a broken LSN sequence. Callers
// distinguish it from torn-tail truncation (which is silent) with
// errors.As.
type RecoveryError struct {
	// Path is the damaged file, when known.
	Path string
	// Offset is the byte offset of the damaged frame within the file.
	Offset int64
	// LSN is the sequence number involved, when one decoded.
	LSN uint64
	// Reason describes the damage.
	Reason string
	// Cause is the error that made a decodable record unreplayable, when
	// there is one; errors.Is and errors.As see through to it.
	Cause error
}

// Unwrap returns the underlying cause, if any.
func (e *RecoveryError) Unwrap() error { return e.Cause }

func (e *RecoveryError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("wal: unrecoverable damage at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("wal: unrecoverable damage in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// allZero reports whether the tail is entirely zero bytes — the shape
// of preallocated-but-unwritten space, which is torn, not corrupt.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Scan decodes every frame in data, applying the torn-vs-corrupt
// decision table from the package comment. It returns the decoded
// records, the byte length of the valid prefix (the truncation point
// when torn is true), whether a torn tail was dropped, and a
// *RecoveryError for unrecoverable damage. On error the other returns
// describe the valid prefix before the damage.
func Scan(data []byte) (recs []Record, valid int64, torn bool, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			// A header can only be short at end of file: torn.
			return recs, int64(off), true, nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(rest))
		wantCRC := binary.LittleEndian.Uint32(rest[4:])
		if payloadLen < payloadFixed || payloadLen > maxRecordLen {
			if allZero(rest) {
				// Preallocated tail that never received a frame.
				return recs, int64(off), true, nil
			}
			return recs, int64(off), false, &RecoveryError{
				Offset: int64(off),
				Reason: fmt.Sprintf("frame length %d outside [%d, %d] in non-zero tail", payloadLen, payloadFixed, maxRecordLen),
			}
		}
		frameEnd := off + frameHeader + payloadLen
		if frameEnd > len(data) {
			// The final frame's bytes stop short of its declared length:
			// the classic torn write.
			return recs, int64(off), true, nil
		}
		payload := rest[frameHeader : frameHeader+payloadLen]
		if checksum(payload) != wantCRC {
			if frameEnd == len(data) {
				// Bad checksum on the very last frame: indistinguishable
				// from a crash that wrote the full length but not all the
				// bytes (out-of-order sectors), so torn.
				return recs, int64(off), true, nil
			}
			return recs, int64(off), false, &RecoveryError{
				Offset: int64(off),
				Reason: "checksum mismatch before end of log",
			}
		}
		rec := Record{
			LSN:            binary.LittleEndian.Uint64(payload),
			AppliedVersion: binary.LittleEndian.Uint64(payload[8:]),
			Kind:           Kind(payload[16]),
			Body:           payload[payloadFixed:],
		}
		// A frame that checksums correctly was fully written; any
		// problem inside it is corruption, not tearing.
		if rec.Kind < KindSQL || rec.Kind > KindLoadTPCH {
			return recs, int64(off), false, &RecoveryError{
				Offset: int64(off), LSN: rec.LSN,
				Reason: fmt.Sprintf("unknown record kind %d", uint8(rec.Kind)),
			}
		}
		if n := len(recs); n > 0 && rec.LSN != recs[n-1].LSN+1 {
			return recs, int64(off), false, &RecoveryError{
				Offset: int64(off), LSN: rec.LSN,
				Reason: fmt.Sprintf("sequence break: LSN %d follows %d", rec.LSN, recs[n-1].LSN),
			}
		}
		recs = append(recs, rec)
		off = frameEnd
	}
	return recs, int64(off), false, nil
}
