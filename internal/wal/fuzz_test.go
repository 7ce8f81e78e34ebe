package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode drives Scan — the frame decoder crash recovery trusts
// with arbitrary disk bytes — over mutated logs. The decoder must never
// panic, must classify every input as (valid | torn | corrupt), and its
// accepted prefix must round-trip: re-encoding the decoded records must
// reproduce exactly the bytes it declared valid.
func FuzzWALDecode(f *testing.F) {
	// Seeds mirror real logs: well-formed sequences, a torn tail, a
	// zero-filled preallocation, mid-log damage, and header edge cases.
	var clean []byte
	clean = appendFrame(clean, Record{LSN: 1, AppliedVersion: 1, Kind: KindSQL, Body: []byte("CREATE TABLE r (a INTEGER, b VARCHAR)")})
	clean = appendFrame(clean, Record{LSN: 2, AppliedVersion: 2, Kind: KindSQL, Body: []byte("INSERT INTO r VALUES (1, 'x')")})
	clean = appendFrame(clean, Record{LSN: 3, AppliedVersion: 3, Kind: KindInsert, Body: []byte{0x01, 'r', 0x01, 0x02}})
	f.Add(clean)
	f.Add(clean[:len(clean)-7])
	f.Add(append(append([]byte{}, clean...), make([]byte, 32)...))
	flipped := append([]byte{}, clean...)
	flipped[frameHeader+3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(appendFrame(nil, Record{LSN: 9, Kind: KindLoadTPCH, Body: nil}))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn, err := Scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if err != nil {
			if torn {
				t.Fatalf("both torn and corrupt for the same input")
			}
			return
		}
		if torn && valid == int64(len(data)) {
			t.Fatalf("torn but nothing truncated")
		}
		// Round-trip: the accepted records must re-encode to the exact
		// valid prefix, and a rescan of that prefix must be clean.
		var re []byte
		for _, rec := range recs {
			re = appendFrame(re, rec)
		}
		if !bytes.Equal(re, data[:valid]) {
			t.Fatalf("re-encode mismatch: %d bytes vs valid prefix %d", len(re), valid)
		}
		recs2, valid2, torn2, err2 := Scan(data[:valid])
		if err2 != nil || torn2 || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("rescan of valid prefix: recs=%d valid=%d torn=%v err=%v", len(recs2), valid2, torn2, err2)
		}
	})
}
