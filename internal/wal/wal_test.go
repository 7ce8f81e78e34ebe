package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"disqo/internal/catalog"
	"disqo/internal/faultinject"
	"disqo/internal/types"
)

func openTestLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, 0, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(KindSQL, uint64(i), []byte("INSERT INTO r VALUES (1, 2)")); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	return data
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	bodies := [][]byte{[]byte("CREATE TABLE r (a INT)"), []byte(""), bytes.Repeat([]byte{0xAB}, 1000)}
	for i, b := range bodies {
		lsn, err := l.Append(Kind(1+i%3), uint64(10+i), b)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("LSN %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, _, torn, err := Scan(readLog(t, dir))
	if err != nil || torn {
		t.Fatalf("Scan: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(bodies) {
		t.Fatalf("got %d records, want %d", len(recs), len(bodies))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) || rec.AppliedVersion != uint64(10+i) || !bytes.Equal(rec.Body, bodies[i]) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
}

func TestScanTornTails(t *testing.T) {
	var full []byte
	for i := 1; i <= 3; i++ {
		full = appendFrame(full, Record{LSN: uint64(i), Kind: KindSQL, Body: []byte("DELETE FROM r")})
	}
	frame1 := len(appendFrame(nil, Record{LSN: 1, Kind: KindSQL, Body: []byte("DELETE FROM r")}))

	cases := []struct {
		name string
		data []byte
		want int // surviving records
	}{
		{"short header", full[:2*frame1+3], 2},
		{"partial final frame", full[:len(full)-5], 2},
		{"zero tail", append(append([]byte{}, full...), make([]byte, 64)...), 3},
		{"empty", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, valid, torn, err := Scan(tc.data)
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			wantTorn := len(tc.data) > 0 && int(valid) != len(tc.data)
			if torn != wantTorn {
				t.Fatalf("torn=%v, want %v", torn, wantTorn)
			}
			if len(recs) != tc.want {
				t.Fatalf("got %d records, want %d", len(recs), tc.want)
			}
			if int(valid) != tc.want*frame1 {
				t.Fatalf("valid=%d, want %d", valid, tc.want*frame1)
			}
		})
	}

	// A corrupted checksum on the FINAL frame is torn (indistinguishable
	// from out-of-order sector writes during a crash).
	flipped := append([]byte{}, full...)
	flipped[len(flipped)-1] ^= 0xFF
	recs, _, torn, err := Scan(flipped)
	if err != nil || !torn || len(recs) != 2 {
		t.Fatalf("final-frame corruption: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

func TestScanMidLogCorruption(t *testing.T) {
	var full []byte
	for i := 1; i <= 3; i++ {
		full = appendFrame(full, Record{LSN: uint64(i), Kind: KindSQL, Body: []byte("UPDATE r SET a = 1")})
	}
	frame1 := len(full) / 3

	// Flip a payload byte in the first record: checksum mismatch with
	// more log after it must be a hard error.
	bad := append([]byte{}, full...)
	bad[frameHeader+10] ^= 0x01
	_, _, _, err := Scan(bad)
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("mid-log corruption: got %v, want *RecoveryError", err)
	}
	if re.Offset != 0 {
		t.Fatalf("offset %d, want 0", re.Offset)
	}

	// A sequence break inside well-checksummed frames is also corruption.
	seq := appendFrame(nil, Record{LSN: 1, Kind: KindSQL, Body: nil})
	seq = appendFrame(seq, Record{LSN: 5, Kind: KindSQL, Body: nil})
	if _, _, _, err := Scan(seq); !errors.As(err, &re) {
		t.Fatalf("sequence break: got %v, want *RecoveryError", err)
	}

	// An unknown kind with a valid checksum is corruption.
	kind := appendFrame(nil, Record{LSN: 1, Kind: Kind(99), Body: nil})
	if _, _, _, err := Scan(kind); !errors.As(err, &re) {
		t.Fatalf("unknown kind: got %v, want *RecoveryError", err)
	}

	// A garbage (non-zero) length prefix mid-file is corruption.
	garb := append([]byte{}, full[:frame1]...)
	garb = append(garb, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8)
	if _, _, _, err := Scan(garb); !errors.As(err, &re) {
		t.Fatalf("garbage length: got %v, want *RecoveryError", err)
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SyncEvery: 3})
	appendN(t, l, 2)
	if st := l.Stats(); st.Syncs != 0 || st.PendingRecords != 2 {
		t.Fatalf("before batch boundary: %+v", st)
	}
	appendN(t, l, 1)
	st := l.Stats()
	if st.Syncs != 1 || st.PendingRecords != 0 || st.SyncedBytes != st.AppendedBytes {
		t.Fatalf("after batch boundary: %+v", st)
	}
	appendN(t, l, 1)
	if err := l.forceSync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st := l.Stats(); st.Syncs != 2 || st.PendingRecords != 0 {
		t.Fatalf("after explicit sync: %+v", st)
	}
}

func TestSyncInterval(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{SyncEvery: 1000, SyncInterval: 5 * time.Millisecond})
	appendN(t, l, 2)
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().PendingRecords != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval sync never drained pending records: %+v", l.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if l.Stats().Syncs == 0 {
		t.Fatalf("interval sync recorded no syncs")
	}
}

func TestSealOnInjectedFailure(t *testing.T) {
	for _, c := range []struct {
		site faultinject.Site
		mode faultinject.Mode
		want int // records on disk afterwards: a failed sync leaves its record written
	}{
		{faultinject.SiteWALAppend, faultinject.ModeError, 2},
		{faultinject.SiteWALAppend, faultinject.ModeShortWrite, 2},
		{faultinject.SiteWALSync, faultinject.ModeError, 3},
	} {
		t.Run(c.site.String()+"/"+c.mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultinject.New()
			l := openTestLog(t, dir, Options{Injector: inj})
			appendN(t, l, 2)
			inj.ArmMode(c.site, -1, 3, c.mode)
			if _, err := l.Append(KindSQL, 0, []byte("X")); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("armed append: %v", err)
			}
			// Sealed: everything after fails with ErrSealed, which still
			// resolves to the fault that sealed it.
			if _, err := l.Append(KindSQL, 0, []byte("Y")); !errors.Is(err, ErrSealed) || !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("append after seal: %v", err)
			}
			if err := l.forceSync(); !errors.Is(err, ErrSealed) {
				t.Fatalf("sync after seal: %v", err)
			}
			l.Close()
			// The surviving log must recover to exactly the pre-fault
			// records — and in short-write mode the torn prefix must be
			// dropped, not misread.
			rs, err := Recover(dir)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if len(rs.Records) != c.want || rs.LastLSN != uint64(c.want) {
				t.Fatalf("recovered %d records lastLSN=%d, want %d", len(rs.Records), rs.LastLSN, c.want)
			}
			if c.mode == faultinject.ModeShortWrite && !rs.TruncatedTail {
				t.Fatalf("short write did not produce a truncated tail")
			}
		})
	}
}

func testState(version uint64) CheckpointState {
	cat := catalog.New()
	tbl, _ := cat.Create("r", []catalog.Column{{Name: "a", Type: types.KindInt}, {Name: "b", Type: types.KindString}})
	tbl.Insert([]types.Value{types.NewInt(1), types.NewString("x")})
	tbl.Insert([]types.Value{types.Null(), types.NewString("y")})
	return CheckpointState{
		Tables:         cat.Snapshot().Tables(),
		CatalogVersion: version,
		Views:          []View{{Name: "v", SQL: "CREATE VIEW v AS SELECT a FROM r"}},
	}
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 5)
	if err := l.Checkpoint(dir, testState(5)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if len(readLog(t, dir)) != 0 {
		t.Fatalf("log not truncated after checkpoint")
	}
	// Post-checkpoint records continue the sequence.
	appendN(t, l, 2)
	l.Close()

	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.SnapshotLSN != 5 || rs.CatalogVersion != 5 || rs.LastLSN != 7 {
		t.Fatalf("snapLSN=%d catVersion=%d lastLSN=%d", rs.SnapshotLSN, rs.CatalogVersion, rs.LastLSN)
	}
	if len(rs.Records) != 2 || rs.Records[0].LSN != 6 {
		t.Fatalf("replay tail: %+v", rs.Records)
	}
	if len(rs.Views) != 1 || rs.Views[0].Name != "v" {
		t.Fatalf("views: %+v", rs.Views)
	}
	if len(rs.Tables) != 1 {
		t.Fatalf("tables: %d", len(rs.Tables))
	}
	tbl := rs.Tables[0]
	if tbl.Name != "r" || len(tbl.Columns) != 2 || len(tbl.Rel.Tuples) != 2 {
		t.Fatalf("decoded table: %+v", tbl)
	}
	if got := tbl.Rel.Schema.Attr(0); got != "r.a" {
		t.Fatalf("rebuilt attr %q, want r.a", got)
	}
	if !tbl.Rel.Tuples[1][0].IsNull() {
		t.Fatalf("NULL did not round-trip: %v", tbl.Rel.Tuples[1][0])
	}
}

func TestRecoverFiltersPreSnapshotRecords(t *testing.T) {
	// Simulate a checkpoint that crashed between rename and truncate:
	// snapshot covers LSN 3, log still holds LSN 1..5.
	dir := t.TempDir()
	var data []byte
	for i := 1; i <= 5; i++ {
		data = appendFrame(data, Record{LSN: uint64(i), Kind: KindSQL, Body: []byte("DELETE FROM r")})
	}
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(3)), encodeSnapshot(testState(3), 3), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.SnapshotLSN != 3 || len(rs.Records) != 2 || rs.Records[0].LSN != 4 || rs.LastLSN != 5 {
		t.Fatalf("snapLSN=%d records=%d lastLSN=%d", rs.SnapshotLSN, len(rs.Records), rs.LastLSN)
	}
}

func TestRecoverCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	// Older valid snapshot at LSN 2, newer corrupt one at LSN 4, empty log.
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), encodeSnapshot(testState(2), 2), 0o644); err != nil {
		t.Fatal(err)
	}
	newer := encodeSnapshot(testState(4), 4)
	newer[len(newer)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, snapName(4)), newer, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.SnapshotLSN != 2 {
		t.Fatalf("fell back to snapLSN=%d, want 2", rs.SnapshotLSN)
	}

	// But if the log no longer continues the older snapshot, the gap is
	// a hard error, not silent data loss.
	var tail []byte
	tail = appendFrame(tail, Record{LSN: 5, Kind: KindSQL, Body: []byte("DELETE FROM r")})
	if err := os.WriteFile(filepath.Join(dir, logName), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	var re *RecoveryError
	if _, err := Recover(dir); !errors.As(err, &re) {
		t.Fatalf("gap after fallback: got %v, want *RecoveryError", err)
	}
}

func TestRecoverRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived recovery")
	}
}

func TestRecoverTruncatesTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	for i := 1; i <= 2; i++ {
		data = appendFrame(data, Record{LSN: uint64(i), Kind: KindSQL, Body: []byte("DELETE FROM r")})
	}
	whole := len(data)
	data = append(data, 0x01, 0x02, 0x03) // torn scribble
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rs.TruncatedTail || len(rs.Records) != 2 {
		t.Fatalf("truncated=%v records=%d", rs.TruncatedTail, len(rs.Records))
	}
	if got := len(readLog(t, dir)); got != whole {
		t.Fatalf("log file %d bytes after recovery, want %d", got, whole)
	}
	// A second recovery of the repaired log is clean.
	rs, err = Recover(dir)
	if err != nil || rs.TruncatedTail {
		t.Fatalf("re-recover: truncated=%v err=%v", rs.TruncatedTail, err)
	}
}

func TestLSNSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, Options{})
	appendN(t, l, 3)
	l.Close()
	rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	l2, err := Open(dir, rs.LastLSN, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	lsn, err := l2.Append(KindSQL, 3, []byte("X"))
	if err != nil || lsn != 4 {
		t.Fatalf("lsn=%d err=%v, want 4", lsn, err)
	}
}

// TestRecoveryErrorKeepsItsCause: a replay failure wrapped as log damage
// keeps the identity of what caused it, so callers' errors.Is checks
// survive the wrapper.
func TestRecoveryErrorKeepsItsCause(t *testing.T) {
	cause := errors.New("table is gone")
	var err error = &RecoveryError{LSN: 7, Reason: "replaying insert record: table is gone", Cause: cause}
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is lost the cause through %v", err)
	}
	if errors.Unwrap(&RecoveryError{Reason: "checksum mismatch"}) != nil {
		t.Error("damage without a cause must unwrap to nil")
	}
}
