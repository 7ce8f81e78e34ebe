// Crash-recovery chaos suite. A child copy of this test binary runs a
// deterministic churn script against a durable DB and SIGKILLs itself
// at one exact WAL/snapshot fault-site visit (ModeKill — no deferred
// cleanup, like a power cut). The parent reopens the directory and
// asserts the recovered state's fingerprint is sequentially legal: it
// must equal the state after some prefix of the churn script, never a
// torn half-statement and never a reordering. A second sweep truncates
// the log at random byte offsets in-process, which must always recover
// to a legal prefix too (the torn-final-record rule), while flipping a
// byte mid-log must fail with a typed *RecoveryError.
package disqo

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"disqo/internal/faultinject"
	"disqo/internal/wal"
)

// churnOps is the scripted write workload: every WAL record kind is
// exercised (SQL DML/DDL, binary inserts, view DDL, the seeded
// loaders), in a fixed order so the state after op i is a function of
// i alone.
func churnOps() []func(db *DB) error {
	var ops []func(db *DB) error
	run := func(sql string) {
		ops = append(ops, func(db *DB) error { _, err := db.Exec(sql); return err })
	}
	run("CREATE TABLE u (a INTEGER, b VARCHAR, c DOUBLE)")
	ops = append(ops, func(db *DB) error {
		return db.CreateTable("w", []Column{{Name: "x", Type: TypeInt}, {Name: "y", Type: TypeBool}})
	})
	for i := 0; i < 10; i++ {
		run(fmt.Sprintf("INSERT INTO u VALUES (%d, 's%d', %g)", i, i%3, float64(i)*1.25))
	}
	ops = append(ops, func(db *DB) error {
		// Binary-logged rows: NULLs and an exact float SQL text would mangle.
		return db.Insert("w", []Value{Int(1), Bool(true)}, []Value{Null(), Bool(false)}, []Value{Int(3), Null()})
	})
	ops = append(ops, func(db *DB) error { return db.LoadRST(0.002, 0.002, 0.002) })
	run("CREATE VIEW v1 AS SELECT DISTINCT * FROM u WHERE a > 3")
	for i := 0; i < 8; i++ {
		run(fmt.Sprintf("INSERT INTO r VALUES (%d, %d, %d, %d)", 100+i, i%8, i, (i*37)%2000))
	}
	run("DELETE FROM u WHERE a = 2")
	run("UPDATE u SET b = 'zz', c = c + 0.5 WHERE a > 7")
	for i := 0; i < 8; i++ {
		run(fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d, %d)", 200+i, i%8, i%3, (i*53)%3000))
	}
	run("DROP VIEW v1")
	run("CREATE VIEW v2 AS SELECT DISTINCT * FROM w WHERE x = 1")
	run("DROP TABLE t")
	for i := 0; i < 6; i++ {
		run(fmt.Sprintf("DELETE FROM s WHERE b1 = %d", 200+i))
	}
	run("UPDATE r SET a4 = a4 + 1 WHERE a2 = 3")
	for i := 0; i < 6; i++ {
		ops = append(ops, func(db *DB) error {
			return db.Insert("u", []Value{Int(50), String("tail"), Float(0.1)})
		})
	}
	run("CREATE TABLE last (k INTEGER)")
	run("INSERT INTO last VALUES (1), (2), (3)")
	return ops
}

// legalChurnFingerprints replays the churn in a volatile DB and records
// the fingerprint after every prefix — the full set of states a crash
// at any moment may legally recover to.
func legalChurnFingerprints(t *testing.T) map[uint64]int {
	t.Helper()
	db, _ := Open()
	defer db.Close()
	legal := map[uint64]int{db.StateFingerprint(): 0}
	for i, op := range churnOps() {
		if err := op(db); err != nil {
			t.Fatalf("churn op %d: %v", i, err)
		}
		legal[db.StateFingerprint()] = i + 1
	}
	return legal
}

// churnCheckpointEvery matches the child's WithCheckpointEvery so the
// kill sweep crosses several full checkpoint cycles.
const churnCheckpointEvery = 17

// TestCrashChaosChild is the child half of the kill sweep: it only runs
// when the parent passes a crash plan through the environment, arms a
// ModeKill fault at one (site, nth) disk visit, and churns until the
// kill lands (or the script completes, which tells the parent the sweep
// walked past the last visit).
func TestCrashChaosChild(t *testing.T) {
	dir := os.Getenv("DISQO_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-chaos child; driven by TestCrashChaosKillSweep")
	}
	site, ok := faultinject.ParseSite(os.Getenv("DISQO_CRASH_SITE"))
	if !ok {
		t.Fatalf("bad DISQO_CRASH_SITE %q", os.Getenv("DISQO_CRASH_SITE"))
	}
	nth, err := strconv.ParseInt(os.Getenv("DISQO_CRASH_NTH"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	in := faultinject.New()
	in.ArmMode(site, -1, nth, faultinject.ModeKill)
	db, err := Open(WithDataDir(dir), WithCheckpointEvery(churnCheckpointEvery), withWALFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range churnOps() {
		if err := op(db); err != nil {
			t.Fatalf("churn op %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// spawnCrashChild re-runs this test binary as TestCrashChaosChild with
// the given crash plan; it reports whether the child was killed (vs.
// finishing the script cleanly).
func spawnCrashChild(t *testing.T, dir string, site faultinject.Site, nth int64) bool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestCrashChaosChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"DISQO_CRASH_DIR="+dir,
		"DISQO_CRASH_SITE="+site.String(),
		"DISQO_CRASH_NTH="+strconv.FormatInt(nth, 10),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return false // clean exit: the armed visit was never reached
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != -1 {
		// Anything but death-by-signal is a child test failure, not a kill.
		t.Fatalf("child %s@%d failed instead of dying: %v\n%s", site, nth, err, out)
	}
	return true
}

// assertLegalRecovery reopens a crashed directory and checks the
// recovered state is the state after some prefix of the churn script.
func assertLegalRecovery(t *testing.T, dir string, legal map[uint64]int, label string) int {
	t.Helper()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer db.Close()
	fp := db.StateFingerprint()
	n, ok := legal[fp]
	if !ok {
		t.Fatalf("%s: recovered fingerprint %016x matches no churn prefix", label, fp)
	}
	return n
}

// TestCrashChaosKillSweep SIGKILLs a child at every reachable visit of
// every durability fault site — each WAL append, each fsync, and all
// three phases of every checkpoint — and asserts every recovered state
// is prefix-legal. -short strides the append/sync sweeps; the full walk
// runs in verify.sh.
func TestCrashChaosKillSweep(t *testing.T) {
	if testing.Short() && os.Getenv("DISQO_CRASH_FULL") == "" {
		t.Log("short mode: striding kill offsets")
	}
	legal := legalChurnFingerprints(t)
	type sweep struct {
		site   faultinject.Site
		stride int64
	}
	sweeps := []sweep{
		{faultinject.SiteWALAppend, 1},
		{faultinject.SiteWALSync, 1},
		{faultinject.SiteSnapshot, 1},
	}
	if testing.Short() {
		sweeps[0].stride, sweeps[1].stride = 7, 7
	}
	for _, sw := range sweeps {
		killed, maxPrefix := 0, 0
		for nth := int64(1); nth < 1000; nth += sw.stride {
			dir := t.TempDir()
			if !spawnCrashChild(t, dir, sw.site, nth) {
				break // walked past the last visit of this site
			}
			killed++
			label := fmt.Sprintf("%s@%d", sw.site, nth)
			if n := assertLegalRecovery(t, dir, legal, label); n > maxPrefix {
				maxPrefix = n
			}
		}
		if killed == 0 {
			t.Fatalf("site %s: no kill ever fired", sw.site)
		}
		t.Logf("site %s: %d kills, deepest legal prefix %d/%d ops", sw.site, killed, maxPrefix, len(legal)-1)
	}
}

// buildChurnDir runs the full churn durably (no kill, optional
// checkpointing) and returns the data directory.
func buildChurnDir(t *testing.T, checkpointEvery int) string {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir), WithCheckpointEvery(checkpointEvery))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range churnOps() {
		if err := op(db); err != nil {
			t.Fatalf("churn op %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrashChaosRandomTruncation cuts the churn log at ≥64 deterministic
// pseudo-random byte offsets — mid-frame, mid-header, on boundaries —
// and requires every cut to recover to a legal prefix: a torn final
// record is silently dropped, never misread.
func TestCrashChaosRandomTruncation(t *testing.T) {
	legal := legalChurnFingerprints(t)
	src := buildChurnDir(t, 0) // no checkpoints: the log carries the whole history
	logBytes, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logBytes) < 1000 {
		t.Fatalf("churn log suspiciously small: %d bytes", len(logBytes))
	}
	const cuts = 72
	rng := uint64(0x9e3779b97f4a7c15)
	seen := 0
	for i := 0; i < cuts; i++ {
		// splitmix64 steps keep the offsets deterministic across runs.
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		off := int((z ^ (z >> 31)) % uint64(len(logBytes)))
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), logBytes[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		n := assertLegalRecovery(t, dir, legal, fmt.Sprintf("cut@%d", off))
		seen++
		_ = n
	}
	if seen < 64 {
		t.Fatalf("only %d cuts exercised", seen)
	}
	// The untouched directory recovers the complete script.
	if n := assertLegalRecovery(t, src, legal, "full"); n != len(legal)-1 {
		t.Fatalf("full log recovered prefix %d, want %d", n, len(legal)-1)
	}
}

// TestCrashChaosMidLogCorruption flips one byte in an early frame: the
// damage is not a crash artifact (well-formed frames follow it), so
// Open must fail closed with a typed *RecoveryError, not silently drop
// committed history.
func TestCrashChaosMidLogCorruption(t *testing.T) {
	src := buildChurnDir(t, 0)
	logPath := filepath.Join(src, "wal.log")
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, logBytes...)
	corrupt[len(corrupt)/3] ^= 0x20
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(WithDataDir(dir))
	if err == nil {
		db.Close()
		t.Fatal("mid-log corruption recovered silently")
	}
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("want *RecoveryError, got %T: %v", err, err)
	}
}

// TestCrashChaosTornTailIdempotent checks recovery repairs the file in
// place: after one recovery of a torn log, a second open replays the
// same state with nothing left to truncate.
func TestCrashChaosTornTailIdempotent(t *testing.T) {
	legal := legalChurnFingerprints(t)
	src := buildChurnDir(t, 0)
	logPath := filepath.Join(src, "wal.log")
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), logBytes[:len(logBytes)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	first := assertLegalRecovery(t, dir, legal, "torn-1")
	second := assertLegalRecovery(t, dir, legal, "torn-2")
	if first != second {
		t.Fatalf("recovery not idempotent: prefix %d then %d", first, second)
	}
	recs, _, torn, err := wal.Scan(mustRead(t, filepath.Join(dir, "wal.log")))
	if err != nil || torn {
		t.Fatalf("repaired log still dirty: torn=%v err=%v", torn, err)
	}
	if len(recs) == 0 {
		t.Fatal("repaired log is empty")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWALSealedAfterInjectedFailure drives the seal satellite through
// the public API: an injected append failure reports the statement as
// unlogged, later writes are rejected with ErrWALSealed, reads keep
// working, and a reopen recovers the durable prefix.
func TestWALSealedAfterInjectedFailure(t *testing.T) {
	dir := t.TempDir()
	in := faultinject.New()
	in.ArmMode(faultinject.SiteWALAppend, -1, 3, faultinject.ModeError)
	db, err := Open(WithDataDir(dir), withWALFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE q (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO q VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec("INSERT INTO q VALUES (2)") // third append: injected failure
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected append failure, got %v", err)
	}
	// The rejection keeps both identities: that the log is sealed, and why.
	if _, err := db.Exec("INSERT INTO q VALUES (3)"); !errors.Is(err, ErrWALSealed) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want ErrWALSealed wrapping the injected cause after seal, got %v", err)
	}
	// Reads still serve the in-memory state (rows 1 and 2 both applied).
	res, err := db.Query("SELECT DISTINCT * FROM q")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("read after seal: rows=%v err=%v", len(res.Rows), err)
	}
	st, _ := db.WALStats()
	if !st.Sealed {
		t.Fatal("stats do not report the seal")
	}
	db.Close()

	// Restart: only the logged prefix (create + first insert) survives.
	db2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err = db2.Query("SELECT DISTINCT * FROM q")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("recovered rows=%d err=%v, want the 1 durable row", len(res.Rows), err)
	}
}
