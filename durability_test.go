package disqo

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"disqo/internal/sqlparser"
	"disqo/internal/wal"
)

// TestDurableRoundTrip is the basic life of a durable DB: log, close,
// recover, fingerprint-identical state; then checkpoint, reopen from
// the snapshot alone, same state again.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE r (a INTEGER, b VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO r VALUES (1, 'x'), (2, NULL)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("r", []Value{Int(3), String("z")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE VIEW big AS SELECT DISTINCT * FROM r WHERE a > 1"); err != nil {
		t.Fatal(err)
	}
	fp := db.StateFingerprint()
	st, ok := db.WALStats()
	if !ok || st.Appends != 4 || st.LastLSN != 4 {
		t.Fatalf("wal stats after 4 statements: %+v ok=%v", st, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.StateFingerprint(); got != fp {
		t.Fatalf("fingerprint after recovery: %016x, want %016x", got, fp)
	}
	if ws := db2.WorkloadStats(); ws.RecoveryReplayedRecords != 4 || ws.WAL == nil {
		t.Fatalf("recovery stats: %+v", ws.RecoveryReplayedRecords)
	}
	res, err := db2.Query("SELECT DISTINCT * FROM big")
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("view after recovery: rows=%d err=%v", len(res.Rows), err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, _ := db2.WALStats(); st.Truncations != 1 {
		t.Fatalf("truncations after checkpoint: %d", st.Truncations)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.StateFingerprint(); got != fp {
		t.Fatal("snapshot-only recovery diverged")
	}
	if ws := db3.WorkloadStats(); ws.RecoveryReplayedRecords != 0 {
		t.Fatalf("replayed %d records after a clean checkpoint", ws.RecoveryReplayedRecords)
	}
}

// TestRecoveryServesGoldenShapes is the leak-checked recovery golden:
// a reopened durable DB serves all six golden Fig. 2/3 plan shapes
// byte-identically to the pre-crash DB, under both strategies involved
// and both execution paths.
func TestRecoveryServesGoldenShapes(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, highA4 := range []bool{false, true} {
		dir := t.TempDir()
		ref := chaosDB(t, 64, highA4)
		live, err := Open(WithDataDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		seedChaosData(t, live, 64, highA4)
		if live.StateFingerprint() != ref.StateFingerprint() {
			t.Fatal("durable and volatile twins diverged before the crash")
		}
		// Golden answers from the pre-crash DB, then an unclean cut: no
		// Close, just drop the handle — the WAL (SyncEvery=1) carries all.
		type key struct {
			plan int
			path ExecutionPath
		}
		golden := map[key]string{}
		for pi, plan := range chaosPlans {
			if plan.highA4 != highA4 {
				continue
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				res, err := live.Query(plan.sql, WithStrategy(plan.strategy), WithExecutionPath(path))
				if err != nil {
					t.Fatalf("%s pre-crash: %v", plan.name, err)
				}
				golden[key{pi, path}] = rowsFingerprint(res)
			}
		}
		liveFP := live.StateFingerprint()
		if err := live.Close(); err != nil { // flush the final group-commit batch
			t.Fatal(err)
		}

		re, err := Open(WithDataDir(dir))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		if re.StateFingerprint() != liveFP {
			t.Fatal("recovered state diverged")
		}
		for pi, plan := range chaosPlans {
			if plan.highA4 != highA4 {
				continue
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				res, err := re.Query(plan.sql, WithStrategy(plan.strategy), WithExecutionPath(path))
				if err != nil {
					t.Fatalf("%s post-recovery: %v", plan.name, err)
				}
				if got := rowsFingerprint(res); got != golden[key{pi, path}] {
					t.Fatalf("%s (%v): post-recovery rows differ from pre-crash", plan.name, path)
				}
			}
		}
		re.Close()
		ref.Close()
	}
	// Leak check: closed durable DBs must not leave sync tickers or debug
	// servers behind. Allow the runtime a moment to retire goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines grew %d -> %d after closing every DB", before, n)
	}
}

// seedChaosData mirrors chaosDBWith's dataset onto an existing DB.
func seedChaosData(t *testing.T, db *DB, rows int, highA4 bool) {
	t.Helper()
	for _, spec := range []struct{ name, p string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		cols := []Column{
			{Name: spec.p + "1", Type: TypeInt},
			{Name: spec.p + "2", Type: TypeInt},
			{Name: spec.p + "3", Type: TypeInt},
			{Name: spec.p + "4", Type: TypeInt},
		}
		if err := db.CreateTable(spec.name, cols); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		a4 := int64((i * 37) % 2000)
		if highA4 {
			a4 = int64(1600 + i)
		}
		if err := db.Insert("r", []Value{Int(int64(i % 40)), Int(int64(i % 8)), Int(int64(i)), Int(a4)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("s", []Value{Int(int64(i)), Int(int64(i % 8)), Int(int64(i % 3)), Int(int64((i * 53) % 3000))}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("t", []Value{Int(int64(i)), Int(int64(i % 4)), Int(int64(i % 5)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupCommitRecoversSyncedPrefix: with SyncEvery=8 an abrupt cut
// may lose the unsynced tail but must still recover a legal prefix —
// and Close flushes everything.
func TestGroupCommitRecoversSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir), WithSyncEvery(8), WithSyncInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE g (k INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec("INSERT INTO g VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := db.WALStats()
	if st.Syncs == 0 || st.PendingRecords == 0 {
		t.Fatalf("group commit not exercised: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	n, err := db2.RowCount("g")
	if err != nil || n != 20 {
		t.Fatalf("after clean close: %d rows, err=%v (Close must flush the batch)", n, err)
	}
}

// TestCloseRejectsAndDrains: Close rejects new work with ErrClosed,
// waits for in-flight statements, and is idempotent.
func TestCloseRejectsAndDrains(t *testing.T) {
	db, _ := Open()
	if err := db.CreateTable("c", []Column{{Name: "a", Type: TypeInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := db.Query("SELECT DISTINCT * FROM c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: %v", err)
	}
	if _, err := db.Exec("INSERT INTO c VALUES (1)"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close: %v", err)
	}
	if err := db.Insert("c", []Value{Int(1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	if _, err := db.Analyze("SELECT DISTINCT * FROM c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Analyze after Close: %v", err)
	}
	if _, err := db.Explain("SELECT DISTINCT * FROM c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Explain after Close: %v", err)
	}
	// Prepared statements go through the same lifecycle bracket: Prepare
	// itself is a pure parse, but execution is rejected.
	stmt, err := db.Prepare("SELECT DISTINCT * FROM c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stmt.Query after Close: %v", err)
	}
}

// TestCloseDrainTimeout: a query that outlives the drain budget makes
// Close return ErrDrainTimeout while still shutting the DB down.
func TestCloseDrainTimeout(t *testing.T) {
	db, _ := Open(WithDrainTimeout(30 * time.Millisecond))
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		// Simulate a wedged in-flight call: begin() without end() until
		// released. (Driving a real slow query here would race with the
		// drain; the lifecycle only sees begin/end either way.)
		if err := db.begin(); err != nil {
			panic(err)
		}
		close(started)
		<-release
		db.end()
	}()
	<-started
	if err := db.Close(); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Close with a stuck query: %v, want ErrDrainTimeout", err)
	}
	close(release)
	// The laggard's end() after a timed-out drain must not panic or hang.
	time.Sleep(10 * time.Millisecond)
	if err := db.Close(); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("idempotent Close lost its error: %v", err)
	}
}

// TestCloseWaitsForInflight: without a timeout, Close blocks until the
// in-flight call retires, then returns nil.
func TestCloseWaitsForInflight(t *testing.T) {
	db, _ := Open()
	if err := db.begin(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- db.Close() }()
	select {
	case err := <-done:
		t.Fatalf("Close returned %v with work in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	db.end()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the drain emptied")
	}
}

// TestVolatileUnaffected: without WithDataDir no WAL exists, no files
// are written, and WALStats/Checkpoint report the volatile mode.
func TestVolatileUnaffected(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	if err := db.CreateTable("v", []Column{{Name: "a", Type: TypeInt}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.WALStats(); ok {
		t.Fatal("volatile DB reports WAL stats")
	}
	if err := db.Checkpoint(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("volatile Checkpoint: %v", err)
	}
	if ws := db.WorkloadStats(); ws.WAL != nil {
		t.Fatal("volatile WorkloadStats carries a WAL section")
	}
}

// TestDurableMetricsExposition: the WAL families appear on /metrics in
// durable mode with live counter values.
func TestDurableMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE m (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	text := string(prometheusText(db.WorkloadStats()))
	for _, want := range []string{
		"disqo_wal_appends_total 1",
		"disqo_wal_syncs_total 1",
		"disqo_wal_fsync_duration_seconds_bucket",
		"disqo_wal_sealed 0",
		"disqo_recovery_replayed_records 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	vol, _ := Open()
	defer vol.Close()
	if strings.Contains(string(prometheusText(vol.WorkloadStats())), "disqo_wal_") {
		t.Fatal("volatile /metrics exposes WAL families")
	}
}

// TestRecoveryViewOutlivesTable: a view whose base table was dropped
// after the view's definition must recover (views are installed from
// their SQL without re-validation).
func TestRecoveryViewOutlivesTable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE base (a INTEGER)",
		"INSERT INTO base VALUES (1)",
		"CREATE VIEW dangling AS SELECT DISTINCT * FROM base WHERE a > 0",
		"DROP TABLE base",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	fp := db.StateFingerprint()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("recovery with a dangling view: %v", err)
	}
	defer db2.Close()
	if db2.StateFingerprint() != fp {
		t.Fatal("dangling-view state diverged")
	}
	// Querying the dangling view still fails (as it did pre-crash), but
	// the engine itself is healthy.
	if _, err := db2.Query("SELECT DISTINCT * FROM dangling"); err == nil {
		t.Fatal("dangling view query succeeded without its table")
	}
}

// TestSnapshotViewParseErrorKeepsIdentity: a snapshot holding a view
// whose definition does not parse fails recovery with the parse error
// still reachable through the wrapper — RecoveryError.Cause — not only
// as text.
func TestSnapshotViewParseErrorKeepsIdentity(t *testing.T) {
	const bad = "CREATE VIEW v AS SELEC"
	_, parseErr := sqlparser.ParseStatement(bad)
	if parseErr == nil {
		t.Fatal("the malformed view text parses")
	}
	dir := t.TempDir()
	l, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(dir, wal.CheckpointState{Views: []wal.View{{Name: "v", SQL: bad}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(WithDataDir(dir))
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("Open = %v, want a *RecoveryError", err)
	}
	if re.Cause == nil || re.Cause.Error() != parseErr.Error() || !errors.Is(err, re.Cause) {
		t.Errorf("RecoveryError.Cause = %v, want the parse error %v", re.Cause, parseErr)
	}
}

// TestReplayRefusesIllTypedUpdate: an UPDATE that stores a value its
// column's type does not admit — one an older build committed and
// logged — fails recovery closed instead of rebuilding the bad row.
func TestReplayRefusesIllTypedUpdate(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE t (a INTEGER)", "INSERT INTO t VALUES (1)"} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := db.WALStats()
	pre := db.cat.Version()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(dir, st.LastLSN, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.KindSQL, pre, []byte("UPDATE t SET a = 'abc'")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(WithDataDir(dir))
	var re *RecoveryError
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "t.a expects INTEGER, got VARCHAR") {
		t.Fatalf("Open = %v, want a *RecoveryError naming the type", err)
	}
}

// TestWALHoldsStatementsAsWritten: the log (and a checkpoint's view
// definitions) record a statement's text as written, so whitespace
// inside string literals and the line break that ends a comment
// survive a restart; only cache keys are normalized.
func TestWALHoldsStatementsAsWritten(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE p (name VARCHAR, v INTEGER)",
		"INSERT INTO p VALUES ('a  b', 2), ('x\ty', 3)",
		"INSERT INTO p -- a note\n VALUES ('n', 7)",
		"CREATE VIEW wide AS SELECT DISTINCT * FROM p -- every\n WHERE name = 'a  b'",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	const q = "SELECT DISTINCT * FROM p WHERE name = 'a  b' OR name = 'x\ty'"
	check := func(db *DB, when string, fp uint64) {
		t.Helper()
		if got := db.StateFingerprint(); got != fp {
			t.Errorf("%s: state fingerprint %x, want %x", when, got, fp)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(res.Rows) != 2 {
			t.Errorf("%s: %d rows hold the literals as written, want 2:\n%s", when, len(res.Rows), res)
		}
		if res, err = db.Query("SELECT DISTINCT * FROM wide"); err != nil || len(res.Rows) != 1 {
			t.Errorf("%s: view over a double-spaced literal returned %v, %v", when, res, err)
		}
	}
	fp := db.StateFingerprint()
	check(db, "live", fp)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("replaying the log: %v", err)
	}
	check(db, "after log replay", fp)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(WithDataDir(dir))
	if err != nil {
		t.Fatalf("recovering from the checkpoint: %v", err)
	}
	defer db.Close()
	check(db, "after checkpoint recovery", fp)
}
