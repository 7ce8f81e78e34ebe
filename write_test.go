package disqo

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"disqo/internal/faultinject"
	"disqo/internal/wal"
)

// scanLog reads back every record a durable DB's log holds.
func scanLog(t *testing.T, dir string) []wal.Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn, err := wal.Scan(data)
	if err != nil || torn {
		t.Fatalf("scanning the log: torn=%v err=%v", torn, err)
	}
	return recs
}

func execAll(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// commitPrep is the state every TestOneCommit row starts from.
var commitPrep = []string{
	"CREATE TABLE m (a INTEGER)",
	"INSERT INTO m VALUES (1), (2), (3)",
	"CREATE TABLE other (x INTEGER)",
	"INSERT INTO other VALUES (1)",
	"CREATE TABLE doomed (d INTEGER)",
	"CREATE VIEW v AS SELECT a FROM m WHERE a > 1",
	"CREATE TABLE nn (a INTEGER, b BOOLEAN)",
	"INSERT INTO nn VALUES (1, NULL), (2, NULL), (NULL, NULL)",
}

// TestOneCommit asserts the write protocol once, over every kind of
// write, instead of per method: refused on a sealed WAL before anything
// changes; on a healthy durable DB exactly one record, of the kind's
// WAL kind, carrying the pre-image version; cached results over the
// touched tables dropped (the writer reads its own write) and no others;
// and the log alone rebuilds the writer's state, by crash recovery and
// on a replica.
func TestOneCommit(t *testing.T) {
	const overM, overOther, overNN = "SELECT DISTINCT * FROM m", "SELECT DISTINCT * FROM other", "SELECT * FROM nn"
	intCol := func(name string) []Column { return []Column{{Name: name, Type: TypeInt}} }
	api := func(f func(db *DB) error) func(*DB) (int, error) {
		return func(db *DB) (int, error) { return 0, f(db) }
	}
	sql := func(stmt string) func(*DB) (int, error) {
		return func(db *DB) (int, error) { return db.Exec(stmt) }
	}
	for _, c := range []struct {
		name string
		do   func(db *DB) (int, error)
		kind wal.Kind
		rows int // rows affected, as reported
		// cached is a query answered (and cached) before the write; drops
		// says whether the write touches a table under it.
		cached string
		drops  bool
		// check is what the writer reads afterwards: want rows, or an
		// error for want < 0.
		check string
		want  int
	}{
		{"CreateTable", api(func(db *DB) error { return db.CreateTable("n", intCol("a")) }),
			wal.KindCreateTable, 0, overM, false, "SELECT DISTINCT * FROM n", 0},
		{"DropTable", api(func(db *DB) error { return db.DropTable("doomed") }),
			wal.KindDropTable, 0, "SELECT DISTINCT * FROM doomed", true, "SELECT DISTINCT * FROM doomed", -1},
		{"Insert", api(func(db *DB) error { return db.Insert("m", []Value{Int(4)}, []Value{Int(5)}) }),
			wal.KindInsert, 0, overM, true, overM, 5},
		{"LoadRST", api(func(db *DB) error { return db.LoadRST(0.001, 0.001, 0.001) }),
			wal.KindLoadRST, 0, overM, false, "SELECT COUNT(*) AS n FROM s", 1},
		{"LoadTPCH", api(func(db *DB) error { return db.LoadTPCH(0.001) }),
			wal.KindLoadTPCH, 0, overM, false, "SELECT COUNT(*) AS n FROM region", 1},
		{"CREATE TABLE", sql("CREATE TABLE n (a INTEGER)"), wal.KindSQL, 0, overM, false, "SELECT DISTINCT * FROM n", 0},
		{"DROP TABLE", sql("DROP TABLE doomed"), wal.KindSQL, 0, "SELECT DISTINCT * FROM doomed", true, "SELECT DISTINCT * FROM doomed", -1},
		{"CREATE VIEW", sql("CREATE VIEW w AS SELECT a FROM m WHERE a = 1"), wal.KindSQL, 0, overM, false, "SELECT DISTINCT * FROM w", 1},
		{"DROP VIEW", sql("DROP VIEW v"), wal.KindSQL, 0, overM, false, "SELECT DISTINCT * FROM v", -1},
		{"INSERT", sql("INSERT INTO m VALUES (4)"), wal.KindSQL, 1, overM, true, overM, 4},
		{"UPDATE", sql("UPDATE m SET a = 10 WHERE a < 3"), wal.KindSQL, 2, overM, true, "SELECT DISTINCT * FROM m WHERE a = 10", 1},
		{"DELETE", sql("DELETE FROM m WHERE a = 1"), wal.KindSQL, 1, overM, true, overM, 2},
		{"UPDATE of no row", sql("UPDATE m SET a = 0 WHERE a > 99"), wal.KindSQL, 0, overM, false, overM, 3},
		{"UPDATE by a correlated block", sql("UPDATE m SET a = (SELECT COUNT(*) FROM nn WHERE nn.a = m.a OR nn.a IS NULL)"),
			wal.KindSQL, 3, overM, true, "SELECT * FROM m WHERE a = 2", 2},
		// A write evaluates in three-valued logic, which is what replaying
		// its text does: NOT (NULL = 1) is UNKNOWN and deletes nothing, and
		// NULL = 1 writes NULL.
		{"DELETE over a NULL", sql("DELETE FROM nn WHERE NOT (a = 1)"), wal.KindSQL, 1, overNN, true, overNN, 2},
		{"UPDATE to a predicate", sql("UPDATE nn SET b = (a = 1)"), wal.KindSQL, 3, overNN, true, "SELECT * FROM nn WHERE b IS NULL", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Sealed: the append after the prep statements' fails and seals
			// the log; the write must then be refused with nothing changed.
			in := faultinject.New()
			in.ArmMode(faultinject.SiteWALAppend, -1, int64(len(commitPrep))+1, faultinject.ModeError)
			sealed, err := Open(WithDataDir(t.TempDir()), withWALFaultInjector(in))
			if err != nil {
				t.Fatal(err)
			}
			defer sealed.Close()
			execAll(t, sealed, commitPrep...)
			if _, err := sealed.Exec("CREATE TABLE sacrificed (x INTEGER)"); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("the sealing write returned %v", err)
			}
			fp, version := sealed.StateFingerprint(), sealed.cat.Version()
			if _, err := c.do(sealed); !errors.Is(err, ErrWALSealed) {
				t.Errorf("on a sealed WAL the write returned %v, want ErrWALSealed", err)
			}
			if sealed.StateFingerprint() != fp || sealed.cat.Version() != version {
				t.Error("the refused write changed the state")
			}

			// Healthy: one record, the pre-image version, the caches.
			dir := t.TempDir()
			db, err := Open(WithDataDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			execAll(t, db, commitPrep...)
			for _, q := range []string{c.cached, overOther} {
				if _, err := db.Query(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			pre, logged, cs := db.cat.Version(), len(scanLog(t, dir)), db.CacheStats().Result
			n, err := c.do(db)
			if err != nil || n != c.rows {
				t.Fatalf("write = %d rows, %v; want %d", n, err, c.rows)
			}
			recs := scanLog(t, dir)
			if len(recs) != logged+1 {
				t.Fatalf("the write appended %d records, want 1", len(recs)-logged)
			}
			if last := recs[len(recs)-1]; last.Kind != c.kind || last.AppliedVersion != pre {
				t.Errorf("record %s with pre-image %d, want %s with %d", last.Kind, last.AppliedVersion, c.kind, pre)
			}
			if got := db.CacheStats().Result.Invalidations - cs.Invalidations; (got > 0) != c.drops {
				t.Errorf("the write dropped %d cached results, want any: %v", got, c.drops)
			}
			res, err := db.Query(c.check)
			switch {
			case c.want < 0 && err == nil:
				t.Errorf("the writer still reads %s: %d rows", c.check, len(res.Rows))
			case c.want >= 0 && (err != nil || len(res.Rows) != c.want):
				t.Errorf("the writer reads %s as %v, %v; want %d rows", c.check, res, err, c.want)
			}
			survivors := []string{overOther}
			if !c.drops {
				survivors = append(survivors, c.cached)
			}
			hits := db.CacheStats().Result.Hits
			for i, q := range survivors {
				if _, err := db.Query(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				if got := db.CacheStats().Result.Hits; got != hits+int64(i)+1 {
					t.Errorf("the cached result of %s, over no touched table, did not survive the write", q)
				}
			}

			// The log alone rebuilds the writer's state.
			fp, version = db.StateFingerprint(), db.cat.Version()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			recovered, err := Open(WithDataDir(dir))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer recovered.Close()
			if recovered.StateFingerprint() != fp || recovered.cat.Version() != version {
				t.Errorf("recovery reached version %d, the writer %d (fingerprints equal: %v)",
					recovered.cat.Version(), version, recovered.StateFingerprint() == fp)
			}
		})
	}
}

// walScript is a fixed sequence of writes through every record kind.
func walScript(t *testing.T, db *DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable("p", []Column{
		{Name: "id", Type: TypeInt}, {Name: "Name", Type: TypeString},
		{Name: "w", Type: TypeFloat}, {Name: "ok", Type: TypeBool},
	}))
	must(db.Insert("p",
		[]Value{Int(1), String("a  b"), Float(1e-7), Bool(true)},
		[]Value{Int(-2), Null(), Float(2.5), Bool(false)}))
	execAll(t, db,
		"CREATE TABLE q (a INTEGER, b VARCHAR)",
		"INSERT INTO q -- note\n VALUES (1, 'x  y'), (2, NULL)",
		"CREATE VIEW pv AS SELECT id FROM p WHERE id > 1",
		"UPDATE q SET a = 5 WHERE a = 1",
		"UPDATE q SET a = 0 WHERE a > 99",
		"DELETE FROM q WHERE a = 2",
		"DROP VIEW pv",
	)
	must(db.LoadRST(0.001, 0.002, 0.003))
	must(db.LoadTPCH(0.001))
	must(db.LoadTPCH(0.001, "customer", "orders"))
	must(db.DropTable("p"))
	execAll(t, db, "DROP TABLE q")
}

// TestWALRecordsPinned diffs the records walScript appends against the
// list the parent of the one-commit change wrote for the same script:
// kinds and body bytes are identical. The pre-image version is too, up
// to the first view DDL; from there it runs ahead by one per view
// statement before it, view DDL now being a catalog commit.
func TestWALRecordsPinned(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	walScript(t, db)
	recs := scanLog(t, dir)
	if len(recs) != len(pinnedRecords) {
		t.Fatalf("%d records, want %d", len(recs), len(pinnedRecords))
	}
	viewDDL := uint64(0)
	for i, want := range pinnedRecords {
		got := recs[i]
		if got.Kind != want.kind || hex.EncodeToString(got.Body) != want.body {
			t.Errorf("record %d: %s %x, want %s %s", i+1, got.Kind, got.Body, want.kind, want.body)
		}
		if got.AppliedVersion != want.version+viewDDL {
			t.Errorf("record %d: pre-image version %d, want %d", i+1, got.AppliedVersion, want.version+viewDDL)
		}
		if want.viewDDL {
			viewDDL++
		}
	}
}

type pinnedRecord struct {
	kind    wal.Kind
	version uint64 // pre-image version at the parent
	body    string // hex
	viewDDL bool
}

// pinnedRecords is what the parent build (commit ae61688) logged for
// walScript, printed by a throwaway test there.
var pinnedRecords = []pinnedRecord{
	{wal.KindCreateTable, 0, "01700402696401044e616d6503017702026f6b04", false},
	{wal.KindInsert, 1, "017002040101000000000000000304612020620248afbc9af2d77a3e04010401feffffffffffffff000200000000000004400400", false},
	{wal.KindSQL, 2, "435245415445205441424c45207120286120494e54454745522c2062205641524348415229", false},
	{wal.KindSQL, 3, "494e5345525420494e544f2071202d2d206e6f74650a2056414c5545532028312c20277820207927292c2028322c204e554c4c29", false},
	{wal.KindSQL, 4, "43524541544520564945572070762041532053454c4543542069642046524f4d2070205748455245206964203e2031", true},
	{wal.KindSQL, 4, "5550444154452071205345542061203d20352057484552452061203d2031", false},
	{wal.KindSQL, 5, "5550444154452071205345542061203d20302057484552452061203e203939", false},
	{wal.KindSQL, 5, "44454c4554452046524f4d20712057484552452061203d2032", false},
	{wal.KindSQL, 6, "44524f502056494557207076", true},
	{wal.KindLoadRST, 6, "fca9f1d24d62503ffca9f1d24d62603ffa7e6abc7493683f0000000000000000", false},
	{wal.KindLoadTPCH, 9, "fca9f1d24d62503f000000000000000000", false},
	{wal.KindLoadTPCH, 14, "fca9f1d24d62503f00000000000000000208637573746f6d6572066f7264657273", false},
	{wal.KindDropTable, 16, "70", false},
	{wal.KindSQL, 17, "44524f50205441424c452071", false},
}
