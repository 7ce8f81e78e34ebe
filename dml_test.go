package disqo

import (
	"strings"
	"testing"
)

func TestDeleteBasics(t *testing.T) {
	db, _ := Open()
	db.Exec("CREATE TABLE t (x INT, y INT)")
	db.Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (2, 20)")
	n, err := db.Exec("DELETE FROM t WHERE x = 2")
	if err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	res, _ := db.Query("SELECT x FROM t ORDER BY x")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 3 {
		t.Errorf("rows after delete: %v", res.Rows)
	}
	// Unconditional delete.
	n, err = db.Exec("DELETE FROM t")
	if err != nil || n != 2 {
		t.Fatalf("delete all = %d, %v", n, err)
	}
	if c, _ := db.RowCount("t"); c != 0 {
		t.Errorf("count = %d", c)
	}
}

func TestDeleteWithSubquery(t *testing.T) {
	db := smallDB(t)
	before, _ := db.RowCount("r")
	// Delete R rows whose correlation count matches — the DML predicate
	// goes through the full unnesting pipeline.
	n, err := db.Exec(`DELETE FROM r
	        WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 2500`)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := db.RowCount("r")
	if before-after != n {
		t.Errorf("deleted %d but row count moved %d → %d", n, before, after)
	}
	// Everything the predicate matches must be gone.
	res, err := db.Query(`SELECT * FROM r
	        WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 2500`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("%d matching rows survived the delete", len(res.Rows))
	}
}

func TestUpdateBasics(t *testing.T) {
	db, _ := Open()
	db.Exec("CREATE TABLE t (x INT, y INT)")
	db.Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	n, err := db.Exec("UPDATE t SET y = y + 1, x = 0 WHERE y >= 20")
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	res, _ := db.Query("SELECT x, y FROM t ORDER BY y")
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r[0].String() + "," + r[1].String()
	}
	want := []string{"1,10", "0,21", "0,31"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestUpdateSetFromSubquery(t *testing.T) {
	db, _ := Open()
	db.Exec("CREATE TABLE t (x INT, y INT)")
	db.Exec("CREATE TABLE u (k INT, v INT)")
	db.Exec("INSERT INTO t VALUES (1, 0), (2, 0)")
	db.Exec("INSERT INTO u VALUES (1, 100), (1, 50), (2, 7)")
	n, err := db.Exec("UPDATE t SET y = (SELECT SUM(v) FROM u WHERE k = x)")
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	res, err := db.Query("SELECT x, y FROM t ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].Int() != 150 || res.Rows[1][1].Int() != 7 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestUpdateErrors(t *testing.T) {
	db, _ := Open()
	db.Exec("CREATE TABLE t (x INT)")
	if _, err := db.Exec("UPDATE t SET zz = 1"); err == nil {
		t.Error("unknown SET column must fail")
	}
	if _, err := db.Exec("UPDATE missing SET x = 1"); err == nil {
		t.Error("unknown table must fail")
	}
	if _, err := db.Exec("DELETE FROM missing"); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestViews(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Exec(`CREATE VIEW big AS SELECT a1, a4 FROM r WHERE a4 > 1500`); err != nil {
		t.Fatal(err)
	}
	if got := db.Views(); len(got) != 1 || got[0] != "big" {
		t.Errorf("Views = %v", got)
	}
	res, err := db.Query("SELECT COUNT(*) AS n FROM big")
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := db.Query("SELECT COUNT(*) AS n FROM r WHERE a4 > 1500")
	if res.Rows[0][0].Int() != direct.Rows[0][0].Int() {
		t.Errorf("view count %v vs direct %v", res.Rows[0][0], direct.Rows[0][0])
	}
	// Views join with base tables and can carry nested disjunctive
	// queries inside.
	if _, err := db.Exec(`CREATE VIEW fancy AS
	        SELECT a1, a2 FROM r
	        WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500`); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query("SELECT DISTINCT f.a1 FROM fancy f, s WHERE f.a2 = s.b2")
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Aliased double use of the same view in one FROM.
	if _, err := db.Query("SELECT v1.a1 FROM big v1, big v2 WHERE v1.a1 = v2.a1"); err != nil {
		t.Fatalf("double view use: %v", err)
	}
	if _, err := db.Exec("DROP VIEW big"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM big"); err == nil {
		t.Error("dropped view must be gone")
	}
	if _, err := db.Exec("DROP VIEW big"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestViewValidationAndConflicts(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Exec("CREATE VIEW broken AS SELECT zz FROM r"); err == nil {
		t.Error("invalid view body must fail at definition")
	}
	if _, err := db.Exec("CREATE VIEW r AS SELECT a1 FROM r"); err == nil {
		t.Error("view shadowing a table must fail")
	}
	db.Exec("CREATE VIEW v AS SELECT a1 FROM r")
	if _, err := db.Exec("CREATE VIEW v AS SELECT a2 FROM r"); err == nil {
		t.Error("duplicate view must fail")
	}
	tableOverViewMustFail(t, db, "live")

	// The one name space survives a restart: from the log, then from a
	// checkpoint.
	dir := t.TempDir()
	for _, stage := range []string{"fresh", "after log replay", "after checkpoint recovery"} {
		db, err := Open(WithDataDir(dir))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if stage == "fresh" {
			execAll(t, db, "CREATE TABLE r (a1 INTEGER)", "CREATE VIEW v AS SELECT a1 FROM r WHERE a1 > 1")
		}
		tableOverViewMustFail(t, db, stage)
		if stage == "after log replay" {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tableOverViewMustFail: a table may not take the name of the view v —
// it would be writable and, the view answering every read, unreadable.
func tableOverViewMustFail(t *testing.T, db *DB, when string) {
	t.Helper()
	if _, err := db.Exec("CREATE TABLE v (a INTEGER)"); err == nil {
		t.Errorf("%s: CREATE TABLE over a view's name succeeded", when)
	}
	if err := db.CreateTable("V", []Column{{Name: "a", Type: TypeInt}}); err == nil {
		t.Errorf("%s: CreateTable over a view's name succeeded", when)
	}
	if _, err := db.RowCount("v"); err == nil {
		t.Errorf("%s: a table v exists beside the view (tables %v)", when, db.Tables())
	}
	if got := db.Views(); len(got) != 1 || got[0] != "v" {
		t.Errorf("%s: views %v, want only v", when, got)
	}
}
