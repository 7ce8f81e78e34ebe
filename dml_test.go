package disqo

import (
	"slices"
	"strings"
	"testing"
	"time"

	"disqo/internal/cache"
	"disqo/internal/physical"
	"disqo/internal/sqlparser"
	"disqo/internal/testutil"
	"disqo/internal/types"
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

// TestInsertLiteralsMatchSelect: INSERT … VALUES and a select list read
// a literal through one parser, so each gives the same value both ways,
// an overflow is an error both ways, and INSERT keeps its leading minus.
func TestInsertLiteralsMatchSelect(t *testing.T) {
	db, _ := Open()
	for _, ddl := range []string{
		"CREATE TABLE one (x INTEGER)", "INSERT INTO one VALUES (0)",
		"CREATE TABLE ti (v INTEGER)", "CREATE TABLE tf (v DOUBLE)",
		"CREATE TABLE ts (v VARCHAR)", "CREATE TABLE tb (v BOOLEAN)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		lit, table string
		overflow   bool
	}{
		{"0", "ti", false}, {"42", "ti", false}, {"-7", "ti", false},
		{"9223372036854775807", "ti", false}, {"-9223372036854775807", "ti", false},
		{"1.5", "tf", false}, {"-2.5e-3", "tf", false}, {"-1E10", "tf", false}, {"6.02e+23", "tf", false},
		{"'it''s'", "ts", false}, {"''", "ts", false},
		{"NULL", "ti", false}, {"TRUE", "tb", false}, {"FALSE", "tb", false},
		{"9223372036854775808", "ti", true}, {"-9223372036854775808", "ti", true}, {"1e400", "tf", true},
	} {
		sel, selErr := db.Query("SELECT " + c.lit + " FROM one")
		if _, err := db.Exec("DELETE FROM " + c.table); err != nil {
			t.Fatal(err)
		}
		_, insErr := db.Exec("INSERT INTO " + c.table + " VALUES (" + c.lit + ")")
		if (selErr != nil) != c.overflow || (insErr != nil) != c.overflow {
			t.Errorf("%s: SELECT error %v, INSERT error %v, want errors %v", c.lit, selErr, insErr, c.overflow)
			continue
		}
		if c.overflow {
			continue
		}
		ins, err := db.Query("SELECT v FROM " + c.table)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ins.Rows[0][0], sel.Rows[0][0]; !types.Identical(got, want) || got.Kind() != want.Kind() {
			t.Errorf("%s: INSERT gives %v (%v), SELECT gives %v (%v)", c.lit, got, got.Kind(), want, want.Kind())
		}
	}
}

// TestBatchFollowsTheTableVersion: the vector path's compiled predicates
// read a table version's batch, which the version keeps across queries.
// After INSERT, UPDATE and DELETE, which publish new versions, and after
// the builder path's Insert and BulkLoad, which change a version in
// place, it agrees with the canonical plan interpreted row by row — and
// every step changes the answer, so a stale column could not pass.
func TestBatchFollowsTheTableVersion(t *testing.T) {
	db, _ := Open(WithoutCache())
	if err := db.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`
	var prev []string
	check := func(step string) {
		t.Helper()
		want, err := db.Query(q, WithStrategy(Canonical), WithExecutionPath(PathRow))
		if err != nil {
			t.Fatalf("%s: canonical: %v", step, err)
		}
		for i := 0; i < 2; i++ { // the second run reads the columns the first built
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: unnested: %v", step, err)
			}
			if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Fatalf("%s: unnested on the vector path returns %d rows, canonical %d", step, len(g), len(w))
			}
		}
		rows := sortedRows(want)
		if strings.Join(rows, "\n") == strings.Join(prev, "\n") {
			t.Fatalf("%s: the answer did not change", step)
		}
		prev = rows
	}
	check("loaded")
	for _, stmt := range []string{
		"INSERT INTO r VALUES (9001, 1, 1, 2999), (0, 0, 7, 300)",
		"UPDATE r SET a4 = 2997 WHERE a4 < 300",
		"DELETE FROM r WHERE a4 > 2990",
		"DELETE FROM s WHERE b2 = 0", // (0, 0, 7, 300) now counts its s rows right
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		check(stmt)
	}
	r, err := db.cat.Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert([]types.Value{types.NewInt(9003), types.NewInt(3), types.NewInt(3), types.NewInt(2999)}); err != nil {
		t.Fatal(err)
	}
	check("builder-path Insert")
	r.BulkLoad([][]types.Value{{types.NewInt(9004), types.NewInt(4), types.NewInt(4), types.NewInt(2999)}})
	check("builder-path BulkLoad")
}

// queryRows runs sql and returns its rows as sortedRows renders them.
func queryRows(t *testing.T, db *DB, sql string, opts ...Option) []string {
	t.Helper()
	res, err := db.Query(sql, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sortedRows(res)
}

// A correlated SET value is unnested like the same block in a SELECT:
// the UPDATE leaves r as the per-row (canonical) evaluation of the
// SELECT would, and its query plans no per-row block.
func TestUpdateCorrelatedSetIsUnnested(t *testing.T) {
	db, _ := Open()
	if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	const set = "(SELECT COUNT(*) FROM s WHERE s.b2 = r.a2)"
	want := queryRows(t, db, "SELECT "+set+", a2, a3, a4 FROM r", WithStrategy(Canonical))

	stmt, err := sqlparser.ParseStatement("UPDATE r SET a1 = " + set)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.cat.Snapshot()
	tbl, err := snap.Lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	pp, _, err := db.planStmt(snap, dmlQuery(tbl, nil, stmt.(*sqlparser.UpdateStmt).Sets), cache.PlanKey{}, db.newQueryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.blocks) != 0 {
		t.Errorf("the UPDATE's query plans %d per-row blocks, want none:\n%s", len(pp.blocks), physical.Explain(pp.phys.Root))
	}

	start := time.Now()
	n, err := db.Exec("UPDATE r SET a1 = " + set)
	if err != nil || n != len(want) {
		t.Fatalf("update = %d, %v; want %d rows", n, err, len(want))
	}
	t.Logf("correlated UPDATE of %d rows: %v", n, time.Since(start))
	if got := queryRows(t, db, "SELECT a1, a2, a3, a4 FROM r"); !slices.Equal(got, want) {
		t.Errorf("r after the UPDATE differs from the canonical SELECT (%d vs %d rows)", len(got), len(want))
	}
}

func TestUpdateSemantics(t *testing.T) {
	cases := []struct {
		name   string
		rows   string // INSERT values for t (a INTEGER, b INTEGER)
		update string
		n      int
		want   []string // t's rows afterwards, sorted
	}{
		{"swap reads the pre-update row", "(1, 2), (3, 4)", "UPDATE t SET a = b, b = a", 2, []string{"(2, 1)", "(4, 3)"}},
		{"a repeated target is last-wins", "(1, 2)", "UPDATE t SET a = 5, a = b + 10", 1, []string{"(12, 2)"}},
		{"the predicate guards the SET value", "(0, 1), (2, 1)", "UPDATE t SET a = 10 / a WHERE a <> 0", 1, []string{"(0, 1)", "(5, 1)"}},
		{"duplicates and NULLs update together", "(NULL, 1), (NULL, 1), (2, NULL), (2, NULL)", "UPDATE t SET b = 9 WHERE a IS NULL OR a = 2", 4, []string{"(2, 9)", "(2, 9)", "(NULL, 9)", "(NULL, 9)"}},
		{"no WHERE updates every row", "(1, 1), (2, 2), (2, 2)", "UPDATE t SET b = a * 10", 3, []string{"(1, 10)", "(2, 20)", "(2, 20)"}},
		{"a plain column is a SET value", "(1, NULL), (3, 4)", "UPDATE t SET b = a WHERE b IS NULL", 1, []string{"(1, 1)", "(3, 4)"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, _ := Open()
			db.Exec("CREATE TABLE t (a INTEGER, b INTEGER)")
			if _, err := db.Exec("INSERT INTO t VALUES " + c.rows); err != nil {
				t.Fatal(err)
			}
			n, err := db.Exec(c.update)
			if err != nil || n != c.n {
				t.Fatalf("%s = %d, %v; want %d", c.update, n, err, c.n)
			}
			if got := queryRows(t, db, "SELECT a, b FROM t"); !slices.Equal(got, c.want) {
				t.Errorf("rows = %v, want %v", got, c.want)
			}
		})
	}
}

// TestUpdateAllocatesPerStatement: an UPDATE builds its changed rows in
// one slab, so its allocations do not grow with the rows it changes —
// the write workload's UPDATE, 1 855 rows of t at RST 0.5, stays under
// 200 — and it still writes no row it reads: identical duplicates all
// take the new values, and the pre-image version keeps its rows.
func TestUpdateAllocatesPerStatement(t *testing.T) {
	db, _ := Open()
	if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	const update = "UPDATE t SET c3 = c3 + 1 WHERE c2 = 7 OR c4 > 1900"
	if !testutil.RaceEnabled {
		if got := testing.AllocsPerRun(3, func() {
			if _, err := db.Exec(update); err != nil {
				t.Fatal(err)
			}
		}); got >= 200 {
			t.Errorf("%s allocates %.0f times, want under 200", update, got)
		}
	}

	db.Exec("CREATE TABLE d (a INTEGER, b INTEGER)")
	db.Exec("INSERT INTO d VALUES (1, 1), (1, 1), (2, 2), (1, 1), (3, 3)")
	before, _ := db.cat.Lookup("d")
	pre := make([][]types.Value, len(before.Rel.Tuples))
	for i, row := range before.Rel.Tuples {
		pre[i] = slices.Clone(row)
	}
	if n, err := db.Exec("UPDATE d SET b = b + 10 WHERE a = 1 OR a = 3"); err != nil || n != 4 {
		t.Fatalf("UPDATE = %d, %v; want 4 rows", n, err)
	}
	want := []string{"(1, 11)", "(1, 11)", "(1, 11)", "(2, 2)", "(3, 13)"}
	if got := queryRows(t, db, "SELECT a, b FROM d"); !slices.Equal(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	for i, row := range before.Rel.Tuples {
		if !slices.EqualFunc(row, pre[i], types.Identical) {
			t.Errorf("pre-image row %d = %v, was %v", i, row, pre[i])
		}
	}
}

// An UPDATE that fails or matches nothing commits nothing: the table
// keeps its version and its rows.
func TestUpdateCommitsNothing(t *testing.T) {
	db, _ := Open()
	db.Exec("CREATE TABLE t (a INTEGER, b VARCHAR)")
	db.Exec("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
	before, _ := db.cat.Lookup("t")
	for _, c := range []struct{ sql, err string }{
		{"UPDATE t SET a = COUNT(*)", "UPDATE t SET a = COUNT(*): a SET value cannot be an aggregate"},
		{"UPDATE t SET a = 'abc' WHERE a = 1", "t.a expects INTEGER, got VARCHAR"},
		{"UPDATE t SET b = 5", "t.b expects VARCHAR, got INTEGER"},
		{"UPDATE t SET a = 3 WHERE a > 2", ""},
	} {
		n, err := db.Exec(c.sql)
		if c.err == "" {
			if err != nil || n != 0 {
				t.Errorf("%s = %d, %v; want 0 rows", c.sql, n, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want one naming %q", c.sql, err, c.err)
		}
	}
	if after, _ := db.cat.Lookup("t"); after != before {
		t.Errorf("t moved from version %d to %d", before.Version, after.Version)
	}
	// The type check is INSERT's: a number fits either numeric column.
	if n, err := db.Exec("UPDATE t SET a = 2.5 WHERE a = 2"); err != nil || n != 1 {
		t.Errorf("numeric cross-assignment = %d, %v", n, err)
	}
}
