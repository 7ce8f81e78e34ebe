package disqo

// Plan staleness: a stored plan — in the plan cache or a Stmt — is
// replanned on DDL (the schema epoch in its key) and when a table it
// reads drifts past driftFactor in row count, and on nothing else. DML
// cannot make a plan wrong: it reads rows from the snapshot it runs on.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"disqo/internal/wal"
)

// heldPlan is the plan a single-strategy Stmt currently holds, if any.
func heldPlan(s *Stmt) *prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.plans) == 0 {
		return nil
	}
	return s.plans[0]
}

// planProbe runs one query ad hoc and through a prepared statement, and
// reports whether each skipped planning: db.Query by the plan cache's
// hit and miss counters, Stmt.Query by whether the statement still
// holds the plan it held before. Both answers must be the bag want.
type planProbe struct {
	t    *testing.T
	db   *DB
	stmt *Stmt
	sql  string
	opts []Option
}

func newPlanProbe(t *testing.T, db *DB, sql string, opts ...Option) *planProbe {
	t.Helper()
	stmt, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stmt.Close() })
	p := &planProbe{t: t, db: db, stmt: stmt, sql: sql, opts: opts}
	p.run("cold", "") // plan both stores
	return p
}

// run queries both ways and returns the ad-hoc result; adHocHit and
// stmtHit report planning skipped. A non-empty want is the bag both
// results must equal.
func (p *planProbe) run(step, want string) (res *Result, adHocHit, stmtHit bool) {
	p.t.Helper()
	before, held := p.db.CacheStats().Plan, heldPlan(p.stmt)
	res, err := p.db.Query(p.sql, p.opts...)
	if err != nil {
		p.t.Fatalf("%s: %v", step, err)
	}
	after := p.db.CacheStats().Plan
	switch {
	case after.Hits == before.Hits+1 && after.Misses == before.Misses:
		adHocHit = true
	case after.Hits == before.Hits && after.Misses == before.Misses+1:
	default:
		p.errorf(step, "plan cache counted hits %d → %d, misses %d → %d for one query", before.Hits, after.Hits, before.Misses, after.Misses)
	}
	sres, err := p.stmt.Query(p.opts...)
	if err != nil {
		p.t.Fatalf("%s (prepared): %v", step, err)
	}
	stmtHit = held != nil && heldPlan(p.stmt) == held
	if want != "" {
		if got := bagFingerprint(res); got != want {
			p.errorf(step, "ad-hoc answer\n%s\nwant\n%s", got, want)
		}
		if got := bagFingerprint(sres); got != want {
			p.errorf(step, "prepared answer\n%s\nwant\n%s", got, want)
		}
	}
	return res, adHocHit, stmtHit
}

func (p *planProbe) errorf(step, format string, args ...any) {
	p.t.Helper()
	p.t.Errorf("%s: %s", step, fmt.Sprintf(format, args...))
}

// TestDMLKeepsPlans: writes to a table the query reads and to one it
// does not leave both plan stores on a hit, and the reused plans answer
// as a cache-less twin that plans every query afresh.
func TestDMLKeepsPlans(t *testing.T) {
	db := chaosDB(t, 48, false)
	fresh := chaosDBWith(t, 48, false, WithoutCache())
	for _, d := range []*DB{db, fresh} {
		execAll(t, d, `CREATE TABLE u (x INTEGER)`)
	}
	probe := newPlanProbe(t, db, chaosQ1, WithStrategy(Unnested))
	for _, write := range []string{
		`UPDATE r SET a4 = 100 WHERE a3 = 7`,
		`INSERT INTO r VALUES (3, 1, 100, 1600), (9, 2, 101, 1601)`,
		`DELETE FROM s WHERE b1 = 10`,
		`UPDATE s SET b2 = 2 WHERE b3 = 2`,
		`INSERT INTO u VALUES (1), (2), (3)`,
		`UPDATE u SET x = 0`,
		`DELETE FROM u`,
	} {
		execAll(t, db, write)
		execAll(t, fresh, write)
		want, err := fresh.Query(chaosQ1, WithStrategy(Unnested))
		if err != nil {
			t.Fatal(err)
		}
		if _, adHoc, stmt := probe.run(write, bagFingerprint(want)); !adHoc || !stmt {
			t.Errorf("after %q: plan-cache hit %v, statement kept its plan %v; DML must replan neither", write, adHoc, stmt)
		}
	}
}

// TestDDLReplans: creating or dropping a table or a view — even one the
// query never names — advances the schema epoch, and both plan stores
// plan again; the next query is a hit once more.
func TestDDLReplans(t *testing.T) {
	db := chaosDB(t, 48, false)
	probe := newPlanProbe(t, db, chaosQ1, WithStrategy(Unnested))
	for _, ddl := range []string{
		`CREATE TABLE aux (x INTEGER)`,
		`CREATE VIEW big AS SELECT a1 FROM r WHERE a4 > 1500`,
		`DROP VIEW big`,
		`DROP TABLE aux`,
	} {
		epoch := db.cat.Snapshot().SchemaEpoch()
		execAll(t, db, ddl)
		if db.cat.Snapshot().SchemaEpoch() <= epoch {
			t.Errorf("%q left the schema epoch at %d", ddl, epoch)
		}
		if _, adHoc, stmt := probe.run(ddl, ""); adHoc || stmt {
			t.Errorf("after %q: plan-cache hit %v, statement kept its plan %v; DDL must replan both", ddl, adHoc, stmt)
		}
		if _, adHoc, stmt := probe.run(ddl+", again", ""); !adHoc || !stmt {
			t.Errorf("the query after the replan for %q: plan-cache hit %v, statement kept its plan %v", ddl, adHoc, stmt)
		}
	}
}

// TestRowCountDriftReplans: a referenced table may grow to exactly
// driftFactor times its planned rows and keep its plan; one row more
// replans (a plan-cache miss, its entry replaced in place), and so does
// shrinking below 1/driftFactor of the new count. A cost-based query's
// choice is made again, on the grown table, exactly when the plan drifts:
// its trace line then matches a fresh planning's.
func TestRowCountDriftReplans(t *testing.T) {
	db := chaosDB(t, 48, false)
	fresh := chaosDBWith(t, 48, false, WithoutCache())
	probe := newPlanProbe(t, db, chaosQ1, WithStrategy(CostBased))
	choice := func(res *Result) string {
		for _, line := range res.Rewrites {
			if strings.HasPrefix(line, "cost-based choice:") {
				return line
			}
		}
		t.Fatalf("no cost-based choice in %q", res.Rewrites)
		return ""
	}
	planned, _, _ := probe.run("planned at 48 rows", "")
	grow := func(n int) {
		t.Helper()
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", i%40, i%8, 1000+i, 1600+i))
		}
		write := "INSERT INTO r VALUES " + strings.Join(vals, ", ")
		execAll(t, db, write)
		execAll(t, fresh, write)
	}
	entries := db.CacheStats().Plan.Entries

	grow(48) // 96 rows: exactly driftFactor × 48
	res, adHoc, stmt := probe.run("96 rows", "")
	if !adHoc || !stmt {
		t.Errorf("at exactly %d× the planned rows: plan-cache hit %v, statement kept its plan %v", driftFactor, adHoc, stmt)
	}
	if choice(res) != choice(planned) {
		t.Errorf("the cost-based choice changed without a replan: %q → %q", choice(planned), choice(res))
	}

	grow(1) // 97 rows: drifted
	res, adHoc, stmt = probe.run("97 rows", "")
	if adHoc || stmt {
		t.Errorf("past %d× the planned rows: plan-cache hit %v, statement kept its plan %v", driftFactor, adHoc, stmt)
	}
	want, err := fresh.Query(chaosQ1, WithStrategy(CostBased))
	if err != nil {
		t.Fatal(err)
	}
	if choice(res) != choice(want) || choice(res) == choice(planned) {
		t.Errorf("after the drift the choice reads %q; fresh planning reads %q, the 48-row plan %q",
			choice(res), choice(want), choice(planned))
	}
	if got := db.CacheStats().Plan.Entries; got != entries {
		t.Errorf("the drifted entry was not replaced in place: %d plan-cache entries, had %d", got, entries)
	}
	if _, adHoc, stmt = probe.run("97 rows, again", ""); !adHoc || !stmt {
		t.Errorf("the query after the drift replan: plan-cache hit %v, statement kept its plan %v", adHoc, stmt)
	}

	execAll(t, db, `DELETE FROM r WHERE a3 >= 1000`) // 48 rows: below 97/2
	if _, adHoc, stmt = probe.run("48 rows", ""); adHoc || stmt {
		t.Errorf("below 1/%d of the planned rows: plan-cache hit %v, statement kept its plan %v", driftFactor, adHoc, stmt)
	}
}

// TestEmptyTableDriftsOnFirstRow: a plan over an empty table is
// replanned once the table has rows, and not before.
func TestEmptyTableDriftsOnFirstRow(t *testing.T) {
	db, _ := Open()
	defer db.Close()
	execAll(t, db, `CREATE TABLE e (x INTEGER)`)
	probe := newPlanProbe(t, db, `SELECT DISTINCT * FROM e WHERE x > 1`)
	if _, adHoc, stmt := probe.run("still empty", ""); !adHoc || !stmt {
		t.Errorf("an unchanged empty table replanned: plan-cache hit %v, statement kept its plan %v", adHoc, stmt)
	}
	execAll(t, db, `INSERT INTO e VALUES (5)`)
	if res, adHoc, stmt := probe.run("one row", "(5)"); adHoc || stmt || len(res.Rows) != 1 {
		t.Errorf("the first row: plan-cache hit %v, statement kept its plan %v, %d rows", adHoc, stmt, len(res.Rows))
	}
}

// TestRestoreAdvancesEpoch: a reopened durable DB — checkpoint plus WAL
// replay — runs at a schema epoch past every epoch the DB that wrote
// the checkpoint used, and a replica after each snapshot install at one
// past its own before, so no plan keyed earlier matches; the replica,
// which cached a plan over the old definition of a table, plans the new
// one afresh.
func TestRestoreAdvancesEpoch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var seen uint64
	see := func(d *DB) {
		if e := d.cat.Snapshot().SchemaEpoch(); e > seen {
			seen = e
		}
	}
	for _, stmt := range []string{
		`CREATE TABLE k (a INTEGER, b INTEGER)`,
		`INSERT INTO k VALUES (1, 10), (2, 20), (3, 30)`,
		`CREATE VIEW kv AS SELECT a FROM k WHERE b > 10`,
		`UPDATE k SET b = 0 WHERE a = 1`,
	} {
		execAll(t, db, stmt)
		see(db)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapPath, _, ok, err := wal.NewestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("NewestSnapshot: ok=%v err=%v", ok, err)
	}
	first, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	execAll(t, db, `DROP VIEW kv`, `CREATE TABLE j (x INTEGER)`, `INSERT INTO j VALUES (1)`)
	see(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if e := db.cat.Snapshot().SchemaEpoch(); e <= seen {
		t.Errorf("reopened at schema epoch %d, not past %d", e, seen)
	}
	execAll(t, db, `DROP TABLE k`, `CREATE TABLE k (a INTEGER)`, `INSERT INTO k VALUES (7)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapPath, _, _, err = wal.NewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()

	replica, _ := Open()
	defer replica.Close()
	const q = `SELECT * FROM k`
	for i, snap := range [][]byte{first, second} {
		was := replica.cat.Snapshot().SchemaEpoch()
		if _, err := replica.ReplicaApplySnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if e := replica.cat.Snapshot().SchemaEpoch(); e <= was {
			t.Errorf("install %d: replica at schema epoch %d, not past %d", i, e, was)
		}
		before := replica.CacheStats().Plan
		res, err := replica.Query(q)
		if err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
		if after := replica.CacheStats().Plan; after.Misses != before.Misses+1 {
			t.Errorf("install %d: the first query after it was no plan-cache miss", i)
		}
		if want := []int{2, 1}[i]; len(res.Columns) != want {
			t.Errorf("install %d: %v, want %d columns", i, res.Columns, want)
		}
	}
}
