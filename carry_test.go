package disqo

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"disqo/internal/testutil"
)

// TestCommitCarriesColumnsAllocs: a commit builds the table version it
// publishes from the one it replaces. At RST SF 0.5, with s's columns
// built by a query, 100 INSERTs of 4 rows each allocate O(rows inserted)
// amortized — one copy of s's rows and built columns with headroom, then
// in place — not a copy of the whole table each (≈ 130 kB an INSERT
// here, where a commit copied the row list and built no column); and
// an UPDATE of t.c3
// shares every other column, and its statistics, with the pre-image.
func TestCommitCarriesColumnsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	db, err := Open(WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	// Fig. 7's Q1: its Γ² reads s's columns.
	const q1 = `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`
	if _, err := db.Query(q1, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	s, err := db.cat.Lookup("s")
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Rel.Tuples)

	const inserts, perInsert = 100, 4
	stmts := make([]string, inserts)
	for i := range stmts {
		vals := make([]string, perInsert)
		for j := range vals {
			k := i*perInsert + j
			vals[j] = fmt.Sprintf("(%d, %d, %d, %d)", 1_000_000+k, k%500, k%100, k%3000)
		}
		stmts[i] = "INSERT INTO s VALUES " + strings.Join(vals, ", ")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sql := range stmts {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// One copy of s's row list (24 B a row) and of its key column (8 B a
	// row) with append's headroom is 2 × 32 B a row at most; the rest is
	// what one statement costs whatever the table's size.
	per := (after.TotalAlloc - before.TotalAlloc) / inserts
	budget := uint64(2*32*n/inserts + 12_000)
	t.Logf("%d rows in s: %d bytes per INSERT of %d rows (budget %d)", n, per, perInsert, budget)
	if per > budget {
		t.Errorf("an INSERT of %d rows into %d allocates %.1f kB, budget %.1f kB", perInsert, n, float64(per)/1000, float64(budget)/1000)
	}
	if s, _ = db.cat.Lookup("s"); len(s.Rel.Tuples) != n+inserts*perInsert {
		t.Fatalf("s holds %d rows, want %d", len(s.Rel.Tuples), n+inserts*perInsert)
	}

	pre, err := db.cat.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := range pre.Columns {
		pre.Batch().Col(i)
		pre.ColumnStats(i)
	}
	updated, err := db.Exec("UPDATE t SET c3 = c3 + 1 WHERE c2 = 7")
	if err != nil {
		t.Fatal(err)
	}
	if updated == 0 {
		t.Fatal("the UPDATE matched no row")
	}
	post, _ := db.cat.Lookup("t")
	for i, col := range pre.Columns {
		shared := post.Batch().Col(i) == pre.Batch().Col(i) && post.ColumnStats(i) == pre.ColumnStats(i)
		if set := col.Name == "c3"; shared == set {
			t.Errorf("UPDATE t SET c3: column %s shared %v, want %v", col.Name, shared, !set)
		}
	}
}

// TestDeleteCommitsKeptRowsInOrder: a DELETE commits the rows it keeps,
// in table order, whatever their shape — a run at the tail, the head or
// in the middle (shared with the pre-image), several runs, no row — and
// the columns of each version, carried or built, hold its rows' values.
func TestDeleteCommitsKeptRowsInOrder(t *testing.T) {
	db, err := Open(WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE d (a INTEGER, b INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var want []int64
	insert := func(lo, hi int64) {
		vals := make([]string, 0, hi-lo)
		for a := lo; a < hi; a++ {
			vals = append(vals, fmt.Sprintf("(%d, %d)", a, 10*a))
			want = append(want, a)
		}
		if _, err := db.Exec("INSERT INTO d VALUES " + strings.Join(vals, ", ")); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 40)
	for i, c := range []struct {
		where string
		drop  func(a int64) bool
		run   bool // the kept rows are one run of at least half the rows
	}{
		{"a >= 36", func(a int64) bool { return a >= 36 }, true},
		{"a < 4", func(a int64) bool { return a < 4 }, true},
		{"a < 6 OR a >= 38", func(a int64) bool { return a < 6 || a >= 38 }, true},
		{"a = 20 OR a = 21", func(a int64) bool { return a == 20 || a == 21 }, false},
		{"a >= 10 AND a < 30", func(a int64) bool { return a >= 10 && a < 30 }, false},
		{"a = 7 OR a = 9 OR a = 33", func(a int64) bool { return a == 7 || a == 9 || a == 33 }, false},
		{"a > 1000", func(int64) bool { return false }, false},
		{"a >= 0", func(int64) bool { return true }, false},
	} {
		pre, _ := db.cat.Lookup("d")
		// A query builds d's columns for the DELETE to carry.
		if _, err := db.Query("SELECT DISTINCT * FROM d WHERE b >= 0 AND a >= 0"); err != nil {
			t.Fatal(err)
		}
		n, err := db.Exec("DELETE FROM d WHERE " + c.where)
		if err != nil {
			t.Fatalf("DELETE WHERE %s: %v", c.where, err)
		}
		kept := want[:0:0]
		for _, a := range want {
			if !c.drop(a) {
				kept = append(kept, a)
			}
		}
		if n != len(want)-len(kept) {
			t.Errorf("DELETE WHERE %s: %d rows affected, want %d", c.where, n, len(want)-len(kept))
		}
		want = kept
		tbl, _ := db.cat.Lookup("d")
		got := make([]int64, len(tbl.Rel.Tuples))
		for r, row := range tbl.Rel.Tuples {
			got[r], _ = row[0].IntOk()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("DELETE WHERE %s kept %v, want %v", c.where, got, want)
		}
		if n > 0 && len(want) > 0 {
			shares := false
			for k := range pre.Rel.Tuples {
				shares = shares || &pre.Rel.Tuples[k] == &tbl.Rel.Tuples[0]
			}
			if shares != c.run {
				t.Errorf("DELETE WHERE %s shares the pre-image's row list: %v, want %v", c.where, shares, c.run)
			}
		}
		for col, scale := range []int64{1, 10} {
			if cv := tbl.Batch().Col(col); cv.Len() != len(want) || (len(want) > 0 && cv.Ints[len(want)-1] != scale*want[len(want)-1]) {
				t.Fatalf("DELETE WHERE %s: column %d is %+v for rows %v", c.where, col, *cv, want)
			}
		}
		insert(int64(100*(i+1)), int64(100*(i+1)+3))
	}
}
