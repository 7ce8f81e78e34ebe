package disqo

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disqo/internal/physical"
)

// collapseDB is RST-shaped data small enough to vote on: every r row is
// there twice, and NULLs sit in the bypassed column (a4), in the linking
// one (a1) and in the correlation columns, so that both operands of a
// disjunction can be UNKNOWN on one row.
func collapseDB(t *testing.T) *DB {
	t.Helper()
	stmts := []string{
		"CREATE TABLE r (a1 INT, a2 INT, a3 INT, a4 INT)",
		"CREATE TABLE s (b1 INT, b2 INT, b3 INT, b4 INT)",
		"CREATE TABLE t (c1 INT, c2 INT, c3 INT, c4 INT)",
	}
	val := func(v, i, nullEvery int) string {
		if i%nullEvery == nullEvery-1 {
			return "NULL"
		}
		return fmt.Sprint(v)
	}
	for i := 0; i < 40; i++ {
		row := fmt.Sprintf("(%s, %s, %d, %s)", val(i%5, i, 7), val(i%6, i, 9), i%4, val(i*397%3000, i, 5))
		stmts = append(stmts, "INSERT INTO r VALUES "+row+", "+row)
	}
	for i := 0; i < 30; i++ {
		stmts = append(stmts,
			fmt.Sprintf("INSERT INTO s VALUES (%d, %s, %d, %s)", i, val(i%6, i, 8), i%4, val(i*613%3000, i, 6)),
			fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %d, %d)", i, val(i%6, i, 10), i%5, i*211%3000))
	}
	return fuseDB(t, stmts...)
}

// TestBypassCascadeCollapses votes the one-pass plan of Eqv. 2/3's bypass
// cascade against the canonical one, as bags, in both null modes, on
// both evaluators at one and four workers: Eqv. 2's order and Eqv. 3's,
// three disjuncts of which two are unnested, EXISTS and NOT EXISTS
// disjuncts, an Eqv. 5 (tagged), a θ-correlated (sort-based) and a
// still-nested disjunct, an outer block without DISTINCT, and a last
// disjunct that is unnested into a cascade of its own — through NOT IN,
// < ALL or an explicit OR, or two of them stacked. Each plan
// is a cascade the planner ran in one pass: it shows the disjunction in
// the cascade's order, fused into a Γ² or, with a nested block, one
// Filter, and no σ±, stream or disjoint union.
func TestBypassCascadeCollapses(t *testing.T) {
	db := collapseDB(t)
	for _, c := range []struct {
		name, sql string
		plan      string // a fragment the physical plan shows
		plan2VL   string // its two-valued form, where NOT IN counts no NULLs (blank: plan)
	}{
		{"Eqv. 2", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`,
			"HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a4 > 1500) OR (r.a1 = g1))]", ""},
		{"Eqv. 3", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 2990`,
			"HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] σ[((r.a1 = g1) OR (r.a4 > 2990))]", ""},
		{"three disjuncts, two unnested", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
			OR a3 = (SELECT COUNT(*) FROM t WHERE a2 = c2) OR a4 > 1500`,
			"] σ[(((r.a4 > 1500) OR ", ""},
		{"EXISTS and NOT EXISTS", `SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 1500)
			OR NOT EXISTS (SELECT * FROM t WHERE a3 = c3) OR a4 > 2500`,
			"] σ[(((r.a4 > 2500) OR ", ""},
		{"Eqv. 5", `SELECT DISTINCT * FROM r WHERE a1 <= (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 2500) OR a4 > 1500`,
			"TagBinaryGroup(hash)[(r.a2 = s.b2) ∨ (s.b4 > 2500)][g2:COUNT(*)] σ[((r.a4 > 1500) OR (r.a1 <= g2))]", ""},
		{"θ-correlated", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE b2 < a2) OR a4 > 1500`,
			"SortBinaryGroup[r.a2 > s.b2][g1:COUNT(*)] σ[((r.a4 > 1500) OR (r.a1 = g1))]", ""},
		{"a nested block", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a3 = (SELECT MAX(c3) FROM t)`,
			"Filter[((r.a3 = MAX(t.c3){scan(t)}) OR (r.a1 = g1))]", ""},
		{"no DISTINCT", `SELECT a1, a4 FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500`,
			"HashBinaryGroup[r.a2=s.b2][g1:COUNT(*)] σ[((r.a4 > 1500) OR (r.a1 = g1))] → [r.a1, r.a4]", ""},
		// A last disjunct holding a disjunction with a subquery is a cascade
		// of its own, over a σ on the outer stack: both keep the rows the
		// disjuncts before them decided.
		{"NOT IN in the last disjunct", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
			OR (a3 > 1 AND a1 NOT IN (SELECT c1 FROM t WHERE c2 = a2))`,
			"σ[(((r.a1 = g1) OR (0 = g2)) OR (((NOT (r.a1 IS NULL)) AND (0 = g3)) AND (0 = g4)))]",
			"σ[((r.a1 = g1) OR ((r.a3 > 1) AND (0 = g2)))]"},
		{"< ALL in the last disjunct", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
			OR (a3 > 1 AND a4 < ALL (SELECT c4 FROM t WHERE c2 = a2))`,
			"σ[(((r.a1 = g1) OR (0 = g2)) OR ((0 = g3) AND (r.a4 < g4)))]", ""},
		{"OR in the last disjunct", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
			OR (a3 = 3 AND (a4 > 2900 OR a2 = (SELECT COUNT(*) FROM t WHERE c3 = a3)))`,
			"σ[(((r.a1 = g1) OR (r.a4 > 2900)) OR (r.a2 = g2))]", ""},
		{"NOT IN and OR in the last disjunct", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)
			OR (a3 > 1 AND a1 NOT IN (SELECT c1 FROM t WHERE c2 = a2) AND (a4 > 2500 OR a2 = (SELECT COUNT(*) FROM t WHERE c3 = a3)))`,
			"σ[(((r.a1 = g1) OR (r.a4 > 2500)) OR (r.a2 = g5))]", "σ[(((r.a1 = g1) OR (r.a4 > 2500)) OR (r.a2 = g3))]"},
	} {
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			plan, err := db.Explain(c.sql, WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !strings.Contains(plan, "bypass cascade over") {
				t.Fatalf("%s (%s): not rewritten into a bypass cascade:\n%s", c.name, nulls, plan)
			}
			_, phys, _ := strings.Cut(plan, "== physical plan ==")
			phys, _, _ = strings.Cut(phys, "\n==")
			frag := c.plan
			if nulls == TwoValuedNulls && c.plan2VL != "" {
				frag = c.plan2VL
			}
			if !strings.Contains(phys, frag) {
				t.Errorf("%s (%s): the plan does not show %q:\n%s", c.name, nulls, frag, phys)
			}
			for _, op := range []string{"Filter±", "Stream", "UnionDisjoint"} {
				if strings.Contains(phys, op) {
					t.Errorf("%s (%s): the plan holds %s:\n%s", c.name, nulls, op, phys)
				}
			}
			want, err := db.Query(c.sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s (%s): the canonical answer is empty; the case checks nothing", c.name, nulls)
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				for _, workers := range []int{1, 4} {
					got, err := db.Query(c.sql, WithNullMode(nulls), WithExecutionPath(path), WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s (%s, %s, %d workers): %v", c.name, nulls, path, workers, err)
					}
					if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
						t.Errorf("%s (%s, %s, %d workers): %d rows, canonical %d\n got %v\nwant %v",
							c.name, nulls, path, workers, len(g), len(w), g, w)
					}
				}
			}
		}
	}
}

// TestBypassCascadeProbesUndecidedRows: the Γ² a cascade runs as probes
// only the rows its compiled bypass operands leave undecided — Q1's the
// r rows whose a4 > 1500 is not TRUE, NULLs included — and a chain of
// them (Q3's one node for Γ²₁ and Γ²₂) probes its second grouping only
// for the rows its first disjunct, a1 = g1, leaves undecided, while
// every Γ² on the interpreted path, the reference, probes every grouping
// for every row and evaluates the whole disjunction after. The counts are
// read from EXPLAIN ANALYZE's metrics at one and four workers, and
// counted by canonical queries over the same data.
func TestBypassCascadeProbesUndecidedRows(t *testing.T) {
	db := collapseDB(t)
	count := func(sql string) int64 {
		t.Helper()
		res, err := db.Query(sql, WithStrategy(Canonical))
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(res.Rows))
	}
	rows := count("SELECT * FROM r")
	for _, c := range []struct {
		name, sql string
		probes    map[string][]int64 // Γ² label prefix → its probes per grouping
	}{
		{"Q1", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`,
			map[string][]int64{"HashBinaryGroup[r.a2=s.b2]": {rows - count("SELECT * FROM r WHERE a4 > 1500")}}},
		{"Q3", `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
			OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`,
			map[string][]int64{
				"HashBinaryGroup[r.a2=s.b2][g1:COUNT(DISTINCT *)] ∘ HashBinaryGroup[r.a4=t.c2]": {
					rows, rows - count("SELECT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)")},
			}},
	} {
		for _, path := range []ExecutionPath{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				res, err := db.Query(c.sql, WithMetrics(), WithExecutionPath(path), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				seen := 0
				for _, op := range res.Metrics().Ops {
					for prefix, want := range c.probes {
						if !strings.HasPrefix(op.Op, prefix) {
							continue
						}
						seen++
						if path == PathRow {
							want = []int64{rows, rows}[:len(want)]
						}
						if !slices.Equal(op.Probes, want) {
							t.Errorf("%s (%s, %d workers): %s probes %v rows, want %v of %d", c.name, path, workers, op.Op, op.Probes, want, rows)
						}
					}
				}
				if seen != len(c.probes) {
					t.Errorf("%s (%s, %d workers): %d of the %d binary groupings found in %v", c.name, path, workers, seen, len(c.probes), res.Metrics().Ops)
				}
			}
		}
	}
	// The count is EXPLAIN ANALYZE's too, beside build=.
	out, err := db.Analyze(`SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("probes=%d", rows-count("SELECT * FROM r WHERE a4 > 1500")); !strings.Contains(out, want) {
		t.Errorf("EXPLAIN ANALYZE does not show %s:\n%s", want, out)
	}
	var bg *physical.BinaryGroup
	_, roots := physicalPlan(t, db, `SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500`)
	physical.Walk(roots[0], func(n physical.Node) bool {
		if x, ok := n.(*physical.BinaryGroup); ok {
			bg = x
		}
		return true
	})
	if bg == nil || bg.Bypass == nil || bg.Bypass.String() != "(r.a4 > 1500)" ||
		len(bg.Rest) != 1 || bg.Rest[0].Pred.String() != "(r.a1 = g1)" || bg.Rest[0].Reads != 1 {
		t.Errorf("Q1's Γ² splits its disjunction as %v / %v, want (r.a4 > 1500) / (r.a1 = g1) reading its grouping", bg.Bypass, bg.Rest)
	}
}

// TestBypassCascadesLowerAndAgree: every plan the rewriter builds for a
// WHERE clause of disjunctions lowers, and agrees with canonical as a
// bag, in both null modes and on both evaluators. The clauses are drawn,
// from a fixed seed, as ORs of ANDs of linking, quantified (NOT IN,
// θ ALL/ANY, [NOT] EXISTS, IN), nested-OR, tagged, θ-correlated,
// uncorrelated and simple atoms — so that a disjunct the cascade puts
// last is itself unnested into a cascade, or two.
func TestBypassCascadesLowerAndAgree(t *testing.T) {
	db := collapseDB(t)
	atoms := []string{
		"a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
		"a4 > 1500",
		"a1 NOT IN (SELECT c1 FROM t WHERE c2 = a2)",
		"a4 < ALL (SELECT c4 FROM t WHERE c2 = a2)",
		"EXISTS (SELECT * FROM s WHERE a3 = b3 AND b4 > 1000)",
		"NOT EXISTS (SELECT * FROM t WHERE a3 = c3 AND c4 > 2000)",
		"a2 IN (SELECT b2 FROM s WHERE b3 = a3)",
		"a3 > 1",
		"(a4 > 2500 OR a2 = (SELECT COUNT(*) FROM t WHERE c3 = a3))",
		"(a3 = 0 OR a1 NOT IN (SELECT b1 FROM s WHERE b3 = a3))",
		"a1 = (SELECT MAX(c3) FROM t)",
		"a2 <= (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 2500)",
		"a1 = (SELECT COUNT(*) FROM s WHERE b2 < a2)",
		"a2 > ANY (SELECT c3 FROM t WHERE c1 = a1)",
	}
	rng := rand.New(rand.NewSource(1))
	join := func(n int, sep string, part func() string) string {
		parts := make([]string, 1+rng.Intn(n))
		for i := range parts {
			parts[i] = part()
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	atom := func() string { return atoms[rng.Intn(len(atoms))] }
	or := func() string { return join(3, " OR ", func() string { return join(3, " AND ", atom) }) }
	for i := 0; i < 250; i++ {
		sql := "SELECT DISTINCT * FROM r WHERE " + or()
		if i%2 == 1 {
			sql = "SELECT a1, a4 FROM r WHERE " + or()
		}
		if i%3 == 2 {
			sql += " AND " + or()
		}
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			want, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (%s): canonical: %v", sql, nulls, err)
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				got, err := db.Query(sql, WithNullMode(nulls), WithExecutionPath(path), WithWorkers(1+i%4))
				if err != nil {
					t.Fatalf("%s (%s, %s): %v", sql, nulls, path, err)
				}
				if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
					t.Fatalf("%s (%s, %s): %d rows, canonical %d", sql, nulls, path, len(g), len(w))
				}
			}
		}
	}
}

// TestBinaryGroupChainsAgree votes seeded statements of two and three
// subquery disjuncts on different inner tables against canonical, as
// bags, in both null modes, on both evaluators at one and four workers.
// Each disjunct unnests to a hashed, a tagged (… OR b4 > k) or a
// sort-based (b2 < a2) binary grouping over COUNT, COUNT DISTINCT, SUM,
// MIN or AVG; the data holds NULL correlation keys and duplicate inner
// rows; the outer block is SELECT DISTINCT * or SELECT a1, a4, which
// emits no result. Every grouping is a lookup, so the bypass cascade runs
// as one Γ² whose chain absorbed the others: the physical plan holds one
// BinaryGroup, its groupings joined by ∘.
func TestBinaryGroupChainsAgree(t *testing.T) {
	db := collapseDB(t)
	stmts := []string{"CREATE TABLE u (d1 INT, d2 INT, d3 INT, d4 INT)"}
	for i := 0; i < 24; i++ { // every row twice, NULL keys and arguments
		row := fmt.Sprintf("(%d, %s, %s, %d)", i%7, nullEvery(i%6, i, 7), nullEvery(i%5, i, 9), i*173%3000)
		stmts = append(stmts, "INSERT INTO u VALUES "+row+", "+row)
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	type inner struct{ table, key, arg, tag string }
	inners := []inner{{"s", "b2", "b3", "b4"}, {"t", "c2", "c3", "c4"}, {"u", "d2", "d3", "d4"}}
	aggs := []struct {
		agg, op  string
		sortable bool // single-pass: no DISTINCT, no AVG
	}{
		{"COUNT(*)", "=", true}, {"COUNT(DISTINCT *)", "<=", false}, {"SUM(%s)", ">=", true},
		{"MIN(%s)", "=", true}, {"AVG(%s)", "<", false}, {"COUNT(DISTINCT %s)", ">", false},
	}
	outer := []string{"a1", "a2", "a3", "a4"}
	rng := rand.New(rand.NewSource(7))
	disjunct := func(in inner) string {
		a := aggs[rng.Intn(len(aggs))]
		item := a.agg
		if strings.Contains(item, "%s") {
			item = fmt.Sprintf(item, in.arg)
		}
		corr := fmt.Sprintf("a2 = %s", in.key)
		switch k := rng.Intn(3); {
		case k == 1:
			corr += fmt.Sprintf(" OR %s > %d", in.tag, 1500+rng.Intn(1400))
		case k == 2 && a.sortable:
			corr = fmt.Sprintf("%s < a%d", in.key, 1+rng.Intn(4))
		}
		return fmt.Sprintf("%s %s (SELECT %s FROM %s WHERE %s)", outer[rng.Intn(len(outer))], a.op, item, in.table, corr)
	}
	for i := 0; i < 60; i++ {
		n := 2 + i%2
		rng.Shuffle(len(inners), func(a, b int) { inners[a], inners[b] = inners[b], inners[a] })
		parts := make([]string, n)
		for j := range parts {
			parts[j] = disjunct(inners[j])
		}
		sql := "SELECT DISTINCT * FROM r WHERE " + strings.Join(parts, " OR ")
		if i%4 >= 2 {
			sql = "SELECT a1, a4 FROM r WHERE " + strings.Join(parts, " OR ")
		}
		for _, nulls := range []NullMode{ThreeValuedNulls, TwoValuedNulls} {
			plan, err := db.Explain(sql, WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (%s): %v", sql, nulls, err)
			}
			_, phys, _ := strings.Cut(plan, "== physical plan ==")
			phys, _, _ = strings.Cut(phys, "\n==")
			if nodes, chains := strings.Count(phys, "BinaryGroup"), strings.Count(phys, " ∘ "); nodes-chains != 1 || chains != n-1 {
				t.Errorf("%s (%s): want one binary grouping node of %d groupings:\n%s", sql, nulls, n, phys)
			}
			want, err := db.Query(sql, WithStrategy(Canonical), WithNullMode(nulls))
			if err != nil {
				t.Fatalf("%s (%s): canonical: %v", sql, nulls, err)
			}
			for _, path := range []ExecutionPath{PathRow, PathVector} {
				for _, workers := range []int{1, 4} {
					got, err := db.Query(sql, WithNullMode(nulls), WithExecutionPath(path), WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s (%s, %s, %d workers): %v", sql, nulls, path, workers, err)
					}
					if g, w := sortedRows(got), sortedRows(want); strings.Join(g, "\n") != strings.Join(w, "\n") {
						t.Fatalf("%s (%s, %s, %d workers): %d rows, canonical %d\n got %v\nwant %v",
							sql, nulls, path, workers, len(g), len(w), g, w)
					}
				}
			}
		}
	}
}

// nullEvery renders v, or NULL for every every-th i.
func nullEvery(v, i, every int) string {
	if i%every == every-1 {
		return "NULL"
	}
	return fmt.Sprint(v)
}

// TestChainProbesUndecidedRows: EXPLAIN ANALYZE of a chain whose first
// disjunct decides most rows shows its second grouping probed only for
// the rows the first left undecided, NULLs included, at one and four
// workers.
func TestChainProbesUndecidedRows(t *testing.T) {
	db := collapseDB(t)
	count := func(sql string) int {
		t.Helper()
		res, err := db.Query(sql, WithStrategy(Canonical))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	first, second := "a3 <= (SELECT COUNT(*) FROM s WHERE a2 = b2)", "a1 = (SELECT COUNT(*) FROM t WHERE a4 = c2)"
	rows, decided := count("SELECT * FROM r"), count("SELECT * FROM r WHERE "+first)
	if decided*2 <= rows {
		t.Fatalf("the first disjunct decides %d of %d rows; the case needs most", decided, rows)
	}
	want := "HashBinaryGroup[r.a2=s.b2][g1:COUNT(*)] ∘ HashBinaryGroup[r.a4=t.c2][g2:COUNT(*)] σ[((r.a3 <= g1) OR (r.a1 = g2))]"
	probes := fmt.Sprintf("probes=%d/%d,", rows, rows-decided)
	for _, workers := range []int{1, 4} {
		out, err := db.Analyze("SELECT DISTINCT * FROM r WHERE "+first+" OR "+second, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) || !strings.Contains(out, probes) {
			t.Errorf("%d workers: EXPLAIN ANALYZE does not show %s with %s:\n%s", workers, want, probes, out)
		}
	}
}
