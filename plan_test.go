package disqo_test

import (
	"testing"

	"disqo"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/exec"
	"disqo/internal/harness"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/testutil"
	"disqo/internal/translate"
)

// fig7Catalog holds RST and the TPC-H tables Query 2d reads, small: a
// plan's shape does not depend on the scale, only its estimates do.
func fig7Catalog(tb testing.TB) *catalog.Catalog {
	tb.Helper()
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: 0.02, SFS: 0.02, SFT: 0.02}); err != nil {
		tb.Fatal(err)
	}
	if err := datagen.LoadTPCH(cat, datagen.TPCHConfig{SF: 0.01}); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// planStaged runs one statement through the planning layers in order —
// parse, translate, rewrite with every capability, lower — the way the
// benchmark of record's staged pipeline does.
func planStaged(cat catalog.Reader, sql string) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	canonical, err := translate.New(cat).Translate(stmt)
	if err != nil {
		return err
	}
	var plan algebra.Op
	if plan, err = rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical); err != nil {
		return err
	}
	ex := exec.New(cat, exec.Options{Cache: exec.CacheAll, Workers: 1, Path: exec.PathVector})
	defer ex.Close()
	_, err = ex.Plan(plan)
	return err
}

// BenchmarkPlanFig7 plans the five Fig. 7 statements, parse to physical
// plan, without running them: what every plan-cache miss pays.
func BenchmarkPlanFig7(b *testing.B) {
	snap := fig7Catalog(b).Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fig7Texts {
			if err := planStaged(snap, f.sql); err != nil {
				b.Fatalf("%s: %v", f.name, err)
			}
		}
	}
}

// TestCanonicalExecAllocs holds canonical execution — Fig. 7(a)'s Q1
// and the linear Q4 run as the nested-loop plans every speedup divides
// by — to its allocation budget: the reading when column references came
// to be bound once and frames pushed per morsel and per block
// evaluation, not per row, and a tenth more. A frame allocated per inner
// row would multiply it.
func TestCanonicalExecAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	for _, c := range []struct {
		name, sql string
		sfS       float64 // s and t's scale; Q4's canonical plan is cubic
		budget    float64
	}{
		{"q1_link", harness.Q1, 0.05, 8110},
		{"q4_linear", harness.Q4, 0.01, 442500},
	} {
		db, err := disqo.Open(disqo.WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.LoadRST(0.05, c.sfS, c.sfS); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(2, func() {
			if _, err := db.Query(c.sql, disqo.WithStrategy(disqo.Canonical), disqo.WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s canonical: %.0f objects", c.name, got)
		if got > c.budget {
			t.Errorf("%s: canonical execution allocates %.0f objects, budget %.0f", c.name, got, c.budget)
		}
	}
}

// planningAllocBudgets bound the heap objects each planning layer makes
// for one statement — the per-layer count a plan-cache miss pays — at
// their reading when planning came to allocate per plan rather than per
// node visit, and a tenth more.
var planningAllocBudgets = []struct {
	name, sql                        string
	parse, translate, rewrite, lower float64
}{
	{"q1_link", harness.Q1, 20, 29, 61, 42},
	{"q3_tree", harness.Q3, 29, 39, 101, 50},
	{"quant_exists", harness.QuantExists, 19, 32, 70, 47},
	{"tpch_q2d", harness.Query2d, 96, 216, 77, 146},
	{"cascade3", `SELECT DISTINCT * FROM r
	  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	     OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)
	     OR a4 > 1500`, 33, 43, 105, 57},
}

// TestPlanningAllocs holds each planning layer — parse, translate,
// rewrite, lower — to its allocation budget on the Fig. 7 statements
// and a three-disjunct bypass cascade.
func TestPlanningAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	snap := fig7Catalog(t).Snapshot()
	for _, c := range planningAllocBudgets {
		stmt, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		canonical, err := translate.New(snap).Translate(stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plan, err := rewrite.New(snap, rewrite.AllCaps()).Rewrite(canonical)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, l := range []struct {
			layer  string
			budget float64
			run    func()
		}{
			{"parse", c.parse, func() { _, _ = sqlparser.Parse(c.sql) }},
			{"translate", c.translate, func() { _, _ = translate.New(snap).Translate(stmt) }},
			{"rewrite", c.rewrite, func() { _, _ = rewrite.New(snap, rewrite.AllCaps()).Rewrite(canonical) }},
			{"lower", c.lower, func() { _, _ = physical.NewPlanner(stats.New(snap)).Plan(plan) }},
		} {
			got := testing.AllocsPerRun(20, l.run)
			t.Logf("%s %s: %.0f objects", c.name, l.layer, got)
			if got > l.budget {
				t.Errorf("%s: %s allocates %.0f objects, budget %.0f", c.name, l.layer, got, l.budget)
			}
		}
	}
}
