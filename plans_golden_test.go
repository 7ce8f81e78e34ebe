package disqo_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"disqo"
	"disqo/internal/harness"
	"disqo/internal/scenario"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden from the current planner")

// plansGoldenStmts is how many distinct generated statements
// TestPlansGolden pins: the population plan_churn draws its texts from.
const plansGoldenStmts = 512

// fig7Texts are the five Fig. 7 statements: Q1 (linking disjunction),
// Q2 (disjunctive correlation), the tree query Q3, EXISTS under a
// disjunction, and Query 2d on TPC-H.
var fig7Texts = []struct{ name, sql string }{
	{"q1_link", harness.Q1},
	{"q2_corr", harness.Q2},
	{"q3_tree", harness.Q3},
	{"quant_exists", harness.QuantExists},
	{"tpch_q2d", harness.Query2d},
}

// scenarioTexts returns the first n distinct statements scenario.Generate
// yields from seed 1 on.
func scenarioTexts(n int) []string {
	texts := make([]string, 0, n)
	seen := map[string]bool{}
	for i := uint64(1); len(texts) < n; i++ {
		sql := scenario.Generate(i).Query.SQL()
		if !seen[sql] {
			seen[sql] = true
			texts = append(texts, sql)
		}
	}
	return texts
}

// TestPlansGolden pins what planning produces — the full EXPLAIN text
// (canonical, optimized and physical plans with their estimates, and
// the applied rewrites) and the physical fingerprint — for the first
// 512 distinct generated statements and the five Fig. 7 texts, under
// the unnested and cost-based strategies in both null modes. Each
// (statement, strategy, nulls) is one line holding a hash of the two,
// so a change anywhere in parse, translate, rewrite, estimation or
// lowering shows here. Regenerate with
// `go test -run TestPlansGolden -update-plans .` after a deliberate
// plan change.
func TestPlansGolden(t *testing.T) {
	gen, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.Load(gen, scenario.Generate(1)); err != nil {
		t.Fatal(err)
	}
	rst, _ := disqo.Open(disqo.WithoutCache())
	if err := rst.LoadRST(0.02, 0.02, 0.02); err != nil {
		t.Fatal(err)
	}
	tpch, _ := disqo.Open(disqo.WithoutCache())
	if err := tpch.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	type stmt struct {
		id, sql string
		db      *disqo.DB
	}
	var stmts []stmt
	for i, sql := range scenarioTexts(plansGoldenStmts) {
		stmts = append(stmts, stmt{fmt.Sprintf("gen%03d", i), sql, gen})
	}
	for _, f := range fig7Texts {
		db := rst
		if f.name == "tpch_q2d" {
			db = tpch
		}
		stmts = append(stmts, stmt{f.name, f.sql, db})
	}

	var got []string
	explains := map[string]string{}
	for _, s := range stmts {
		for _, strategy := range []disqo.Strategy{disqo.Unnested, disqo.CostBased} {
			for _, nulls := range []disqo.NullMode{disqo.ThreeValuedNulls, disqo.TwoValuedNulls} {
				opts := []disqo.Option{disqo.WithStrategy(strategy), disqo.WithNullMode(nulls)}
				text, err := s.db.Explain(s.sql, opts...)
				if err != nil {
					text = "error: " + err.Error()
				}
				fp, err := s.db.PlanFingerprint(s.sql, opts...)
				if err != nil {
					fp = 0
				}
				key := fmt.Sprintf("%s %s %s", s.id, strategy, nulls)
				sum := sha256.Sum256([]byte(fmt.Sprintf("%s\nfingerprint %016x\n", text, fp)))
				got = append(got, fmt.Sprintf("%s %x", key, sum[:12]))
				explains[key] = s.sql + "\n\n" + text
			}
		}
	}

	path := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d plans, the test makes %d", path, len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		key := got[i][:strings.LastIndexByte(got[i], ' ')]
		if bad++; bad <= 5 {
			t.Errorf("%s: plan changed (want %q, got %q):\n%s", key, want[i], got[i], explains[key])
		}
	}
	if bad > 5 {
		t.Errorf("%d plans changed in all", bad)
	}
}
