package exec

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/types"
)

// TestBlockReachedFromTwoFrames embeds one nested block — the same
// algebra.ScalarSubquery — in a σ over r and a χ over Π[r.a4, r.a3,
// r.a2] of the σ's output: its correlated column r.a2 sits at position 1
// of the σ's row and 2 of the χ's. The block's nodes are bound once and
// each embedding reads its parameter from its own frame, so every row
// carries the count of its own a2 — on both paths, at one worker and
// four, in every cache mode.
func TestBlockReachedFromTwoFrames(t *testing.T) {
	cat := testCatalog(t)
	sub := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil,
		algebra.NewSelect(scanOf(t, cat, "s"), algebra.Cmp(types.EQ, algebra.Col("r.a2"), algebra.Col("s.b2"))))
	// Counts per a2 value: 10→2, 20→1, 30→0.
	sel := algebra.NewSelect(scanOf(t, cat, "r"), algebra.Cmp(types.GE, algebra.Col("r.a1"), sub))
	plan := algebra.NewMap(algebra.NewProject(sel, []string{"r.a4", "r.a3", "r.a2"}), "c", sub)

	pl, err := physical.NewPlanner(stats.New(cat)).Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*physical.Site
	physical.Walk(pl.Root, func(n physical.Node) bool {
		switch x := n.(type) {
		case *physical.Filter:
			sites = append(sites, x.Bound.R.Src.(*physical.Site))
		case *physical.Map:
			sites = append(sites, x.Bound.Src.(*physical.Site))
		}
		return true
	})
	if len(sites) != 2 || sites[0].Root != sites[1].Root {
		t.Fatalf("want two embeddings of one lowered block, got %v", sites)
	}
	if p, q := sites[0].Params, sites[1].Params; len(p) != 1 || len(q) != 1 || p[0] == q[0] {
		t.Fatalf("the embeddings read the block's parameter from %v and %v", p, q)
	}
	for _, mode := range []CacheMode{CacheNone, CacheScans, CacheAll} {
		for _, path := range []Path{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				ex := New(cat, Options{Cache: mode, Path: path, Workers: workers, MorselSize: MinMorselSize})
				rel, err := ex.RunPlan(pl)
				if err != nil {
					t.Fatal(err)
				}
				wantRows(t, rel, "(1500, 300, 10, 2)", "(2000, 200, 20, 1)", "(2500, 400, 30, 0)")
			}
		}
	}
}

// TestBoundPairAndArgument binds a nested-loop binary grouping's
// predicate over the pair of its rows — depth 0 the right row, depth 1
// the left — and an aggregate argument that is an expression, and checks
// the slots and the rows against hand-counted ones.
func TestBoundPairAndArgument(t *testing.T) {
	cat := testCatalog(t)
	// Γ²[r.a2 < s.b2 + 5 ∧ r.a1 <> s.b1][g: SUM(s.b1 * 2)](r, s)
	pred := algebra.And(
		algebra.Cmp(types.LT, algebra.Col("r.a2"), algebra.Arith(types.Add, algebra.Col("s.b2"), algebra.ConstInt(5))),
		algebra.Cmp(types.NE, algebra.Col("r.a1"), algebra.Col("s.b1")))
	arg := algebra.Arith(types.Mul, algebra.Col("s.b1"), algebra.ConstInt(2))
	plan := algebra.NewBinaryGroup(scanOf(t, cat, "r"), scanOf(t, cat, "s"), pred,
		[]algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Sum}, Arg: arg}})
	pl, err := physical.NewPlanner(stats.New(cat)).Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	g := &pl.Root.(*physical.BinaryGroup).Groupings[0]
	if g.LCols != nil {
		t.Fatalf("want a nested-loop grouping, got %s", pl.Root.Label())
	}
	lt := g.PredBound.L // r.a2 < s.b2 + 5
	if lt.L.Slot != (physical.Slot{Depth: 1, Index: 1}) || lt.R.L.Slot != (physical.Slot{Depth: 0, Index: 1}) {
		t.Errorf("pair slots %v, %v", lt.L.Slot, lt.R.L.Slot)
	}
	if a := g.Args[0]; a.Cols != nil || a.Expr.L.Slot != (physical.Slot{Depth: 0, Index: 0}) {
		t.Errorf("argument bound as %v, %v", a.Cols, a.Expr.L.Slot)
	}
	// s.b2+5 per s row: 15, 15, 25, 45. r1 (a2 10) matches every s row
	// but s1 (b1 = a1) → 2·(2+3+4) = 18; r2 (20) s3 and s4 → 14; r3 (10)
	// all but s3 → 2·(1+2+4) = 14; r4 (30) only s4, whose b1 is its a1:
	// SUM over no row, NULL.
	for _, path := range []Path{PathRow, PathVector} {
		for _, workers := range []int{1, 4} {
			rel, err := New(cat, Options{Path: path, Workers: workers}).RunPlan(pl)
			if err != nil {
				t.Fatal(err)
			}
			wantRows(t, rel, "(1, 10, 100, 1000, 18)", "(2, 20, 200, 2000, 14)",
				"(3, 10, 300, 1500, 14)", "(4, 30, 400, 2500, NULL)")
		}
	}
}
