package exec

import (
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/types"
)

// TestBinaryGroupChainShapes runs two Γ²s stacked on bags with NULL keys
// and duplicate rows: a chain — whole, projected to some of its columns
// in another order, over a nested-loop grouping, and with a disjunction
// fused into it — is one node, and two shapes stay two nodes
// — an upper Γ² keyed on the lower one's result, and a lower Γ² a second
// consumer reads. Each answers, at one and four workers on both paths,
// what a nested loop over the same rows computes.
func TestBinaryGroupChainShapes(t *testing.T) {
	cat := taggedFixture(t, 1, 150, 40, 25, 6)
	r, s, tt := scanOf(t, cat, "r"), scanOf(t, cat, "s"), scanOf(t, cat, "t")
	eq := func(a, b string) algebra.Expr { return algebra.Cmp(types.EQ, algebra.Col(a), algebra.Col(b)) }
	count := []algebra.AggItem{{Out: "g1", Spec: agg.Spec{Kind: agg.Count, Star: true}}}
	sum := []algebra.AggItem{{Out: "g2", Spec: agg.Spec{Kind: agg.Sum}, Arg: algebra.Col("t.c3")}}
	lower := algebra.NewBinaryGroup(r, s, eq("r.a2", "s.b2"), count)
	chain := algebra.NewBinaryGroup(lower, tt, eq("r.a4", "t.c2"), sum)
	rcols := []string{"r.a1", "r.a2", "r.a3", "r.a4", "g1"}
	// A conjunction is neither hashed nor sort-based: a nested loop.
	below := algebra.And(algebra.Cmp(types.LT, algebra.Col("r.a4"), algebra.Col("t.c2")), algebra.Const(types.NewBool(true)))
	nl := algebra.NewBinaryGroup(lower, tt, below, sum)
	either := algebra.Or(algebra.Cmp(types.GT, algebra.Col("g2"), algebra.ConstInt(6)), algebra.Cmp(types.EQ, algebra.Col("g1"), algebra.ConstInt(0)))

	// The oracle: g1 counts the s rows whose b2 equals a2, g2 sums c3
	// over the t rows whose c2 equals a4 (or, keyed, g1); NULL equals
	// nothing, and a sum over no non-NULL c3 is NULL.
	rows := func(name string) [][]types.Value {
		tbl, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Rel.Tuples
	}
	g1 := func(x []types.Value) types.Value {
		n := int64(0)
		for _, y := range rows("s") {
			if types.CompareValues(types.EQ, x[1], y[1]).IsTrue() {
				n++
			}
		}
		return types.NewInt(n)
	}
	sumWhere := func(op types.CompareOp, key types.Value) types.Value {
		acc := agg.NewAcc(agg.Spec{Kind: agg.Sum})
		for _, y := range rows("t") {
			if types.CompareValues(op, key, y[1]).IsTrue() {
				acc.AddOn(y[2:3], nil)
			}
		}
		return acc.Result()
	}
	g2 := func(key types.Value) types.Value { return sumWhere(types.EQ, key) }
	oracle := func(row func(x []types.Value) []types.Value) []string {
		var out []string
		for _, x := range rows("r") {
			if y := row(x); y != nil {
				out = append(out, types.FormatTuple(y))
			}
		}
		return out
	}
	nlRow := func(x []types.Value) []types.Value { return append(x[:4:4], g1(x), sumWhere(types.LT, x[3])) }
	lowerRows := oracle(func(x []types.Value) []types.Value { return append(x[:4:4], g1(x)) })
	for _, c := range []struct {
		name  string
		op    algebra.Op
		nodes int
		want  []string
	}{
		{"a chain", chain, 1, oracle(func(x []types.Value) []types.Value { return append(x[:4:4], g1(x), g2(x[3])) })},
		{"a projected chain", algebra.NewProject(chain, []string{"g2", "r.a1"}), 1,
			oracle(func(x []types.Value) []types.Value { return []types.Value{g2(x[3]), x[0]} })},
		{"a chain over a nested-loop grouping", nl, 1, oracle(nlRow)},
		{"a chain with a fused disjunction", algebra.NewSelect(nl, either), 1,
			oracle(func(x []types.Value) []types.Value {
				if y := nlRow(x); types.CompareValues(types.GT, y[5], types.NewInt(6)).Or(types.CompareValues(types.EQ, y[4], types.NewInt(0))).IsTrue() {
					return y
				}
				return nil
			})},
		{"an upper Γ² keyed on the lower's result", algebra.NewBinaryGroup(lower, tt, eq("g1", "t.c2"), sum), 2,
			oracle(func(x []types.Value) []types.Value { v := g1(x); return append(x[:4:4], v, g2(v)) })},
		{"a shared lower Γ²", algebra.NewUnionAll(algebra.NewProject(chain, rcols), algebra.NewProject(lower, rcols)), 2,
			append(append([]string(nil), lowerRows...), lowerRows...)},
	} {
		n, err := physical.NewPlanner(stats.New(cat)).Lower(c.op)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nodes, chains := 0, 0
		physical.Walk(n, func(x physical.Node) bool {
			if bg, ok := x.(*physical.BinaryGroup); ok {
				nodes++
				chains += len(bg.Groupings) - 1
			}
			return true
		})
		if nodes != c.nodes || nodes+chains != 2 {
			t.Errorf("%s: %d binary grouping nodes of %d groupings, want %d of 2:\n%s", c.name, nodes, nodes+chains, c.nodes, physical.Explain(n))
		}
		for _, path := range []Path{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				rel, err := New(cat, Options{Cache: CacheAll, Workers: workers, MorselSize: MinMorselSize, Path: path}).Run(c.op)
				if err != nil {
					t.Fatalf("%s (%v, %d workers): %v", c.name, path, workers, err)
				}
				got := make([]string, len(rel.Tuples))
				for i, row := range rel.Tuples {
					got[i] = types.FormatTuple(row)
				}
				if g, w := strings.Join(got, "\n"), strings.Join(c.want, "\n"); g != w {
					t.Errorf("%s (%v, %d workers):\n got %s\nwant %s", c.name, path, workers, g, w)
				}
			}
		}
	}
}
