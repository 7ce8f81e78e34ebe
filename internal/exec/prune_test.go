package exec

import (
	"sort"
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/translate"
	"disqo/internal/types"
)

// pruneCatalog builds r(a1..a4), s(b1..b4) and t(c1, c2) with duplicate
// keys, NULL keys and rows that match nothing, so joins multiply, pad
// and drop rows.
func pruneCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	null := int64(-1) // stands for NULL below
	load := func(name, prefix string, width int, rows [][]int64) {
		cols := make([]catalog.Column, width)
		for i := range cols {
			cols[i] = catalog.Column{Name: prefix + string(rune('1'+i)), Type: types.KindInt}
		}
		tbl, err := cat.Create(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			row := intRow(r)
			for i, v := range r {
				if v == null {
					row[i] = types.Null()
				}
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	load("r", "a", 4, [][]int64{{1, 10, 100, 7}, {2, 20, 200, 8}, {3, 10, 300, 7}, {4, null, 400, 9}, {5, 50, null, 7}, {1, 10, 100, 7}})
	load("s", "b", 4, [][]int64{{1, 10, 11, 7}, {2, 10, 22, 8}, {3, 20, 11, 7}, {4, null, 44, 9}, {5, 60, 55, null}, {2, 10, 22, 8}})
	load("t", "c", 2, [][]int64{{1, 7}, {2, 8}, {3, 8}, {4, null}})
	return cat
}

// projected renders rows restricted to attrs, sorted: the reference Π.
func projected(t *testing.T, schema interface{ Index(string) int }, rows [][]types.Value, attrs []string) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(attrs))
		for j, a := range attrs {
			c := schema.Index(a)
			if c < 0 {
				t.Fatalf("reference result lacks %q", a)
			}
			cells[j] = row[c].String()
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}

// TestPruningIsInvisible: for every row-writing operator (and the ones
// that pass needs through to it, a selection fused into an outer join or
// a Γ² among them), Π_A(op) lowered by the planner — which prunes op's
// inputs to what A and op read, gives op an emit list and dissolves or
// aliases the Π — returns what projecting op's whole result to A
// returns, for op and its two-valued translation under both evaluators,
// for prefixes, reorderings, single columns and the empty list — and
// every row, cut from a slab or not, has its length as its capacity.
func TestPruningIsInvisible(t *testing.T) {
	cat := pruneCatalog(t)
	r, s, tt := scanOf(t, cat, "r"), scanOf(t, cat, "s"), scanOf(t, cat, "t")
	col, eq := algebra.Col, func(l, r string) algebra.Expr { return algebra.Cmp(types.EQ, algebra.Col(l), algebra.Col(r)) }
	lt := func(l, r string) algebra.Expr { return algebra.Cmp(types.LT, algebra.Col(l), algebra.Col(r)) }
	count := func(out string, distinct bool, argAttrs ...string) algebra.AggItem {
		return algebra.AggItem{Out: out, Spec: agg.Spec{Kind: agg.Count, Star: true, Distinct: distinct}, ArgAttrs: argAttrs}
	}
	sum := func(out, arg string) algebra.AggItem {
		return algebra.AggItem{Out: out, Spec: agg.Spec{Kind: agg.Sum}, Arg: col(arg)}
	}
	rs := algebra.NewJoin(r, s, eq("r.a2", "s.b2"))
	tagged := algebra.NewBinaryGroup(r, algebra.NewMap(s, "tag", algebra.Cmp(types.GT, col("s.b3"), algebra.ConstInt(40))),
		eq("r.a2", "s.b2"), []algebra.AggItem{count("g", true), sum("h", "s.b3")})
	tagged.Tag = "tag"
	// The subquery's only tie to the outer row is r.a3, which nothing else reads.
	corr := algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil,
		algebra.NewSelect(scanOf(t, cat, "t"), algebra.Cmp(types.LT, algebra.Arith(types.Mul, col("t.c1"), algebra.ConstInt(100)), col("r.a3"))))
	// Here it is the aggregate's argument that reads the outer row.
	argCorr := algebra.Subquery(agg.Spec{Kind: agg.Sum}, algebra.Arith(types.Add, col("t.c1"), col("r.a3")), scanOf(t, cat, "t"))
	// Outer joins and Γ²s a selection is fused into: each σ reads a
	// column the consumer may not, and drops some pad or aggregate rows.
	hashOuter := func() algebra.Op {
		return algebra.NewLeftOuterJoin(r,
			algebra.NewGroupBy(s, []string{"s.b2"}, []algebra.AggItem{count("g", false), sum("h", "s.b3")}, false),
			eq("r.a2", "s.b2"), []algebra.Default{{Attr: "g", Val: types.NewInt(0)}})
	}
	nlOuter := func() algebra.Op {
		return algebra.NewLeftOuterJoin(r, tt, lt("r.a4", "t.c2"), []algebra.Default{{Attr: "t.c1", Val: types.NewInt(0)}})
	}
	hashGroup := func() algebra.Op {
		return algebra.NewBinaryGroup(r, s, eq("r.a2", "s.b2"), []algebra.AggItem{count("g", true, "s.b3"), sum("h", "s.b1")})
	}
	sortGroup := func() algebra.Op {
		return algebra.NewBinaryGroup(r, s, lt("r.a1", "s.b1"), []algebra.AggItem{sum("h", "s.b3"), count("g", false)})
	}
	ops := map[string]algebra.Op{
		"σ over hash outer (pad 0 kept)": algebra.NewSelect(hashOuter(), algebra.Cmp(types.GE, col("r.a1"), col("g"))),
		"σ over nl outer (pad dropped)":  algebra.NewSelect(nlOuter(), algebra.Or(lt("r.a1", "t.c1"), algebra.Cmp(types.EQ, col("r.a3"), algebra.ConstInt(300)))),
		"σ over Π over hash outer":       algebra.NewSelect(algebra.NewProject(hashOuter(), []string{"h", "r.a3", "g", "r.a1"}), lt("r.a1", "g")),
		"σ over Γ² hash":                 algebra.NewSelect(hashGroup(), algebra.Cmp(types.LE, col("r.a1"), col("g"))),
		"σ over Γ² nl": algebra.NewSelect(algebra.NewBinaryGroup(r, s, algebra.Or(eq("r.a2", "s.b2"), lt("r.a1", "s.b1")),
			[]algebra.AggItem{count("g", true)}), lt("r.a1", "g")),
		"σ over Γ² sort":        algebra.NewSelect(sortGroup(), algebra.Cmp(types.GT, col("h"), col("r.a3"))),
		"σ over Π over Γ² sort": algebra.NewSelect(algebra.NewProject(sortGroup(), []string{"g", "r.a2", "h"}), lt("r.a2", "h")),
		"σ over Γ² tagged":      algebra.NewSelect(tagged, lt("r.a1", "h")),
		"σ over Π over Γ² hash": algebra.NewSelect(algebra.NewProject(hashGroup(), []string{"h", "r.a4"}), algebra.Cmp(types.GE, col("h"), col("r.a4"))),
		"σ over outer, a block": algebra.NewSelect(hashOuter(), algebra.Cmp(types.LT, col("g"), corr)),
		"hash join":             rs,
		"hash join + residual":  algebra.NewJoin(r, s, algebra.And(eq("r.a2", "s.b2"), lt("r.a1", "s.b1"))),
		"nl join":               algebra.NewJoin(r, s, lt("r.a1", "s.b1")),
		"cross":                 algebra.NewCross(r, tt),
		"join of joins":         algebra.NewJoin(rs, tt, eq("s.b4", "t.c2")),
		"filter over join":      algebra.NewSelect(rs, lt("r.a3", "s.b3")),
		"semi + residual":       algebra.NewSemiJoin(rs, tt, algebra.And(eq("s.b4", "t.c2"), lt("r.a1", "t.c1"))),
		"anti + residual":       algebra.NewAntiJoin(rs, tt, algebra.And(eq("s.b4", "t.c2"), lt("r.a1", "t.c1"))),
		"nl semi":               algebra.NewSemiJoin(rs, tt, lt("s.b1", "t.c1")),
		"hash outer + defaults": algebra.NewLeftOuterJoin(r,
			algebra.NewGroupBy(s, []string{"s.b2"}, []algebra.AggItem{count("g", false), sum("h", "s.b3")}, false),
			eq("r.a2", "s.b2"), []algebra.Default{{Attr: "g", Val: types.NewInt(0)}}),
		"hash outer + residual": algebra.NewLeftOuterJoin(r, s, algebra.And(eq("r.a2", "s.b2"), lt("r.a1", "s.b1")), nil),
		"nl outer":              algebra.NewLeftOuterJoin(r, tt, lt("r.a4", "t.c2"), []algebra.Default{{Attr: "t.c1", Val: types.NewInt(0)}}),
		"map":                   algebra.NewMap(rs, "m", algebra.Arith(types.Add, col("r.a1"), col("s.b3"))),
		"map with a block":      algebra.NewMap(algebra.NewJoin(r, s, eq("r.a1", "s.b1")), "m", corr),
		"map with an outer arg": algebra.NewMap(algebra.NewJoin(r, s, eq("r.a1", "s.b1")), "m", argCorr),
		"filter with a block":   algebra.NewSelect(algebra.NewJoin(r, s, eq("r.a1", "s.b1")), algebra.Cmp(types.LT, algebra.ConstInt(1), corr)),
		"Γ count(distinct *)":   algebra.NewGroupBy(rs, []string{"r.a4"}, []algebra.AggItem{count("g", true)}, false),
		"Γ count(distinct A)":   algebra.NewGroupBy(rs, []string{"r.a4"}, []algebra.AggItem{count("g", true, "s.b2", "s.b3"), count("n", false)}, false),
		"Γ global over join":    algebra.NewGroupBy(rs, nil, []algebra.AggItem{sum("h", "s.b3")}, true),
		"Γ² hash":               algebra.NewBinaryGroup(r, s, eq("r.a2", "s.b2"), []algebra.AggItem{count("g", true, "s.b3"), sum("h", "s.b1")}),
		"Γ² nl":                 algebra.NewBinaryGroup(r, s, algebra.Or(eq("r.a2", "s.b2"), lt("r.a1", "s.b1")), []algebra.AggItem{count("g", true)}),
		"Γ² sort":               algebra.NewBinaryGroup(r, s, lt("r.a1", "s.b1"), []algebra.AggItem{sum("h", "s.b3"), count("g", false)}),
		"Γ² tagged":             tagged,
		"Γ² over join":          algebra.NewBinaryGroup(rs, tt, eq("s.b4", "t.c2"), []algebra.AggItem{count("g", false)}),
	}
	for name, op := range ops {
		attrs := op.Schema().Attrs()
		n := len(attrs)
		reversed := make([]string, n)
		for i, a := range attrs {
			reversed[n-1-i] = a
		}
		lists := [][]string{attrs[:1], attrs[n-1:], attrs[:n/2], attrs[n/2:], reversed, {}}
		if n > 1 {
			lists = append(lists, []string{attrs[n-1], attrs[0]})
		}
		for _, nulls := range []string{"3vl", "2vl"} {
			op := op
			if nulls == "2vl" {
				var err error
				if op, err = translate.TwoValued(op); err != nil {
					t.Fatal(err)
				}
			}
			for _, path := range []Path{PathRow, PathVector} {
				opt := Options{Cache: CacheAll, Path: path}
				whole, err := New(cat, opt).Run(op)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sel, ok := op.(*algebra.Select); ok {
					// Fused or not, a σ keeps what a Filter over its input's
					// whole result keeps.
					want := filtered(t, New(cat, opt), sel)
					if g := projected(t, whole.Schema, whole.Tuples, attrs); strings.Join(g, "\n") != strings.Join(want, "\n") {
						t.Errorf("%s (%s, %s):\n got %v\nwant %v", name, nulls, path, g, want)
					}
				}
				for _, list := range lists {
					got, err := New(cat, opt).Run(algebra.NewProject(op, list))
					if err != nil {
						t.Fatalf("%s → %v: %v", name, list, err)
					}
					if got.Schema.Len() != len(list) {
						t.Fatalf("%s → %v: result schema %s", name, list, got.Schema)
					}
					want := projected(t, whole.Schema, whole.Tuples, list)
					if g := projected(t, got.Schema, got.Tuples, list); strings.Join(g, "\n") != strings.Join(want, "\n") {
						t.Errorf("%s → %v (%s, %s):\n got %v\nwant %v", name, list, nulls, path, g, want)
					}
					// Rows share slabs: none may reach into its neighbour.
					for _, rows := range [][][]types.Value{whole.Tuples, got.Tuples} {
						for _, row := range rows {
							if cap(row) != len(row) {
								t.Fatalf("%s → %v (%s, %s): a row of %d columns has capacity %d", name, list, nulls, path, len(row), cap(row))
							}
						}
					}
				}
			}
		}
	}
}

// filtered is the reference σ: its input evaluated on its own, and the
// rows its predicate holds TRUE on, rendered as projected renders them.
func filtered(t *testing.T, ex *Executor, sel *algebra.Select) []string {
	t.Helper()
	in, err := ex.Run(sel.Child)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for _, row := range in.Tuples {
		ok, err := ex.EvalPred(sel.Pred, Bind(nil, in.Schema, row))
		if err != nil {
			t.Fatal(err)
		}
		if ok.IsTrue() {
			rows = append(rows, row)
		}
	}
	return projected(t, in.Schema, rows, sel.Schema().Attrs())
}

// TestPruningPrunes pins that the property above is not vacuous: the
// plans it runs do carry emit lists, pruned inputs and no identity Π.
func TestPruningPrunes(t *testing.T) {
	cat := pruneCatalog(t)
	r, s, tt := scanOf(t, cat, "r"), scanOf(t, cat, "s"), scanOf(t, cat, "t")
	eq := func(l, r string) algebra.Expr { return algebra.Cmp(types.EQ, algebra.Col(l), algebra.Col(r)) }
	inner := algebra.NewJoin(algebra.NewJoin(r, s, eq("r.a2", "s.b2")), tt, eq("s.b4", "t.c2"))
	plan := algebra.NewGroupBy(inner, []string{"r.a1"},
		[]algebra.AggItem{{Out: "g", Spec: agg.Spec{Kind: agg.Min}, Arg: algebra.Col("t.c1")}}, false)
	n, err := physical.NewPlanner(stats.New(cat)).Lower(algebra.NewProject(plan, []string{"r.a1", "g"}))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(`
HashGroup[[r.a1]][g:MIN(t.c1)]  (est 5 rows)
  HashJoin[s.b4=t.c2] → [r.a1, t.c1] (2 of 4 cols)  (est 9 rows)
    HashJoin[r.a2=s.b2] → [r.a1, s.b4] (2 of 8 cols)  (est 9 rows)
      Scan(r)  (est 6 rows)
      Scan(s)  (est 6 rows)
    Scan(t)  (est 4 rows)`)
	if got := strings.TrimSpace(physical.Explain(n)); got != want {
		t.Errorf("physical plan:\n%s\nwant:\n%s", got, want)
	}
}
