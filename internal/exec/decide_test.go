package exec

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// columnFixture builds l(k, f, m, v, x) and r, u of the same columns,
// 300 rows each: k an int key with NULLs; f the same numbers as floats,
// with NULLs elsewhere, so that an int key on one side meets a float
// one on the other; m mixing ints, integral floats, strings and NULLs;
// v an int; and x a float with NULLs, so that a group's MIN of it is
// NULL when all its rows' are, or when the group is empty.
func columnFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for n, name := range []string{"l", "r", "u"} {
		tbl, err := cat.Create(name, []catalog.Column{{Name: "k", Type: types.KindInt}, {Name: "f", Type: types.KindFloat},
			{Name: "m", Type: types.KindInt}, {Name: "v", Type: types.KindInt}, {Name: "x", Type: types.KindFloat}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]types.Value, 300)
		for i := range rows {
			k, f, x := types.NewInt(int64((i+n)%9)), types.NewFloat(float64((i+2*n)%8)), types.NewFloat(float64(i%13)/2)
			if i%11 == 10 {
				k = types.Null()
			}
			if i%10 == 9 {
				f = types.Null()
			}
			if (i+n)%9 >= 7 || i%3 == 0 {
				x = types.Null()
			}
			var m types.Value
			switch i % 4 {
			case 0:
				m = types.NewInt(int64(i % 5))
			case 1:
				m = types.NewFloat(float64(i % 3))
			case 2:
				m = types.NewString([]string{"a", "b", "c"}[i%3])
			default:
				m = types.Null()
			}
			rows[i] = []types.Value{k, f, m, types.NewInt(int64((i * 7) % 17)), x}
		}
		tbl.BulkLoad(rows) // the typed insert path would reject the mixed column
	}
	return cat
}

// TestColumnPathsAgree is the differential of the vector path's probes
// from the column — the hash join's, and the binary grouping's decided
// by selection vectors — against the row path, the reference: inner,
// semi and anti hash joins, and untagged, tagged and chained Γ²s, with
// and without a fused disjunction (a bypass operand, disjuncts reading
// results, a NULL MIN among them), keyed on int columns with NULLs, on
// an int meeting a float and on a column mixing kinds. Each returns the
// reference's rows, in order, at one and four workers and at morsel
// sizes 64 and 1024; each Γ² makes the same lookups in every vector run,
// and, under a fused disjunction, as many per grouping as the left rows
// that the bypass and the disjuncts before the first reading its
// results leave undecided — counted apart, on the row path.
func TestColumnPathsAgree(t *testing.T) {
	cat := columnFixture(t)
	l, r, u := bigScan(t, cat, "l"), bigScan(t, cat, "r"), bigScan(t, cat, "u")
	col, lit := algebra.Col, algebra.ConstInt
	eq := func(a, b string) algebra.Expr { return algebra.Cmp(types.EQ, col(a), col(b)) }
	aggs := func(rel string, n int) []algebra.AggItem {
		items := []algebra.AggItem{
			{Out: "n" + rel, Spec: agg.Spec{Kind: agg.Count, Star: true}},
			{Out: "mn" + rel, Spec: agg.Spec{Kind: agg.Min}, Arg: col(rel + ".x")},
			{Out: "d" + rel, Spec: agg.Spec{Kind: agg.Count, Distinct: true, Star: true}},
		}
		return items[:n]
	}
	lAttrs := l.Schema().Attrs()
	keep := func(bg algebra.Op, pred algebra.Expr) algebra.Op {
		return algebra.NewProject(algebra.NewSelect(bg, pred), lAttrs)
	}
	tagged := func(pred algebra.Expr) *algebra.BinaryGroup {
		bg := algebra.NewBinaryGroup(l, algebra.NewMap(r, "tag", algebra.Cmp(types.GT, col("r.v"), lit(13))), pred, aggs("r", 2))
		bg.Tag = "tag"
		return bg
	}
	chain := algebra.NewBinaryGroup(algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 3)), u, eq("l.f", "u.k"), aggs("u", 2))
	disj := func(ds ...algebra.Expr) algebra.Expr { return algebra.Or(ds...) }
	cases := []struct {
		name      string
		plan      algebra.Op
		root      string
		interpret bool // the disjuncts run as if none compiled
	}{
		{"inner", algebra.NewJoin(l, r, eq("l.k", "r.k")), "HashJoin[l.k=r.k]", false},
		{"inner int by float", algebra.NewJoin(l, r, eq("l.k", "r.f")), "HashJoin[l.k=r.f]", false},
		{"inner float by int", algebra.NewJoin(l, r, eq("l.f", "r.k")), "HashJoin[l.f=r.k]", false},
		{"inner mixed", algebra.NewJoin(l, r, eq("l.m", "r.m")), "HashJoin[l.m=r.m]", false},
		{"inner residual", algebra.NewJoin(l, r, algebra.And(eq("l.k", "r.k"), algebra.Cmp(types.LT, col("l.v"), col("r.v")))), "HashJoin[l.k=r.k] residual[", false},
		{"semi", algebra.NewSemiJoin(l, r, eq("l.k", "r.f")), "HashJoin(semi)[l.k=r.f]", false},
		{"anti", algebra.NewAntiJoin(l, r, eq("l.k", "r.k")), "HashJoin(anti)[l.k=r.k]", false},
		{"anti int by float", algebra.NewAntiJoin(l, r, eq("l.k", "r.f")), "HashJoin(anti)[l.k=r.f]", false},
		{"Γ² emitting", algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 3)), "HashBinaryGroup[l.k=r.k]", false},
		{"Γ² int by float", keep(algebra.NewBinaryGroup(l, r, eq("l.k", "r.f"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(12)), algebra.Cmp(types.LE, col("nr"), lit(33)))), "HashBinaryGroup[l.k=r.f]", false},
		{"Γ² float by int", keep(algebra.NewBinaryGroup(l, r, eq("l.f", "r.k"), aggs("r", 3)),
			disj(eq("l.v", "nr"), algebra.Cmp(types.GE, col("dr"), lit(30)))), "HashBinaryGroup[l.f=r.k]", false},
		{"Γ² mixed", keep(algebra.NewBinaryGroup(l, r, eq("l.m", "r.m"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(14)), algebra.Cmp(types.GT, col("nr"), lit(40)))), "HashBinaryGroup[l.m=r.m]", false},
		{"Γ² NULL MIN", keep(algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(15)), eq("l.x", "mnr"), algebra.Cmp(types.LT, lit(4), col("mnr")))), "HashBinaryGroup[l.k=r.k]", false},
		{"Γ² emitting selection", algebra.NewSelect(algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(10)), algebra.Cmp(types.GE, col("mnr"), algebra.Const(types.NewFloat(3))))), "HashBinaryGroup[l.k=r.k]", false},
		{"Γ² arithmetic", keep(algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(12)), algebra.Cmp(types.EQ, algebra.Arith(types.Add, col("nr"), col("l.v")), lit(40)))), "HashBinaryGroup[l.k=r.k]", false},
		{"Γ² interpreted disjuncts", keep(algebra.NewBinaryGroup(l, r, eq("l.k", "r.k"), aggs("r", 2)),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(15)), eq("l.x", "mnr"), algebra.Cmp(types.LT, lit(4), col("mnr")))), "HashBinaryGroup[l.k=r.k]", true},
		{"Γ² tagged", keep(tagged(eq("l.k", "r.k")),
			disj(algebra.Cmp(types.GT, col("l.v"), lit(14)), algebra.Cmp(types.LE, col("l.v"), col("nr")))), "TagBinaryGroup(hash)[", false},
		{"Γ² tagged int by float", keep(tagged(eq("l.k", "r.f")),
			disj(algebra.Cmp(types.EQ, col("mnr"), col("l.x")), algebra.Cmp(types.GT, col("nr"), lit(60)))), "TagBinaryGroup(hash)[", false},
		{"Γ² chain", keep(chain, disj(algebra.Cmp(types.GT, col("l.v"), lit(14)), algebra.Cmp(types.LE, col("dr"), lit(30)),
			algebra.Cmp(types.EQ, col("mnu"), col("l.x")), algebra.Cmp(types.GT, col("nu"), col("l.v")))), "HashBinaryGroup[l.k=r.k]", false},
	}
	for _, tc := range cases {
		var want *storage.Relation
		var vecProbes, rowProbes []int64
		var root physical.Node
		for _, path := range []Path{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				for _, msize := range []int{64, 1024} {
					ex := New(cat, Options{Cache: CacheAll, Path: path, Workers: workers, MorselSize: msize, Metrics: true})
					if tc.interpret {
						n, err := ex.Plan(tc.plan) // the lowering Run takes
						if err != nil {
							t.Fatal(err)
						}
						for i, bg := 0, binaryGroupOf(n); i < len(bg.Rest); i++ {
							bg.Rest[i].Vec = nil
						}
					}
					got, err := ex.Run(tc.plan)
					if err != nil {
						t.Fatalf("%s %s w%d m%d: %v", tc.name, path, workers, msize, err)
					}
					if want == nil {
						if want = got; len(want.Tuples) == 0 {
							t.Fatalf("%s: empty result exercises nothing", tc.name)
						}
					} else if !got.Schema.Equal(want.Schema) || !reflect.DeepEqual(got.Tuples, want.Tuples) {
						t.Fatalf("%s: %s w%d m%d: %d rows differ from the row path's %d", tc.name, path, workers, msize, len(got.Tuples), len(want.Tuples))
					}
					if root, err = ex.Plan(tc.plan); err != nil {
						t.Fatal(err)
					}
					if !strings.HasPrefix(root.Label(), tc.root) {
						t.Fatalf("%s lowered to %s, want %s…", tc.name, root.Label(), tc.root)
					}
					bg := binaryGroupOf(root)
					if bg == nil {
						continue
					}
					probes, first := ex.NodeMetrics()[bg.ID()].Probes, &vecProbes
					if path == PathRow {
						first = &rowProbes
					}
					if *first == nil {
						*first = probes
					} else if !slices.Equal(probes, *first) {
						t.Errorf("%s: %s w%d m%d probes %v, first run %v", tc.name, path, workers, msize, probes, *first)
					}
				}
			}
		}
		if bg := binaryGroupOf(root); bg != nil && bg.Keep != nil && bg.Emit != nil && slices.Max(bg.Emit) < bg.L.Schema().Len() {
			if wantProbes := undecided(t, cat, tc.plan, bg); !slices.Equal(vecProbes, wantProbes) {
				t.Errorf("%s: vector path probes %v, undecided rows %v (row path %v)", tc.name, vecProbes, wantProbes, rowProbes)
			}
		}
	}
}

// binaryGroupOf returns the Γ² a plan's root is or projects, or nil.
func binaryGroupOf(n physical.Node) *physical.BinaryGroup {
	if p, ok := n.(*physical.Project); ok {
		n = p.Child
	}
	bg, _ := n.(*physical.BinaryGroup)
	return bg
}

// undecided counts, for each grouping of the Γ² bg that plan lowers to,
// the left rows its fused selection looks it up for on the vector path —
// those on which neither the bypass operands nor the disjuncts before
// the first that reads the grouping's results hold — by running, on the
// row path, plan with the selection replaced by NOT IS TRUE of those.
func undecided(t *testing.T, cat *catalog.Catalog, plan algebra.Op, bg *physical.BinaryGroup) []int64 {
	t.Helper()
	p := plan.(*algebra.Project)
	sel := p.Child.(*algebra.Select)
	counts := make([]int64, len(bg.Groupings))
	for j := range counts {
		var before []algebra.Expr
		if bg.Bypass != nil {
			before = append(before, bg.Bypass)
		}
		for _, d := range bg.Rest {
			if d.Reads>>uint(j)&1 != 0 {
				break
			}
			before = append(before, d.Pred)
		}
		if len(before) == 0 {
			counts[j] = int64(len(mustRun(t, cat, sel.Child).Tuples))
			continue
		}
		counts[j] = int64(len(mustRun(t, cat, algebra.NewSelect(sel.Child, algebra.Not(algebra.IsTrue(algebra.Or(before...))))).Tuples))
	}
	return counts
}

func mustRun(t *testing.T, cat *catalog.Catalog, plan algebra.Op) *storage.Relation {
	t.Helper()
	rel, err := New(cat, Options{Cache: CacheAll}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestDistinctStarOverKeyColumn: a keyed fold deduplicates COUNT(DISTINCT
// *) on its key columns and the * tuple's other columns, the key column
// not repeated (a group's rows hold identical keys), and counts as
// before: under Γ an int key and the identical float fold into one group
// whose tuples (1, 5) and (1.0, 5) are one, and NULL keys into another;
// under Γ² a left key finds its group by an identical key of either
// kind, and a NULL key none — on both paths, at one and four workers.
func TestDistinctStarOverKeyColumn(t *testing.T) {
	null, i, f := types.Null(), types.NewInt, types.NewFloat
	cat := catalog.New()
	for _, tbl := range []struct {
		name string
		rows [][]types.Value
	}{
		{"s", [][]types.Value{{i(1), i(5)}, {f(1), i(5)}, {i(1), i(6)}, {i(2), i(5)}, {f(2), i(7)}, {null, i(5)}, {null, i(5)}, {i(2), i(5)}}},
		{"l", [][]types.Value{{i(1), i(0)}, {f(2), i(0)}, {i(3), i(0)}, {null, i(0)}}},
	} {
		created, err := cat.Create(tbl.name, []catalog.Column{{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindInt}})
		if err != nil {
			t.Fatal(err)
		}
		created.BulkLoad(tbl.rows)
	}
	s, l := bigScan(t, cat, "s"), bigScan(t, cat, "l")
	items := []algebra.AggItem{{Out: "d", Spec: agg.Spec{Kind: agg.Count, Distinct: true, Star: true}}}
	for _, c := range []struct {
		name  string
		plan  algebra.Op
		want  []int64 // each output row's count, in order
		dedup func(physical.Node) []int
	}{
		{"Γ", algebra.NewGroupBy(s, []string{"s.k"}, items, false), []int64{2, 2, 1},
			func(n physical.Node) []int { return n.(*physical.Group).Args[0].Dedup }},
		{"Γ²", algebra.NewBinaryGroup(l, s, algebra.Cmp(types.EQ, algebra.Col("l.k"), algebra.Col("s.k")), items), []int64{2, 2, 0, 0},
			func(n physical.Node) []int { return n.(*physical.BinaryGroup).Groupings[0].Args[0].Dedup }},
	} {
		for _, path := range []Path{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				ex := New(cat, Options{Cache: CacheAll, Path: path, Workers: workers})
				root, err := ex.Plan(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if got := c.dedup(root); !slices.Equal(got, []int{0, 1}) {
					t.Errorf("%s: DISTINCT * deduplicates on columns %v, want the key 0, then 1", c.name, got)
				}
				rel, err := ex.Run(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				var got []int64
				for _, row := range rel.Tuples {
					n, _ := row[len(row)-1].IntOk()
					got = append(got, n)
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("%s %s w%d: COUNT(DISTINCT *) = %v, want %v", c.name, path, workers, got, c.want)
				}
			}
		}
	}
}
