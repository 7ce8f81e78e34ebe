package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/testutil"
	"disqo/internal/types"
)

// TestMorselSizeClamping pins the Options.MorselSize bounds: zero and
// negatives select the default, and out-of-range values clamp to the
// documented [MinMorselSize, MaxMorselSize] window rather than error —
// the option tunes cancellation latency, it never changes results.
func TestMorselSizeClamping(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultMorselSize},
		{-7, DefaultMorselSize},
		{1, MinMorselSize},
		{MinMorselSize, MinMorselSize},
		{5000, 5000},
		{MaxMorselSize, MaxMorselSize},
		{MaxMorselSize + 1, MaxMorselSize},
		{1 << 30, MaxMorselSize},
	}
	for _, c := range cases {
		ex := New(catalog.New(), Options{MorselSize: c.in})
		if ex.msize != c.want {
			t.Errorf("MorselSize %d clamped to %d, want %d", c.in, ex.msize, c.want)
		}
	}
}

// evalFixture builds l(k, m, v) and r(k, m, w), 300 rows each — five
// morsels of 64, so four workers really split every operator. k is a
// join key over eight values with every eighth row NULL; m is a
// mixed-kind column (ints, floats equal to some of them, strings and
// NULLs); every row has several exact duplicates.
func evalFixture(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"l", "r"} {
		val := "v"
		if name == "r" {
			val = "w"
		}
		tbl, err := cat.Create(name, []catalog.Column{
			{Name: "k", Type: types.KindInt}, {Name: "m", Type: types.KindInt}, {Name: val, Type: types.KindInt}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]types.Value, 300)
		for i := range rows {
			k := types.NewInt(int64(i % 7))
			if i%8 == 7 {
				k = types.Null()
			}
			var m types.Value
			switch i % 4 {
			case 0:
				m = types.NewInt(int64(i % 5))
			case 1:
				m = types.NewFloat(float64(i % 3))
			case 2:
				m = types.NewString(fmt.Sprintf("s%d", i%3))
			default:
				m = types.Null()
			}
			rows[i] = []types.Value{k, m, types.NewInt(int64(i % 11))}
		}
		tbl.BulkLoad(rows) // the typed insert path would reject the mixed column
	}
	return cat
}

// TestEvaluatorsAgree is the executor's differential: every operator
// whose body is shared by the two expression evaluators returns the same
// relation, byte for byte, interpreted or compiled, on one worker or
// four — and a node counts as vector-served exactly when the compiled
// path is on and the planner found it vectorizable.
func TestEvaluatorsAgree(t *testing.T) {
	cat := evalFixture(t)
	l, r := bigScan(t, cat, "l"), bigScan(t, cat, "r")
	col, lit := algebra.Col, algebra.ConstInt
	keyEq := algebra.Cmp(types.EQ, col("l.k"), col("r.k"))
	withResidual := algebra.And(keyEq, algebra.Cmp(types.LT, col("l.v"), col("r.w")))
	disj := algebra.Or(algebra.Cmp(types.GT, col("l.k"), lit(4)), algebra.Cmp(types.GE, col("l.m"), lit(2)))
	bypass := algebra.NewBypassSelect(l, disj)
	// A cascade over a Γ² runs as it, its bypass operand compiled over l.
	bypassK := algebra.NewBypassSelect(l, algebra.Cmp(types.GT, col("l.k"), lit(4)))
	count := []algebra.AggItem{
		{Out: "n", Spec: agg.Spec{Kind: agg.Count, Star: true}},
		{Out: "d", Spec: agg.Spec{Kind: agg.Sum, Distinct: true}, Arg: col("r.w")},
	}
	// Eqv. 1's ⟕ over Γ, keyed on the column that mixes ints, floats,
	// strings and NULLs, runs as a hashed Γ².
	eqv1 := algebra.NewProject(algebra.NewLeftOuterJoin(l, algebra.NewGroupBy(r, []string{"r.m"}, count, false),
		algebra.Cmp(types.EQ, col("l.m"), col("r.m")), []algebra.Default{{Attr: "n", Val: types.NewInt(0)}}),
		append(append([]string(nil), l.Schema().Attrs()...), "n", "d"))
	tagged := algebra.NewBinaryGroup(l, algebra.NewMap(r, "tag", algebra.Cmp(types.GT, col("r.w"), lit(8))), keyEq, count)
	tagged.Tag = "tag"
	// Nested loops interpret the predicate per pair: the compiled tag
	// runs, but the Γ² is not vector-served.
	taggedNL := algebra.NewBinaryGroup(l, algebra.NewMap(r, "tag", algebra.Cmp(types.GT, col("r.w"), lit(8))),
		algebra.Cmp(types.LT, col("l.v"), col("r.w")), count)
	taggedNL.Tag = "tag"
	cases := []struct {
		name string
		plan algebra.Op
		root string // prefix of the root's physical label: the algorithm under test
	}{
		{"filter", algebra.NewSelect(l, disj), "Filter["},
		{"cascade", algebra.NewUnionDisjoint(algebra.Pos(bypass), algebra.NewSelect(algebra.Neg(bypass),
			algebra.Cmp(types.GE, col("l.v"), lit(5)))), "Filter["},
		{"map", algebra.NewMap(l, "x", algebra.Arith(types.Add, col("l.k"), col("l.v"))), "Map["},
		{"map predicate", algebra.NewMap(l, "x", disj), "Map["},
		{"filter not is true", algebra.NewSelect(l, algebra.Not(algebra.IsTrue(disj))), "Filter["},
		{"map is true", algebra.NewMap(l, "x", algebra.IsTrue(disj)), "Map["},
		{"project", algebra.NewProject(l, []string{"l.m", "l.k"}), "Project["},
		{"inner", algebra.NewJoin(l, r, keyEq), "HashJoin[l.k=r.k]"},
		{"inner mixed key", algebra.NewJoin(l, r, algebra.Cmp(types.EQ, col("l.m"), col("r.m"))), "HashJoin[l.m=r.m]"},
		{"inner residual", algebra.NewJoin(l, r, withResidual), "HashJoin[l.k=r.k] residual["},
		{"semi", algebra.NewSemiJoin(l, r, keyEq), "HashJoin(semi)[l.k=r.k]"},
		{"semi residual", algebra.NewSemiJoin(l, r, withResidual), "HashJoin(semi)[l.k=r.k] residual["},
		{"anti", algebra.NewAntiJoin(l, r, keyEq), "HashJoin(anti)[l.k=r.k]"},
		{"anti residual", algebra.NewAntiJoin(l, r, withResidual), "HashJoin(anti)[l.k=r.k] residual["},
		{"eqv1 outer", eqv1, "HashBinaryGroup[l.m=r.m]"},
		{"Γ² hash", algebra.NewBinaryGroup(l, r, keyEq, count), "HashBinaryGroup[l.k=r.k]"},
		{"Γ² nl", algebra.NewBinaryGroup(l, r, algebra.Or(keyEq, algebra.Cmp(types.EQ, col("l.m"), col("r.m"))), count), "NLBinaryGroup["},
		{"Γ² tagged", tagged, "TagBinaryGroup(hash)["},
		{"Γ² tagged nl", taggedNL, "TagBinaryGroup(nl)["},
		{"cascade Γ²", algebra.NewUnionDisjoint(algebra.Pos(bypassK), algebra.NewProject(
			algebra.NewSelect(algebra.NewBinaryGroup(algebra.Neg(bypassK), r, keyEq, count), algebra.Cmp(types.GE, col("n"), lit(2))),
			l.Schema().Attrs())), "HashBinaryGroup[l.k=r.k]"},
	}
	for _, tc := range cases {
		var want *storage.Relation
		for _, path := range []Path{PathRow, PathVector} {
			for _, workers := range []int{1, 4} {
				ex := New(cat, Options{Cache: CacheAll, Path: path, Workers: workers, MorselSize: MinMorselSize, Metrics: true})
				got, err := ex.Run(tc.plan)
				if err != nil {
					t.Fatalf("%s %s w%d: %v", tc.name, path, workers, err)
				}
				if want == nil {
					if want = got; len(want.Tuples) == 0 {
						t.Fatalf("%s: empty result exercises nothing", tc.name)
					}
				} else if !got.Schema.Equal(want.Schema) || !reflect.DeepEqual(got.Tuples, want.Tuples) {
					t.Errorf("%s: %s w%d differs from the interpreted single-worker run", tc.name, path, workers)
				}
				root, err := ex.Plan(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(root.Label(), tc.root) {
					t.Fatalf("%s lowered to %s, want %s…", tc.name, root.Label(), tc.root)
				}
				nm := ex.NodeMetrics()
				physical.Walk(root, func(n physical.Node) bool {
					wantVec := path == PathVector && physical.Vectorizable(n)
					if gotVec := nm[n.ID()].VecCalls > 0; gotVec != wantVec {
						t.Errorf("%s %s w%d: %s vector-served = %v, want %v", tc.name, path, workers, n.Label(), gotVec, wantVec)
					}
					return true
				})
			}
		}
	}
}

// cancelOnOpen cancels a context when the named operator opens.
type cancelOnOpen struct {
	prefix string
	cancel context.CancelFunc
}

func (c cancelOnOpen) OpOpen(n physical.Node) {
	if strings.HasPrefix(n.Label(), c.prefix) {
		c.cancel()
	}
}
func (cancelOnOpen) OpMorsel(physical.Node, int, int)            {}
func (cancelOnOpen) OpClose(physical.Node, int64, time.Duration) {}

// TestProjectPollsCancellation: Π runs under parMorsels on either path,
// so a context cancelled once the projection has opened fails the query
// at its first morsel boundary instead of being ignored.
func TestProjectPollsCancellation(t *testing.T) {
	cat := evalFixture(t)
	plan := algebra.NewProject(bigScan(t, cat, "l"), []string{"l.k"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := New(cat, Options{Path: PathRow, Ctx: ctx, Tracer: cancelOnOpen{prefix: "Project", cancel: cancel}})
	if _, err := ex.Run(plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("projection ignored the cancelled context: err = %v", err)
	}
}

// TestProbeAllocatesPerMorsel is the allocation golden for the shared
// hash probe: a 1 000-row semi-join probe reuses one key buffer per
// morsel, so the whole query — planning, scans, an 8-row build, the
// output's growth — stays far below one allocation per probed row.
func TestProbeAllocatesPerMorsel(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cat := bigCatalog(t, 1000)
	small, err := cat.Create("b", []catalog.Column{{Name: "k", Type: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := small.Insert([]types.Value{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	plan := algebra.NewSemiJoin(bigScan(t, cat, "l"), bigScan(t, cat, "b"),
		algebra.Cmp(types.EQ, algebra.Col("l.k"), algebra.Col("b.k")))
	for _, path := range []Path{PathRow, PathVector} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := New(cat, Options{Path: path, Workers: 1}).Run(plan); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 250 {
			t.Errorf("%s: semi-join over 1000 probe rows made %.0f allocations; the probe is allocating per row", path, allocs)
		}
	}
}

// TestScansShareTheVersionBatch: two queries scanning one table version
// read its one batch, so a column either builds is the other's, pointer
// for pointer; a query over the version a commit publishes reads a batch
// of its own, and the old version's keeps its rows.
func TestScansShareTheVersionBatch(t *testing.T) {
	cat := evalFixture(t)
	scan := func() *storage.Relation {
		t.Helper()
		ex := New(cat, Options{Path: PathVector})
		n, err := ex.Plan(bigScan(t, cat, "l"))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := ex.evalScan(n.(*physical.Scan))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	tbl, err := cat.Lookup("l")
	if err != nil {
		t.Fatal(err)
	}
	a, b := scan(), scan()
	if a == b || a.Batch() != tbl.Batch() || b.Batch() != tbl.Batch() || a.Batch().Col(2) != b.Batch().Col(2) {
		t.Fatal("two scans of one table version read different batches")
	}
	col := a.Batch().Col(2)
	if err := cat.InsertRows("l", []types.Value{types.NewInt(1), types.Null(), types.NewInt(99)}); err != nil {
		t.Fatal(err)
	}
	c := scan()
	if c.Batch() == a.Batch() || c.Batch().Len() != 301 || c.Batch().Col(2) == col || c.Batch().Col(2).Ints[300] != 99 {
		t.Fatal("a scan of the committed version reads the old version's batch")
	}
	if a.Batch().Len() != 300 || a.Batch().Col(2) != col {
		t.Error("the commit changed the old version's batch")
	}
}

// TestCompiledFilterAllocatesPerMorsel: a compiled σ evaluates each
// morsel through the pooled buffers of the evaluator and its frame, so
// over an input of many morsels a morsel allocates only its truth values
// and its selection — 64 more morsels cost two allocations each, and
// none besides but a few of the worker pool's.
func TestCompiledFilterAllocatesPerMorsel(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	col, konst := algebra.Col, algebra.ConstInt
	pred := algebra.Or(algebra.Cmp(types.LT, col("l.v"), konst(100)),
		algebra.And(algebra.Cmp(types.GT, col("l.k"), konst(40)), algebra.Cmp(types.NE, col("l.v"), konst(7))))
	allocs := func(morsels int) float64 {
		cat := bigCatalog(t, morsels*MinMorselSize)
		ex := New(cat, Options{Path: PathVector, Workers: 2, MorselSize: MinMorselSize})
		n, err := ex.Plan(algebra.NewSelect(bigScan(t, cat, "l"), pred))
		if err != nil {
			t.Fatal(err)
		}
		f, ok := n.(*physical.Filter)
		if !ok || f.VecPred == nil {
			t.Fatalf("%s does not plan to a compiled filter", n.Label())
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := ex.evalFilter(f, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const more = 64
	small, large := allocs(16), allocs(16+more)
	if per := (large - small) / more; per > 2.25 {
		t.Errorf("%d more morsels cost %.0f more allocations (%.0f → %.0f), %.2f per morsel; want 2 (truth values and selection)", more, large-small, small, large, per)
	}
}
