package exec

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// benchJoinFixture builds two tables with a shared key domain.
func benchJoinFixture(b *testing.B, n int) (*catalog.Catalog, *algebra.Scan, *algebra.Scan) {
	b.Helper()
	cat := catalog.New()
	l, _ := cat.Create("l", []catalog.Column{
		{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindInt}})
	r, _ := cat.Create("r", []catalog.Column{
		{Name: "k", Type: types.KindInt}, {Name: "v", Type: types.KindInt}})
	rng := newBenchRng(42)
	rows := func(tbl *catalog.Table) {
		batch := make([][]types.Value, n)
		for i := 0; i < n; i++ {
			batch[i] = []types.Value{
				types.NewInt(int64(rng.next() % uint64(n/4+1))),
				types.NewInt(int64(rng.next() % 1000)),
			}
		}
		tbl.BulkLoad(batch)
	}
	rows(l)
	rows(r)
	return cat,
		algebra.NewScan("l", "l", storage.NewSchema("l.k", "l.v")),
		algebra.NewScan("r", "r", storage.NewSchema("r.k", "r.v"))
}

type benchRng struct{ s uint64 }

func newBenchRng(seed uint64) *benchRng { return &benchRng{s: seed} }
func (r *benchRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

func benchJoin(b *testing.B, n int, hashable bool) {
	cat, l, r := benchJoinFixture(b, n)
	var pred algebra.Expr
	if hashable {
		pred = algebra.Cmp(types.EQ, algebra.Col("l.k"), algebra.Col("r.k"))
	} else {
		// Same semantics phrased non-hashably (<= ∧ >=) to force NL.
		pred = algebra.And(
			algebra.Cmp(types.LE, algebra.Col("l.k"), algebra.Col("r.k")),
			algebra.Cmp(types.GE, algebra.Col("l.k"), algebra.Col("r.k")))
	}
	plan := algebra.NewJoin(l, r, pred)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := New(cat, Options{Cache: CacheAll})
		if _, err := ex.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinHash1k(b *testing.B) { benchJoin(b, 1000, true) }
func BenchmarkJoinNL1k(b *testing.B)   { benchJoin(b, 1000, false) }

func BenchmarkGroupByHash(b *testing.B) {
	cat, l, _ := benchJoinFixture(b, 10000)
	plan := algebra.NewGroupBy(l, []string{"l.k"}, []algebra.AggItem{
		{Out: "c", Spec: agg.Spec{Kind: agg.Count, Star: true}},
		{Out: "s", Spec: agg.Spec{Kind: agg.Sum}, Arg: algebra.Col("l.v")},
	}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := New(cat, Options{Cache: CacheAll})
		if _, err := ex.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBypassSelect(b *testing.B) {
	cat, l, _ := benchJoinFixture(b, 10000)
	plan := bypassCascade(l, algebra.Cmp(types.GT, algebra.Col("l.v"), algebra.ConstInt(500)),
		algebra.Cmp(types.LE, algebra.Col("l.v"), algebra.ConstInt(500)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := New(cat, Options{Cache: CacheAll})
		if _, err := ex.Run(plan); err != nil {
			b.Fatal(err)
		}
	}
}
