package disqo_test

import (
	"sync"
	"testing"

	"disqo"
	"disqo/internal/harness"
	"disqo/internal/strategy"
)

// Benchmarks: one family per evaluation artifact of the paper.
//
//	BenchmarkFig7a_*  — Q1 (disjunctive linking) on RST        [Fig. 7a]
//	BenchmarkFig7b_*  — Query 2d (TPC-H Q2 variant)            [Fig. 7b]
//	BenchmarkFig7c_*  — Q2 (disjunctive correlation) on RST    [Fig. 7c]
//	BenchmarkTree_*   — Q3 tree query                          [TR ext.]
//	BenchmarkLinear_* — Q4 linear query                        [TR ext.]
//	BenchmarkQuant_*  — EXISTS in a disjunction                [TR ext.]
//
// Benchmark sizes are deliberately small (the canonical baselines are
// quadratic or worse); the full parameter sweeps with the paper's
// relative scale factors live in cmd/bench.

var (
	benchDBs   = map[string]*disqo.DB{}
	benchDBsMu sync.Mutex
)

// benchDB lazily builds and caches one dataset per key.
func benchDB(b *testing.B, key string, load func(*disqo.DB) error) *disqo.DB {
	b.Helper()
	benchDBsMu.Lock()
	defer benchDBsMu.Unlock()
	if db, ok := benchDBs[key]; ok {
		return db
	}
	// Benchmarks time executions, so the shared DBs run cache-cold —
	// b.N iterations of one query must not collapse into warm hits.
	db, _ := disqo.Open(disqo.WithoutCache())
	if err := load(db); err != nil {
		b.Fatal(err)
	}
	benchDBs[key] = db
	return db
}

func rstDB(b *testing.B, sf float64) *disqo.DB {
	return benchDB(b, "rst", func(db *disqo.DB) error { return db.LoadRST(sf, sf, sf) })
}

func rstSmallDB(b *testing.B, sf float64) *disqo.DB {
	return benchDB(b, "rst-small", func(db *disqo.DB) error { return db.LoadRST(sf, sf, sf) })
}

func tpchDB(b *testing.B, sf float64) *disqo.DB {
	return benchDB(b, "tpch", func(db *disqo.DB) error { return db.LoadTPCH(sf) })
}

func benchQuery(b *testing.B, db *disqo.DB, sql string, s disqo.Strategy) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	rows := -1
	for i := 0; i < b.N; i++ {
		res, err := db.Query(sql, disqo.WithStrategy(s))
		if err != nil {
			b.Fatal(err)
		}
		if rows == -1 {
			rows = len(res.Rows)
		} else if rows != len(res.Rows) {
			b.Fatalf("nondeterministic result: %d vs %d rows", rows, len(res.Rows))
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// --- Fig. 7(a): Q1 on RST ------------------------------------------------

const fig7aSF = 0.05 // 500 rows per relation

func BenchmarkFig7a_S1(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q1, strategy.S1) }
func BenchmarkFig7a_S2(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q1, strategy.S2) }
func BenchmarkFig7a_S3(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q1, strategy.S3) }
func BenchmarkFig7a_Canonical(b *testing.B) {
	benchQuery(b, rstDB(b, fig7aSF), harness.Q1, disqo.Canonical)
}
func BenchmarkFig7a_Unnested(b *testing.B) {
	benchQuery(b, rstDB(b, fig7aSF), harness.Q1, disqo.Unnested)
}

// --- Fig. 7(b): Query 2d on TPC-H ----------------------------------------

const fig7bSF = 0.01

func BenchmarkFig7b_S1(b *testing.B) { benchQuery(b, tpchDB(b, fig7bSF), harness.Query2d, strategy.S1) }
func BenchmarkFig7b_S2(b *testing.B) { benchQuery(b, tpchDB(b, fig7bSF), harness.Query2d, strategy.S2) }
func BenchmarkFig7b_S3(b *testing.B) { benchQuery(b, tpchDB(b, fig7bSF), harness.Query2d, strategy.S3) }
func BenchmarkFig7b_Canonical(b *testing.B) {
	benchQuery(b, tpchDB(b, fig7bSF), harness.Query2d, disqo.Canonical)
}
func BenchmarkFig7b_Unnested(b *testing.B) {
	benchQuery(b, tpchDB(b, fig7bSF), harness.Query2d, disqo.Unnested)
}

// --- Fig. 7(c): Q2 on RST ------------------------------------------------

func BenchmarkFig7c_S1(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q2, strategy.S1) }
func BenchmarkFig7c_S2(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q2, strategy.S2) }
func BenchmarkFig7c_S3(b *testing.B) { benchQuery(b, rstDB(b, fig7aSF), harness.Q2, strategy.S3) }
func BenchmarkFig7c_Canonical(b *testing.B) {
	benchQuery(b, rstDB(b, fig7aSF), harness.Q2, disqo.Canonical)
}
func BenchmarkFig7c_Unnested(b *testing.B) {
	benchQuery(b, rstDB(b, fig7aSF), harness.Q2, disqo.Unnested)
}

// --- TR extensions: tree (Q3), linear (Q4), quantified --------------------

const smallSF = 0.02 // 200 rows: the canonical linear query is cubic

func BenchmarkTree_Canonical(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.Q3, disqo.Canonical)
}
func BenchmarkTree_Unnested(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.Q3, disqo.Unnested)
}

func BenchmarkLinear_Canonical(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.Q4, disqo.Canonical)
}
func BenchmarkLinear_Unnested(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.Q4, disqo.Unnested)
}

func BenchmarkQuant_Canonical(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.QuantExists, disqo.Canonical)
}
func BenchmarkQuant_Unnested(b *testing.B) {
	benchQuery(b, rstSmallDB(b, smallSF), harness.QuantExists, disqo.Unnested)
}

// --- The Fig. 7 mix ---------------------------------------------------------

// BenchmarkFig7Mix runs the five Fig. 7 statements of the benchmark of
// record's fig7_unnest workload once each per iteration — Q1, Q2, Q3,
// the quantified query and Query 2d — unnested, on one worker, uncached,
// over RST SF 0.5 and TPC-H SF 0.01: the executor's hot loops at the
// workload's sizes, read by one command:
//
//	go test -run '^$' -bench Fig7Mix -benchmem -count 5 .
func BenchmarkFig7Mix(b *testing.B) {
	db := fig7MixDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range fig7Stmts {
			if _, err := db.Query(st.sql, disqo.WithWorkers(1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7Each runs BenchmarkFig7Mix's statements one per
// sub-benchmark, on its database, so that a profile or a before/after
// comparison splits by statement:
//
//	go test -run '^$' -bench Fig7Each -benchmem .
func BenchmarkFig7Each(b *testing.B) {
	db := fig7MixDB(b)
	for _, st := range fig7Stmts {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(st.sql, disqo.WithWorkers(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig7Stmts are the fig7_unnest workload's statements.
var fig7Stmts = []struct{ name, sql string }{
	{"Q1", harness.Q1}, {"Q2", harness.Q2}, {"Q3", harness.Q3}, {"quant", harness.QuantExists}, {"Q2d", harness.Query2d},
}

// fig7MixDB is the fig7_unnest workload's data: RST at SF 0.5 and TPC-H
// at SF 0.01.
func fig7MixDB(b *testing.B) *disqo.DB {
	return benchDB(b, "fig7mix", func(db *disqo.DB) error {
		if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
			return err
		}
		return db.LoadTPCH(0.01)
	})
}

// --- Ablations -------------------------------------------------------------

// The optimizer pipeline itself: parse + translate + rewrite, no
// execution.
func BenchmarkOptimizerPipeline(b *testing.B) {
	db := rstDB(b, fig7aSF)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(harness.Q4); err != nil {
			b.Fatal(err)
		}
	}
}
