// tpch2d runs the paper's introductory analytical query — "Query 2d", a
// disjunctive variant of TPC-H Q2: European suppliers that either supply
// a part at the minimum cost or have plenty of it on stock — over a
// generated TPC-H database, comparing the wall clock of the canonical,
// unnested and cost-based strategies. The five-system comparison of
// Fig. 7(b) is cmd/bench -exp fig7b.
//
// Run with: go run ./examples/tpch2d [-sf 0.02]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"disqo"
)

const query2d = `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
FROM part, supplier, partsupp, nation, region
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
  AND p_size = 15 AND p_type LIKE '%BRASS'
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'EUROPE'
  AND (ps_supplycost = (SELECT MIN(ps_supplycost)
                        FROM partsupp, supplier, nation, region
                        WHERE s_suppkey = ps_suppkey
                          AND p_partkey = ps_partkey
                          AND s_nationkey = n_nationkey
                          AND n_regionkey = r_regionkey
                          AND r_name = 'EUROPE')
       OR ps_availqty > 2000)
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`

func main() {
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-strategy timeout")
	flag.Parse()

	db, err := disqo.Open()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := db.LoadTPCH(*sf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated TPC-H SF %g in %s\n", *sf, time.Since(start).Round(time.Millisecond))
	for _, t := range db.Tables() {
		n, _ := db.RowCount(t)
		fmt.Printf("  %-10s %8d rows\n", t, n)
	}
	fmt.Println()

	var sample *disqo.Result
	for _, strategy := range []disqo.Strategy{disqo.Canonical, disqo.Unnested, disqo.CostBased} {
		res, err := db.Query(query2d,
			disqo.WithStrategy(strategy), disqo.WithTimeout(*timeout))
		switch {
		case errors.Is(err, disqo.ErrTimeout):
			fmt.Printf("%-10s n/a (exceeded %s — the paper's six-hour cutoff in miniature)\n", strategy, timeout)
			continue
		case errors.Is(err, disqo.ErrOverloaded):
			fmt.Printf("%-10s shed (admission gate: transient overload, retry)\n", strategy)
			continue
		case errors.Is(err, disqo.ErrTupleLimit):
			fmt.Printf("%-10s mem (tuple budget exhausted)\n", strategy)
			continue
		case err != nil:
			log.Fatalf("%s: %v", strategy, err)
		}
		fmt.Printf("%-10s %10s   rows=%d  comparisons=%d  subquery-evals=%d\n",
			strategy, res.Elapsed.Round(time.Microsecond), len(res.Rows),
			res.Stats.Comparisons, res.Stats.SubqueryEvals)
		sample = res
	}

	if sample != nil && len(sample.Rows) > 0 {
		fmt.Println("\ntop qualifying suppliers (best account balance first):")
		limit := len(sample.Rows)
		if limit > 5 {
			limit = 5
		}
		for _, row := range sample.Rows[:limit] {
			fmt.Printf("  %-22s %-14s part %-6v acctbal %v\n",
				row[1], row[2], row[3], row[0])
		}
	}
}
