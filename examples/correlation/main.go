// correlation demonstrates disjunctive *correlation* — the case where
// the correlation predicate sits inside the nested block's own
// disjunction (paper §3.2). The paper answers it with Equivalence 4 for
// decomposable aggregates (COUNT/SUM/AVG/MIN/MAX) and Equivalence 5 for
// the rest (e.g. COUNT(DISTINCT …)); disqo uses Equivalence 5's tagged
// binary grouping for both, so Q2 and Q2' report the same rule. It also
// runs the linear query Q4, where the second disjunct is itself another
// nested block.
//
// Run with: go run ./examples/correlation [-sf 0.05]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"disqo"
)

func main() {
	sf := flag.Float64("sf", 0.05, "RST scale multiplier (paper SF1 = 10,000 rows)")
	flag.Parse()

	db, err := disqo.Open()
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadRST(*sf, *sf, *sf); err != nil {
		log.Fatal(err)
	}
	rows, _ := db.RowCount("r")
	fmt.Printf("RST loaded: %d rows per table\n\n", rows)

	cases := []struct {
		title string
		sql   string
	}{
		{
			"Q2 — disjunctive correlation, COUNT(*) (decomposable, still Eqv. 5)",
			`SELECT DISTINCT * FROM r
			 WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`,
		},
		{
			"Q2' — COUNT(DISTINCT b1) is not decomposable → Eqv. 5",
			`SELECT DISTINCT * FROM r
			 WHERE a1 = (SELECT COUNT(DISTINCT b1) FROM s WHERE a2 = b2 OR b4 > 1500)`,
		},
		{
			"Q4 — linear query: the second disjunct is another nested block (Eqv. 5 then Eqv. 1)",
			`SELECT DISTINCT * FROM r
			 WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
			              OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))`,
		},
	}

	for _, c := range cases {
		fmt.Println("==", c.title)
		canonical, err := db.Query(c.sql, disqo.WithStrategy(disqo.Canonical))
		if err != nil {
			log.Fatal(err)
		}
		unnested, err := db.Query(c.sql, disqo.WithStrategy(disqo.Unnested))
		if err != nil {
			log.Fatal(err)
		}
		if len(canonical.Rows) != len(unnested.Rows) {
			log.Fatalf("strategies disagree: %d vs %d rows", len(canonical.Rows), len(unnested.Rows))
		}
		speedup := float64(canonical.Elapsed) / float64(unnested.Elapsed)
		fmt.Printf("   canonical: %10s (%d subquery evaluations)\n",
			canonical.Elapsed.Round(time.Microsecond), canonical.Stats.SubqueryEvals)
		fmt.Printf("   unnested:  %10s (%.0fx faster)\n",
			unnested.Elapsed.Round(time.Microsecond), speedup)
		fmt.Printf("   rewrites:  %v\n\n", unnested.Rewrites)
	}
}
