package disqo_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"disqo"
	"disqo/internal/harness"
	"disqo/internal/testutil"
)

// bagOf renders a result's rows as a sorted bag.
func bagOf(res *disqo.Result) []string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	slices.Sort(rows)
	return rows
}

// TestRecycledTablesConcurrent runs the five Fig. 7 statements from 8
// goroutines at once, at one worker and at four over 64-row morsels, on
// an uncached database, so that queries and their morsel workers take
// DISTINCT indexes, group tables, accumulator slabs and results tables
// from the shared pools and hand them back concurrently. Each result must
// be the bag of rows a sequential run of the statement under the
// canonical strategy — nested evaluation, no binary grouping — returns.
func TestRecycledTablesConcurrent(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.05, 0.05, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(0.001); err != nil {
		t.Fatal(err)
	}
	want := make([][]string, len(fig7Stmts))
	for i, st := range fig7Stmts {
		res, err := db.Query(st.sql, disqo.WithStrategy(disqo.Canonical), disqo.WithWorkers(1))
		if err != nil {
			t.Fatalf("%s canonical: %v", st.name, err)
		}
		want[i] = bagOf(res)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range len(fig7Stmts) * 2 {
				i, workers := (g+k)%len(fig7Stmts), 1+3*((g+k/len(fig7Stmts))%2)
				st := fig7Stmts[i]
				res, err := db.Query(st.sql, disqo.WithWorkers(workers), disqo.WithMorselSize(64))
				if err != nil {
					t.Errorf("%s at %d workers: %v", st.name, workers, err)
					return
				}
				if got := bagOf(res); !slices.Equal(got, want[i]) {
					t.Errorf("%s at %d workers: %d rows differ from the canonical strategy's %d", st.name, workers, len(got), len(want[i]))
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledTablesAllocs bounds the bytes a warm Q1 and a warm
// quantified query allocate per run at RST SF 0.5, on one worker and
// uncached: their DISTINCT index, group tables, accumulator slabs and
// results tables come from the pools, so a run allocates its output, its
// plan and its per-morsel buffers, not its tables. With every table
// built per run they allocated 184 kB and 364 kB.
func TestRecycledTablesAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadRST(0.5, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, sql string
		budget    uint64
	}{
		{"Q1", harness.Q1, 110_000},
		{"quant", harness.QuantExists, 200_000},
	} {
		run := func() {
			if _, err := db.Query(c.sql, disqo.WithWorkers(1)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for range 3 {
			run()
		}
		// The least of three windows' averages: an allocation the engine
		// makes now and then, outside the query's operators, lands in one
		// window, not in all.
		per := uint64(1 << 62)
		for range 3 {
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			per = min(per, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s: %d bytes per run", c.name, per)
		if per > c.budget {
			t.Errorf("%s allocates %s per warm run, budget %s", c.name, kB(per), kB(c.budget))
		}
	}
}

func kB(n uint64) string { return fmt.Sprintf("%.1f kB", float64(n)/1000) }
