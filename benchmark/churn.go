package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"disqo"
	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/scenario"
	"disqo/internal/types"
)

const (
	// churnPool is the number of distinct statements the ad-hoc stream
	// cycles through. Pass p asks for statement p mod churnPool with p
	// in a trailing comment (see adhoc), so no text of the stream is
	// ever asked for before its miss, whatever the cache holds, however
	// it sizes its entries and whatever it evicts. An entry for these
	// queries is charged about 8 kB, so the 4 MiB default is full after
	// some 500 misses and the steady state evicts.
	churnPool = 1024
	// churnLag is how many passes after its miss a text is asked for
	// again: far inside the cache's reach, so the second request hits.
	churnLag = 16
	// churnRows is the size every table is cut to: the fewest rows the
	// scenario generator gives a table, so that execution is negligible
	// and costs the same whatever the seed.
	churnRows = 4
	// churnSets is the number of independent r/s/t table sets; text i
	// runs on set i mod churnSets.
	churnSets = 8
)

// The cost of planning one of the scenario grammar's statements has a
// heavy tail (the dearest of a thousand costs fifty times the median, all
// of it in the rewriter), so the mean over a thousand freshly drawn texts
// moves by several percent from draw to draw. The statement population is
// therefore part of the workload's definition, like TPC-H's templates:
// the texts of scenario seeds 1, 2, 3, ... The benchmark seed decides
// what a seed can decide without changing what the workload costs: the
// rows of every table and the order the texts come in. Eight table sets
// rather than one keep the little execution there is from depending on
// one draw of a dozen rows.

// churnTables builds churnSets sets of r, s and t from the scenario
// generator's tables, each cut to churnRows rows; set k's tables are
// named r<k>, s<k>, t<k>.
func churnTables(seed uint64) []scenario.Table {
	rnd := rand.New(rand.NewSource(int64(seed)))
	var all []scenario.Table
	for k := 0; k < churnSets; k++ {
		set := scenario.Generate(rnd.Uint64()).Tables
		for t := range set {
			set[t].Rows = set[t].Rows[:churnRows]
			set[t].Name = fmt.Sprintf("%s%d", set[t].Name, k)
		}
		all = append(all, set...)
	}
	return all
}

// churnTexts returns the first n distinct statements of the fixed
// population, the i-th rewritten to table set i mod churnSets.
func churnTexts(n int) []string {
	texts := make([]string, 0, n)
	seen := map[string]bool{}
	for i := uint64(1); len(texts) < n; i++ {
		sql := scenario.Generate(i).Query.SQL()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		k := fmt.Sprint(len(texts) % churnSets)
		texts = append(texts, strings.NewReplacer("FROM r WHERE", "FROM r"+k+" WHERE",
			"FROM s WHERE", "FROM s"+k+" WHERE", "FROM t WHERE", "FROM t"+k+" WHERE").Replace(sql))
	}
	return texts
}

// shuffle puts texts into the order the seed decides.
func shuffle(texts []string, seed uint64) {
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(texts), func(i, j int) {
		texts[i], texts[j] = texts[j], texts[i]
	})
}

// loadScenarioTables creates and fills the tables through the public API.
func loadScenarioTables(db *disqo.DB, tables []scenario.Table) (int, error) {
	sc := &scenario.Scenario{Tables: tables}
	if err := scenario.Load(db, sc); err != nil {
		return 0, err
	}
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	return rows, nil
}

// privateScenarioCatalog builds the same tables in a bare catalog for the
// staged pipeline.
func privateScenarioCatalog(tables []scenario.Table) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, t := range tables {
		cols := make([]catalog.Column, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: c.Kind}
		}
		if _, err := cat.Create(t.Name, cols); err != nil {
			return nil, err
		}
		rows := make([][]types.Value, len(t.Rows))
		copy(rows, t.Rows)
		if err := cat.InsertRows(t.Name, rows...); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// setupChurn builds the plan_churn instance: tiny tables, the plan cache
// at its default size, no result cache, and a three-op cycle of a text
// the cache no longer holds, a text it still holds, and a prepared
// statement.
func setupChurn(w *workload, seed uint64, _ string) (*instance, error) {
	in := &instance{w: w, seed: seed, workers: 1}

	start := time.Now()
	tables := churnTables(seed)
	// A few spare texts stand in for any the oracle below cannot run.
	candidates := churnTexts(churnPool + churnPool/8)
	in.phases.datagen = time.Since(start)

	start = time.Now()
	db, err := disqo.Open(disqo.WithResultCacheSize(-1))
	if err != nil {
		return nil, err
	}
	in.db = db
	if in.phases.rowsLoaded, err = loadScenarioTables(db, tables); err != nil {
		return nil, err
	}
	if in.cat, err = privateScenarioCatalog(tables); err != nil {
		return nil, err
	}
	in.phases.load = time.Since(start)

	// The oracle is a second engine without caches running the canonical
	// (nested-loop) strategy on the same rows. It also screens the
	// candidates: the workload holds only statements that run.
	start = time.Now()
	oracle, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	if _, err := loadScenarioTables(oracle, tables); err != nil {
		return nil, err
	}
	var texts []string
	oracleWant := map[string]expect{}
	for i, sql := range candidates {
		if len(texts) == churnPool {
			break
		}
		out, err := readOutcome(oracle.Query(sql, disqo.WithStrategy(disqo.Canonical),
			disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
		if err != nil {
			fmt.Printf("# plan_churn: candidate statement %d left out, the canonical strategy cannot run it: %v\n", i+1, err)
			continue
		}
		oracleWant[sql] = out.expect()
		texts = append(texts, sql)
	}
	if len(texts) < churnPool {
		return nil, fmt.Errorf("plan_churn: only %d of %d candidate statements run", len(texts), len(candidates))
	}
	in.phases.verify += time.Since(start)
	shuffle(texts, seed)
	// All three classes walk the same pool, so each averages over every
	// statement and no class depends on which few a seed happened to
	// make hot. Pass p misses on statement p mod churnPool tagged p (see
	// adhoc), hits on the text of pass p-churnLag (put into the cache
	// churnLag passes earlier) and runs statement p mod churnPool
	// prepared.
	pool := texts
	lagged := make([]string, churnPool)
	prepared := make([]*disqo.Stmt, churnPool)
	for i, sql := range pool {
		lagged[(i+churnLag)%churnPool] = sql
		if prepared[i], err = db.Prepare(sql); err != nil {
			return nil, err
		}
	}
	// adhoc is the text of the ad-hoc stream at pass p: variant v of an
	// op's statements (v = p mod churnPool) followed by a comment
	// holding p. The plan cache keys on the text, so the text of every
	// pass is new to it; the statement, and so the plan and the result,
	// is the pool's.
	adhoc := func(stmts []string, v, p int) string { return stmts[v] + " -- " + strconv.Itoa(p) }
	query := func(sql string) (outcome, error) {
		return readOutcome(db.Query(sql, disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
	}
	in.cycle = []op{
		{class: w.classIndex("adhoc_miss"), stmts: pool, plansEveryCall: true,
			do: func(v int) (outcome, error) { return query(adhoc(pool, v, in.passes)) }},
		{class: w.classIndex("adhoc_hit"), stmts: lagged,
			do: func(v int) (outcome, error) { return query(adhoc(lagged, v, in.passes-churnLag)) }},
		{class: w.classIndex("prepared"), stmts: pool,
			do: func(v int) (outcome, error) {
				return readOutcome(prepared[v].Query(disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
			}},
	}
	// One reference pass per pool text sees every variant of every op; a
	// second round of churnLag passes brings the cache to the steady
	// state in which every adhoc_hit finds its text.
	in.refPasses = churnPool + churnLag
	in.oracle = func() error {
		for i := range in.cycle {
			o := &in.cycle[i]
			for v, sql := range o.stmts {
				in.verifyChecks++
				if o.wants[v] != oracleWant[sql] {
					in.fail("oracle: %s variant %d unnested %+v, canonical %+v: %s",
						w.classes[o.class].name, v, o.wants[v], oracleWant[sql], sql)
				}
			}
		}
		return nil
	}
	// The workload measures misses only while every adhoc_miss is one.
	// Nothing the cache may legitimately do (smaller entries, another
	// eviction policy) can make a never-seen text hit; a key that
	// ignored the comment would, and the workload would then need new
	// texts. How many adhoc_hit operations hit is reported
	// (cache.plan.hit_ratio), not required.
	in.invariant = func(ws *window) []string {
		miss := ws.ops[w.classIndex("adhoc_miss")]
		if ws.cache.Plan.Misses < int64(miss) {
			return []string{fmt.Sprintf("plan cache saw %d misses for %d adhoc_miss operations on never-seen texts",
				ws.cache.Plan.Misses, miss)}
		}
		return nil
	}
	in.probes = func(m map[string]float64) error {
		// The plan tier's own cost with this workload's keys: fill a
		// cache of the default size with as many texts as are in reach
		// of a hit, then time Get.
		hot := pool[:2*churnLag]
		pc := cache.NewPlanCache(4 << 20)
		keys := make([]cache.PlanKey, len(hot))
		for i, sql := range hot {
			keys[i] = cache.PlanKey{SQL: sql, Strategy: string(disqo.Unnested), Nulls: "3vl", CatalogVersion: 1}
			pc.Put(keys[i], i, 8<<10)
		}
		const gets = 20000
		start := time.Now()
		for i := 0; i < gets; i++ {
			if _, ok := pc.Get(keys[i%len(keys)]); !ok {
				return fmt.Errorf("plan-cache probe lost key %d", i%len(keys))
			}
		}
		m["cache.plan.get_us"] = float64(time.Since(start).Nanoseconds()) / gets / 1e3
		return nil
	}
	in.teardown = func() (int, error) { return 0, db.Close() }
	return in, nil
}
