package disqo

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"disqo/internal/algebra"
	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/translate"
)

// prepared is the one product of planning and the one input of
// execution: the optimized logical plan with its rewrite trace, the
// physical plan it lowered to, and what the caches need to know about
// both. planStmt is the only code that builds one; the plan cache and
// every Stmt store it; run executes it. Nothing in it changes after
// planStmt returns (the fingerprint is a memo of the nodes), so any
// number of concurrent executions share one prepared plan — and, since
// no node holds rows, executions against any later snapshot of the
// same schema epoch too (see planKey and drifted for when it is
// replanned).
type prepared struct {
	// key is what the plan was built for — normalized text (also the
	// workload-telemetry registry key), strategy, null mode, schema
	// epoch.
	key     cache.PlanKey
	logical algebra.Op
	trace   []string
	tables  []string // referenced base tables, lower-case, sorted
	rows    []int    // each table's row count when planned, as tables
	phys    *physical.Plan
	// blocks are the physical roots of the nested query blocks, in the
	// order ANALYZE numbers subquery plans (algebra.WalkNested's).
	blocks []physical.Node
	ops    int // logical operators, blocks included

	fpOnce sync.Once
	fp     uint64
}

// driftFactor is how far, either way, a referenced table's row count
// may move from the count a plan was built with before the plan is
// rebuilt: the estimates behind its choices (Eqv. 2 vs 3 by rank, the
// order of disjuncts, cost-based alternatives, and the translator's
// join order and build sides) read cardinalities, and past this factor
// they are too old to trust.
const driftFactor = 2

// planKey names what a plan is planned for, and with drifted states the
// staleness rule once. A stored plan serves a query only under an equal
// key: the same text, strategy, null mode and schema epoch. DDL — a
// table or view created or dropped, anywhere — and a restored state
// advance the epoch; DML does not, because a plan reads rows only from
// the snapshot it executes on (a scan resolves its table there), so a
// write cannot make a plan wrong, only its estimates old. The plan cache
// looks plans up by the whole key, a Stmt compares the key of the plan
// it holds, and both then ask drifted.
func planKey(norm string, cfg queryConfig, snap *catalog.Snapshot) cache.PlanKey {
	return cache.PlanKey{
		SQL:            norm,
		Strategy:       string(cfg.strategy),
		Nulls:          string(cfg.nulls),
		CatalogVersion: snap.SchemaEpoch(),
	}
}

// drifted reports that a table the plan reads now holds more than
// driftFactor times, or less than 1/driftFactor of, the rows it was
// planned with; a table planned empty drifts with its first row.
func (pp *prepared) drifted(snap *catalog.Snapshot) bool {
	for i, name := range pp.tables {
		t, err := snap.Lookup(name)
		if err != nil {
			return true
		}
		now, then := len(t.Rel.Tuples), pp.rows[i]
		if now > driftFactor*then || driftFactor*now < then {
			return true
		}
	}
	return false
}

// preparedFor returns the prepared plan for a statement text, from the
// plan cache when it holds one under the key that has not drifted; a
// drifted plan counts as a miss and is replaced in place, and entries of
// an older epoch never match and age out by LRU. hit reports that
// planning was skipped, which telemetry counts per statement.
func (db *DB) preparedFor(snap *catalog.Snapshot, sql string, cfg queryConfig) (pp *prepared, hit bool, err error) {
	key := planKey(normalizeSQL(sql), cfg, snap)
	if db.pcache != nil {
		if v, ok := db.pcache.Lookup(key, func(v any) bool { return !v.(*prepared).drifted(snap) }); ok {
			cacheEvent(cfg, "plan", "hit")
			return v.(*prepared), true, nil
		}
		cacheEvent(cfg, "plan", "miss")
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, false, err
	}
	if pp, _, err = db.planStmt(snap, stmt, key, cfg); err != nil {
		return nil, false, err
	}
	if db.pcache != nil {
		db.pcache.Put(key, pp, pp.bytes())
	}
	return pp, false, nil
}

// planStmt is the planning pipeline: translate (to two-valued logic
// too, when the query asks for it) → optimize by strategy → lower, each
// entered here and nowhere else, with one estimator and one physical
// planner. Everything reads src — tables and views alike — so planning
// against a snapshot is immune to concurrent DML and DDL. The canonical
// translation comes back too; only EXPLAIN shows it.
func (db *DB) planStmt(src catalog.Reader, stmt *sqlparser.SelectStmt, key cache.PlanKey, cfg queryConfig) (*prepared, algebra.Op, error) {
	canonical, err := translate.New(src).Translate(stmt)
	if err == nil && cfg.nulls == TwoValuedNulls {
		canonical, err = translate.TwoValued(canonical)
	}
	if err != nil {
		return nil, nil, err
	}
	est := stats.New(src)
	logical, trace, err := optimize(src, est, canonical, cfg.strategy)
	if err != nil {
		return nil, nil, err
	}
	phys, err := physical.NewPlanner(est).Plan(logical)
	if err != nil {
		return nil, nil, err
	}
	pp := &prepared{key: key, logical: logical, trace: trace, phys: phys}
	// One walk gathers what the caches ask of the logical plan: the
	// scanned tables (the result cache's dependency set — the key embeds
	// their versions, and a committed write to any of them invalidates
	// the entry — with the row counts drifted compares against), the
	// operator count bytes charges, and the block roots.
	seen := map[string]bool{}
	for _, b := range algebra.WalkNested(logical, func(op algebra.Op) {
		pp.ops++
		if s, ok := op.(*algebra.Scan); ok {
			if name := strings.ToLower(s.Table); !seen[name] {
				seen[name] = true
				pp.tables = append(pp.tables, name)
			}
		}
	}) {
		n, _ := phys.BlockFor(b)
		pp.blocks = append(pp.blocks, n)
	}
	sort.Strings(pp.tables)
	pp.rows = make([]int, len(pp.tables))
	for i, name := range pp.tables {
		if t, err := src.Lookup(name); err == nil {
			pp.rows[i] = len(t.Rel.Tuples)
		}
	}
	return pp, canonical, nil
}

// optimize applies a strategy to the canonical translation and returns
// the plan to lower with the rewrite trace.
func optimize(src catalog.Reader, est *stats.Estimator, canonical algebra.Op, strategy Strategy) (algebra.Op, []string, error) {
	switch strategy {
	case Unnested, S2:
		caps := rewrite.AllCaps()
		if strategy == S2 {
			caps = rewrite.Caps{Conjunctive: true, ORExpansion: true, Quantified: true}
		}
		rw := rewrite.New(src, caps)
		plan, err := rw.Rewrite(canonical)
		if err != nil {
			return nil, nil, err
		}
		return plan, rw.Trace, nil
	case S3:
		plan, n, err := rewrite.Reorder(canonical, est)
		if err != nil {
			return nil, nil, err
		}
		var trace []string
		if n > 0 {
			trace = []string{fmt.Sprintf("reordered %d predicates by rank", n)}
		}
		return plan, trace, nil
	case Canonical, S1:
		return canonical, nil, nil
	case CostBased:
		return costBased(src, est, canonical)
	default:
		return nil, nil, fmt.Errorf("disqo: unknown strategy %q", strategy)
	}
}

// costBased compares the estimated cost of the canonical plan, the
// reordered plan (S3), and the fully unnested plan, and returns the
// cheapest; only the unnested candidate brings a trace of its own.
func costBased(src catalog.Reader, est *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error) {
	unnested, trace, err := optimize(src, est, canonical, Unnested)
	if err != nil {
		return nil, nil, err
	}
	reordered, _, err := optimize(src, est, canonical, S3)
	if err != nil {
		return nil, nil, err
	}
	names := [...]string{"canonical", "reordered", "unnested"}
	plans := [...]algebra.Op{canonical, reordered, unnested}
	var costs [len(plans)]float64
	best := 0
	for i, p := range plans {
		if costs[i] = est.PlanCost(p); costs[i] < costs[best] {
			best = i
		}
	}
	if names[best] != "unnested" {
		trace = nil
	}
	trace = append(append([]string(nil), trace...), fmt.Sprintf(
		"cost-based choice: %s (canonical=%.3g, reordered=%.3g, unnested=%.3g)",
		names[best], costs[0], costs[1], costs[2]))
	return plans[best], trace, nil
}

// execute evaluates a prepared plan on a fresh executor, which the
// caller closes once the result has been consumed (Close releases the
// execution's charge against the shared budget).
func (db *DB) execute(src catalog.Reader, cfg queryConfig, pp *prepared) (*exec.Executor, *storage.Relation, error) {
	ex := exec.New(src, db.execOptions(cfg))
	rel, err := ex.RunPlan(pp.phys)
	return ex, rel, err
}

// fingerprint identifies the physical plans the executor runs — the
// main plan first, then the nested blocks. Only a query that needs a
// result-cache key pays for it, once per prepared plan. It is stable
// for a given logical plan because algorithm selection is
// deterministic.
func (pp *prepared) fingerprint() uint64 {
	pp.fpOnce.Do(func() {
		pp.fp = physical.Fingerprint(append([]physical.Node{pp.phys.Root}, pp.blocks...)...)
	})
	return pp.fp
}

// bytes estimates a plan-cache entry's footprint: the key text plus a
// fixed charge per logical operator and per physical node (nested
// blocks included in both).
func (pp *prepared) bytes() int64 {
	return int64(2*len(pp.key.SQL)) + 512 + int64(pp.ops+pp.phys.NodeCount())*256
}
