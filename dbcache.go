package disqo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"disqo/internal/algebra"
	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/physical"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/telemetry"
	"disqo/internal/types"
)

// Default cache capacities when caching is enabled without explicit
// sizes.
const (
	defaultPlanCacheBytes   = 4 << 20
	defaultResultCacheBytes = 16 << 20
)

// CacheTierStats is one cache tier's counter snapshot.
type CacheTierStats = cache.TierStats

// CacheStats reports both cache tiers; see DB.CacheStats.
type CacheStats struct {
	Plan   CacheTierStats `json:"plan"`
	Result CacheTierStats `json:"result"`
}

// CacheStats snapshots the DB's cache counters: hits, misses,
// single-flight waits, evictions, invalidations, and current residency
// per tier. Disabled tiers report zeros.
func (db *DB) CacheStats() CacheStats {
	var cs CacheStats
	if db.pcache != nil {
		cs.Plan = db.pcache.Stats()
	}
	if db.rcache != nil {
		cs.Result = db.rcache.Stats()
	}
	return cs
}

// CacheReport is attached to a query's PlanMetrics when WithMetrics is
// on: where this result came from, plus the DB-wide tier counters as of
// the query's completion.
type CacheReport struct {
	// Source is "execution" (the query ran), "result-cache" (served
	// from a resident entry), "single-flight" (joined a concurrent
	// identical query's execution), or "bypass" (a traced query, which
	// never reads or fills the result cache).
	Source string         `json:"source"`
	Plan   CacheTierStats `json:"plan"`
	Result CacheTierStats `json:"result"`
}

// CacheObserver is an optional extension a Tracer may implement to
// receive cache-tier events ("hit", "miss", "bypass") alongside its
// operator spans. Traced queries bypass the result tier (a hit would
// produce no spans to trace), so the result-tier event a tracer sees
// for its own query is always "bypass"; plan-tier hits and misses are
// reported as they happen.
type CacheObserver interface {
	CacheEvent(tier, event string)
}

// cacheEvent forwards a cache event to the query's tracer when it
// implements CacheObserver.
func cacheEvent(cfg queryConfig, tier, event string) {
	if co, ok := cfg.tracer.(CacheObserver); ok {
		co.CacheEvent(tier, event)
	}
}

// errFlightAbandoned finishes a result-cache flight whose owner bailed
// out without reporting (an early return between Acquire and the
// execution's own Finish). Waiters see it as a transient failure; the
// deferred safety net in run keeps a crashed owner from wedging them.
var errFlightAbandoned = errors.New("disqo: cached query execution abandoned")

// planInfo is the unit the plan cache stores: one optimized logical
// plan with its rewrite trace and referenced base tables. Logical plans
// are immutable after construction, so one planInfo may back any number
// of concurrent executions; the physical fingerprint is derived lazily
// (first query that needs a result-cache key pays it) and memoized.
type planInfo struct {
	plan   algebra.Op
	trace  []string
	tables []string // referenced base tables, lower-case, sorted
	// norm is the normalized statement text — the workload-telemetry
	// registry key (the same normalization the plan-cache key uses), paid
	// for once at plan build so the per-query observe path stays
	// allocation-free.
	norm string

	fpOnce sync.Once
	fp     uint64
	fpErr  error
}

// fingerprint lowers the plan (and every subquery plan reachable from
// operator expressions) to physical form and fingerprints it. The
// snapshot only supplies cardinality estimates; the fingerprint itself
// is stable for a given logical plan because algorithm selection is
// deterministic, which is why memoizing across the planInfo's lifetime
// is sound — a planInfo is only ever reused at the catalog version it
// was built against (the plan-cache key pins it).
func (pi *planInfo) fingerprint(snap catalog.Reader) (uint64, error) {
	pi.fpOnce.Do(func() {
		planner := physical.NewPlanner(stats.New(snap))
		root, err := planner.Lower(pi.plan)
		if err != nil {
			pi.fpErr = err
			return
		}
		nodes := []physical.Node{root}
		for _, sp := range algebra.WalkNested(pi.plan, nil) {
			if n, ok := planner.NodeFor(sp); ok {
				nodes = append(nodes, n)
			}
		}
		pi.fp = physical.Fingerprint(nodes...)
	})
	return pi.fp, pi.fpErr
}

// buildPlanInfo optimizes a statement from scratch (no cache).
func (db *DB) buildPlanInfo(snap catalog.Reader, sql string, cfg queryConfig) (*planInfo, error) {
	plan, trace, err := db.plan(snap, sql, cfg)
	if err != nil {
		return nil, err
	}
	return &planInfo{
		plan: plan, trace: trace,
		tables: collectTables(plan),
		norm:   normalizeSQL(sql),
	}, nil
}

// planFor returns the optimized plan for the statement, consulting the
// plan cache when one is configured. The key pins the normalized SQL,
// the strategy, the snapshot's catalog version, and the view epoch, so
// any DML/DDL commit or view redefinition makes stale entries stop
// matching — they are never served and age out by LRU. planHit reports
// whether optimization was skipped (a cached plan was served), which
// the telemetry layer counts per statement.
func (db *DB) planFor(snap *catalog.Snapshot, sql string, cfg queryConfig) (pi *planInfo, planHit bool, err error) {
	if db.pcache == nil {
		pi, err = db.buildPlanInfo(snap, sql, cfg)
		return pi, false, err
	}
	strat := cfg.strategy
	if strat == "" {
		strat = Unnested
	}
	key := cache.PlanKey{
		SQL:            normalizeSQL(sql),
		Strategy:       string(strat),
		Nulls:          cfg.nulls.String(),
		CatalogVersion: snap.Version(),
		ViewEpoch:      db.viewEpoch.Load(),
	}
	if v, ok := db.pcache.Get(key); ok {
		cacheEvent(cfg, "plan", "hit")
		return v.(*planInfo), true, nil
	}
	cacheEvent(cfg, "plan", "miss")
	pi, err = db.buildPlanInfo(snap, sql, cfg)
	if err != nil {
		return nil, false, err
	}
	db.pcache.Put(key, pi, planInfoBytes(sql, pi))
	return pi, false, nil
}

// cachedEntry is the unit the result cache stores: everything needed to
// reconstruct a byte-identical *Result. Rows are shared with the
// filling execution's output (results are immutable by convention, the
// same convention that lets scans share table storage); metrics is the
// filling execution's report, nil when it did not collect one.
type cachedEntry struct {
	columns  []string
	rows     [][]Value
	stats    exec.Stats
	rewrites []string
	metrics  *PlanMetrics
}

// run executes a planned query through the result cache. Flow:
//
//  1. Traced queries bypass the cache entirely (a served result would
//     produce no spans) and fault-injected queries skip both reading
//     and waiting (their fault must surface in them) — but a
//     fault-injected query still owns the flight when the key is idle,
//     so concurrent clean twins coalesce behind it and observe its
//     failure as a clean *QueryError of their own, never a poisoned
//     cache entry.
//  2. Hits and single-flight waiters return without touching the
//     admission gate — a served result consumes no execution slot.
//  3. Owners and solo runs pass the admission gate and execute; the
//     owner publishes its result (or error) to waiters and, on
//     success, fills the cache — charging the entry's tuples against
//     the shared budget while its executor still holds the execution
//     charge, so under memory pressure caching loses to live queries.
func (db *DB) run(snap *catalog.Snapshot, sql string, cfg queryConfig, pi *planInfo, planHit bool) (*Result, error) {
	start := time.Now()
	if cfg.began.IsZero() {
		cfg.began = start
	}
	// A context that is already done fails here — before the cache
	// could serve it a result it asked not to wait for.
	if cfg.ctx != nil {
		if err := cfg.ctx.Err(); err != nil {
			db.observe(pi.norm, cfg, planHit, 0, err, telemetry.SourceExecution)
			return nil, wrapQueryError(sql, cfg, time.Since(start), err)
		}
	}
	var (
		key    cache.ResultKey
		flight *cache.Flight
	)
	useCache := db.rcache != nil && cfg.tracer == nil
	if db.rcache != nil && cfg.tracer != nil {
		cacheEvent(cfg, "result", "bypass")
	}
	if useCache {
		var ok bool
		key, ok = db.resultKey(snap, cfg, pi)
		useCache = ok
	}
	if useCache {
		clean := cfg.fault == nil
		v, f, out := db.rcache.Acquire(key, clean, clean)
		switch out {
		case cache.Hit:
			if e := v.(*cachedEntry); !cfg.metrics || e.metrics != nil {
				db.observe(pi.norm, cfg, planHit, int64(len(e.rows)), nil, telemetry.SourceResultCache)
				return db.resultFromEntry(e, cfg, "result-cache", time.Since(start)), nil
			}
			// The entry lacks the per-operator report this query asked
			// for (the filler ran without WithMetrics): execute instead,
			// leaving the still-valid entry in place for plain queries.
		case cache.Waiter:
			v, err := f.Wait(cfg.ctx)
			if err != nil {
				// The owner's raw failure (or this waiter's own context
				// cancellation) wrapped as this query's error.
				db.observe(pi.norm, cfg, planHit, 0, err, telemetry.SourceSingleFlight)
				return nil, wrapQueryError(sql, cfg, time.Since(start), err)
			}
			if e := v.(*cachedEntry); !cfg.metrics || e.metrics != nil {
				db.observe(pi.norm, cfg, planHit, int64(len(e.rows)), nil, telemetry.SourceSingleFlight)
				return db.resultFromEntry(e, cfg, "single-flight", time.Since(start)), nil
			}
		case cache.Owner:
			flight = f
			// Safety net: if anything below returns without finishing
			// the flight, fail it rather than wedge the waiters.
			// Finish is idempotent, so the real outcome wins.
			defer db.rcache.Finish(key, flight, nil, errFlightAbandoned, 0, 0, nil)
		case cache.Solo:
			// Execute without owning or filling.
		}
	}

	if err := db.gate.acquire(cfg.ctx); err != nil {
		if flight != nil {
			db.rcache.Finish(key, flight, nil, err, 0, 0, nil)
		}
		db.observe(pi.norm, cfg, planHit, 0, err, telemetry.SourceExecution)
		return nil, wrapQueryError(sql, cfg, 0, err)
	}
	defer db.gate.release()

	ex := exec.New(snap, db.execOptions(cfg))
	defer ex.Close()
	execStart := time.Now()
	rel, err := ex.Run(pi.plan)
	if err != nil {
		if flight != nil {
			db.rcache.Finish(key, flight, nil, err, 0, 0, nil)
		}
		db.observe(pi.norm, cfg, planHit, 0, err, telemetry.SourceExecution)
		db.captureSlow(pi.norm, cfg, 0, err, "")
		return nil, wrapQueryError(sql, cfg, time.Since(execStart), err)
	}
	res := &Result{
		Columns:  append([]string(nil), rel.Schema.Attrs()...),
		Rows:     rel.Tuples,
		Stats:    ex.Stats(),
		Rewrites: pi.trace,
		Elapsed:  time.Since(execStart),
	}
	var pm *PlanMetrics
	var annotated string // the ANALYZE-rendered plan, built only for slow offenders
	if cfg.metrics {
		if root, err := ex.Plan(pi.plan); err == nil {
			pm = newPlanMetrics(root, subplanNodes(ex, pi.plan), ex.NodeMetrics())
			pm.Cache = db.cacheReport("execution")
			res.metrics = pm
			if th := db.tele.SlowThreshold(); th > 0 && time.Since(cfg.began) >= th {
				annotated = physical.ExplainAnnotated(root, analyzeAnnot(ex.NodeMetrics()))
			}
		}
	}
	db.observe(pi.norm, cfg, planHit, int64(len(res.Rows)), nil, telemetry.SourceExecution)
	if db.tele != nil && pm != nil {
		db.tele.ObserveOps(pi.norm, opObs(pm))
	}
	db.captureSlow(pi.norm, cfg, int64(len(res.Rows)), nil, annotated)
	if flight != nil {
		entry := &cachedEntry{
			columns:  res.Columns,
			rows:     rel.Tuples,
			stats:    res.Stats,
			rewrites: pi.trace,
			metrics:  pm,
		}
		// Fill before ex.Close releases the execution's budget charge:
		// the cached tuples are charged while the executor still holds
		// its own, so a budget near its limit declines the fill (or
		// evicts colder entries) instead of squeezing live queries.
		db.rcache.Finish(key, flight, entry, nil,
			resultBytes(entry), int64(len(rel.Tuples)), pi.tables)
	}
	return res, nil
}

// resultFromEntry reconstructs a *Result from a cached entry. Columns
// are copied (callers may reorder them); rows are shared — results are
// immutable by convention. Stats and Rewrites are the filling
// execution's, which is exactly what a fresh execution against the same
// snapshot would report; Elapsed is this call's own wall time. When the
// caller asked for metrics it gets the filler's per-operator report
// (shallow-copied, possibly empty if the filler collected none) with a
// fresh Cache section naming the source.
func (db *DB) resultFromEntry(e *cachedEntry, cfg queryConfig, source string, elapsed time.Duration) *Result {
	res := &Result{
		Columns:  append([]string(nil), e.columns...),
		Rows:     e.rows,
		Stats:    e.stats,
		Rewrites: e.rewrites,
		Elapsed:  elapsed,
	}
	if cfg.metrics {
		pm := &PlanMetrics{Root: -1}
		if e.metrics != nil {
			cp := *e.metrics
			pm = &cp
		}
		pm.Cache = db.cacheReport(source)
		res.metrics = pm
	}
	return res
}

// cacheReport assembles the metrics-attached cache section.
func (db *DB) cacheReport(source string) *CacheReport {
	cs := db.CacheStats()
	return &CacheReport{Source: source, Plan: cs.Plan, Result: cs.Result}
}

// resultKey derives the result-cache key for this execution: the
// physical-plan fingerprint, the strategy and execution path (S1 and
// Canonical share a plan but count work differently; the two paths
// produce byte-identical rows but path-dependent Stats, which the
// entry stores), and the pinned version of every referenced table.
// ok=false means the query is not cacheable (it references something
// unresolvable) and should just execute.
func (db *DB) resultKey(snap catalog.Reader, cfg queryConfig, pi *planInfo) (cache.ResultKey, bool) {
	fp, err := pi.fingerprint(snap)
	if err != nil {
		return cache.ResultKey{}, false
	}
	versions, ok := tableVersions(snap, pi.tables)
	if !ok {
		return cache.ResultKey{}, false
	}
	strat := cfg.strategy
	if strat == "" {
		strat = Unnested
	}
	return cache.ResultKey{
		Fingerprint: fp,
		Strategy:    string(strat) + "@" + cfg.path.String(),
		Nulls:       cfg.nulls.String(),
		Tables:      versions,
	}, true
}

// collectTables gathers the base tables a plan scans, including inside
// subquery plans nested in operator expressions, lower-cased and
// sorted. This is the result cache's dependency set: the key embeds
// these tables' versions, and a committed write to any of them
// invalidates the entry.
func collectTables(plan algebra.Op) []string {
	seen := map[string]bool{}
	var names []string
	algebra.WalkNested(plan, func(op algebra.Op) {
		if s, ok := op.(*algebra.Scan); ok {
			name := strings.ToLower(s.Table)
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	})
	sort.Strings(names)
	return names
}

// tableVersions renders the pinned version of each table as the
// "name@version;" concatenation the result key embeds. ok=false when a
// table cannot be resolved in the snapshot (the execution will fail on
// its own terms; it just is not cacheable).
func tableVersions(snap catalog.Reader, tables []string) (string, bool) {
	var b strings.Builder
	for _, name := range tables {
		t, err := snap.Lookup(name)
		if err != nil {
			return "", false
		}
		fmt.Fprintf(&b, "%s@%d;", name, t.Version)
	}
	return b.String(), true
}

// normalizeSQL collapses whitespace so trivially reformatted statements
// share one plan-cache entry. Only the lexer's whitespace set (space,
// tab, newline, carriage return) separates tokens: anything else — \f,
// \v, NBSP — must survive into the key, or a cache hit could accept
// input the parser rejects.
func normalizeSQL(sql string) string {
	return strings.Join(strings.FieldsFunc(sql, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	}), " ")
}

// planInfoBytes estimates a plan-cache entry's footprint: the SQL key
// text plus a fixed charge per logical operator (including subquery
// plans).
func planInfoBytes(sql string, pi *planInfo) int64 {
	ops := int64(0)
	algebra.WalkNested(pi.plan, func(algebra.Op) { ops++ })
	return int64(2*len(sql)) + 512 + ops*256
}

// resultBytes estimates a result-cache entry's footprint: per-row slice
// headers plus a fixed charge per value, the column names, and the
// metrics report when present.
func resultBytes(e *cachedEntry) int64 {
	b := int64(256)
	for _, c := range e.columns {
		b += int64(len(c)) + 16
	}
	if n := len(e.rows); n > 0 {
		b += int64(n) * (24 + int64(len(e.rows[0]))*48)
	}
	if e.metrics != nil {
		b += int64(len(e.metrics.Ops)) * 200
	}
	return b
}

// afterWrite drops every cached result referencing the written tables.
// It runs after the commit and before the writing statement returns, so
// a writer observes its own write: version-keyed entries could never be
// served stale anyway, but the eager drop also reclaims their memory
// (and shared-budget charge) immediately.
func (db *DB) afterWrite(tables ...string) {
	if db.rcache == nil {
		return
	}
	lower := make([]string, len(tables))
	for i, t := range tables {
		lower[i] = strings.ToLower(t)
	}
	db.rcache.InvalidateTables(lower...)
}

// Stmt is a prepared statement: the SQL is parsed once at Prepare, and
// each strategy's optimized logical plan is built on first use and
// re-derived only when DDL/DML or view changes make it stale. Queries
// through a Stmt still flow through the result cache (and admission
// gate) exactly like db.Query. A Stmt is safe for concurrent use.
type Stmt struct {
	db   *DB
	sql  string
	norm string // normalized SQL, the telemetry registry key
	stmt *sqlparser.SelectStmt

	mu    sync.Mutex
	plans map[stmtKey]*stmtPlan
}

// stmtKey identifies one derived plan per statement: the strategy and
// the null mode (mode-aware rewrites can produce different trees).
type stmtKey struct {
	strat Strategy
	nulls types.NullMode
}

// stmtPlan is one strategy's cached plan with the schema state it was
// derived against.
type stmtPlan struct {
	catVersion uint64
	viewEpoch  uint64
	pi         *planInfo
}

// Prepare parses a SELECT statement once for repeated execution.
// Preparation does not touch the catalog: binding and optimization
// happen on first Query (per strategy) and re-run automatically when
// the catalog or view definitions change underneath the statement.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{
		db: db, sql: sql, norm: normalizeSQL(sql), stmt: stmt,
		plans: make(map[stmtKey]*stmtPlan),
	}, nil
}

// SQL returns the statement text as prepared.
func (s *Stmt) SQL() string { return s.sql }

// Close releases the statement's cached plans. Using the Stmt after
// Close is safe (plans are simply rebuilt); Close exists for symmetry
// with database/sql idiom.
func (s *Stmt) Close() error {
	s.mu.Lock()
	s.plans = make(map[stmtKey]*stmtPlan)
	s.mu.Unlock()
	return nil
}

// Query executes the prepared statement. Options mean exactly what they
// do on db.Query; the saved work is parsing (always) and optimization
// (whenever the catalog version and view definitions are unchanged
// since the strategy's last use).
func (s *Stmt) Query(opts ...Option) (*Result, error) {
	if err := s.db.begin(); err != nil {
		return nil, err
	}
	defer s.db.end()
	cfg := s.db.newQueryConfig()
	for _, o := range opts {
		o(&cfg)
	}
	cfg.began = time.Now()
	if s.db.tele.SlowThreshold() > 0 {
		cfg.metrics = true
	}
	strat := cfg.strategy
	if strat == "" {
		strat = Unnested
	}
	epoch := s.db.viewEpoch.Load()
	snap := s.db.cat.Snapshot()
	// planHit mirrors the plan-cache meaning: optimization was skipped
	// because the strategy's derived plan is still valid.
	planHit := true
	s.mu.Lock()
	sp := s.plans[stmtKey{strat, cfg.nulls}]
	if sp == nil || sp.catVersion != snap.Version() || sp.viewEpoch != epoch {
		plan, trace, err := s.db.planAST(snap, s.stmt, cfg)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		sp = &stmtPlan{
			catVersion: snap.Version(),
			viewEpoch:  epoch,
			pi: &planInfo{
				plan: plan, trace: trace,
				tables: collectTables(plan), norm: s.norm,
			},
		}
		s.plans[stmtKey{strat, cfg.nulls}] = sp
		planHit = false
	}
	pi := sp.pi
	s.mu.Unlock()
	return s.db.run(snap, s.sql, cfg, pi, planHit)
}

// QueryContext is Query with cancellation, mirroring db.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	return s.Query(append([]Option{WithContext(ctx)}, opts...)...)
}
