package disqo

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/sqlparser"
	"disqo/internal/telemetry"
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
	if co, ok := cfg.Tracer.(CacheObserver); ok {
		co.CacheEvent(tier, event)
	}
}

// errFlightAbandoned finishes a result-cache flight whose owner left
// serve with neither a result nor an error of its own — a panic
// unwinding through it. Waiters see a transient failure instead of
// being wedged by a crashed owner.
var errFlightAbandoned = errors.New("disqo: cached query execution abandoned")

// run is the query lifecycle after planning, and the only code that
// admits, executes, observes and slow-logs a query: Query, Stmt.Query
// and Analyze differ in where pp comes from and in what they make of
// the Result. Every outcome is observed once, here; a failure comes
// back as a *QueryError carrying the time since run began.
func (db *DB) run(snap *catalog.Snapshot, sql string, cfg queryConfig, pp *prepared, planHit bool) (*Result, error) {
	start := time.Now()
	res, src, err := db.serve(snap, cfg, pp, start)
	if err != nil {
		db.observe(pp.key.SQL, cfg, planHit, 0, err, src)
		return nil, wrapQueryError(sql, cfg, time.Since(start), err)
	}
	db.observe(pp.key.SQL, cfg, planHit, int64(len(res.Rows)), nil, src)
	return res, nil
}

// sourceLabels names a result's source in CacheReport.Source.
var sourceLabels = [...]string{
	telemetry.SourceExecution:    "execution",
	telemetry.SourceResultCache:  "result-cache",
	telemetry.SourceSingleFlight: "single-flight",
}

// serve answers a planned query through the result cache, whose entries
// are the filling executions' Results. Flow:
//
//  1. Traced and analyzed queries bypass the cache entirely (a served
//     result would produce no spans) and fault-injected queries skip
//     both reading and waiting (their fault must surface in them) — but
//     a fault-injected query still owns the flight when the key is
//     idle, so concurrent clean twins coalesce behind it and observe
//     its failure as a clean *QueryError of their own, never a poisoned
//     cache entry.
//  2. Hits and single-flight waiters return without touching the
//     admission gate — a served result consumes no execution slot.
//  3. Owners and solo runs pass the admission gate and execute; the
//     owner publishes its result (or error) to waiters and, on
//     success, fills the cache — charging the entry's tuples against
//     the shared budget while its executor still holds the execution
//     charge, so under memory pressure caching loses to live queries.
func (db *DB) serve(snap *catalog.Snapshot, cfg queryConfig, pp *prepared, start time.Time) (res *Result, src telemetry.Source, err error) {
	// A context that is already done fails here — before the cache
	// could serve it a result it asked not to wait for.
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, src, err
		}
	}
	var (
		key    cache.ResultKey
		flight *cache.Flight
	)
	useCache := db.rcache != nil && cfg.Tracer == nil && !cfg.analyze
	if db.rcache != nil && !useCache {
		cacheEvent(cfg, "result", "bypass")
	}
	if useCache {
		key, useCache = db.resultKey(snap, cfg, pp)
	}
	if useCache {
		clean := cfg.Fault == nil
		v, f, out := db.rcache.Acquire(key, clean, clean)
		switch out {
		case cache.Hit:
			src = telemetry.SourceResultCache
		case cache.Waiter:
			src = telemetry.SourceSingleFlight
			// A failure is the owner's raw one (or this waiter's own
			// context cancellation), wrapped as this query's error.
			if v, err = f.Wait(cfg.Ctx); err != nil {
				return nil, src, err
			}
		case cache.Owner:
			flight = f
			// However serve returns, the flight ends: with the failure,
			// or as abandoned if a panic unwinds through here. Finish is
			// idempotent, so after the fill below this is a no-op.
			defer func() {
				ferr := err
				if ferr == nil {
					ferr = errFlightAbandoned
				}
				db.rcache.Finish(key, flight, nil, ferr, 0, 0, nil)
			}()
		case cache.Solo:
			// Execute without owning or filling.
		}
		if src != telemetry.SourceExecution {
			if e := v.(*Result); !cfg.Metrics || e.metrics != nil {
				return db.resultFromEntry(e, cfg, src, time.Since(start)), src, nil
			}
			// The entry lacks the per-operator report this query asked
			// for (the filler ran without WithMetrics): execute instead,
			// leaving the still-valid entry in place for plain queries.
			src = telemetry.SourceExecution
		}
	}

	if err := db.gate.acquire(cfg.Ctx); err != nil {
		return nil, src, err
	}
	defer db.gate.release()

	execStart := time.Now()
	ex, rel, err := db.execute(snap, cfg, pp)
	defer ex.Close()
	if err != nil {
		db.captureSlow(pp, cfg, nil, err)
		return nil, src, err
	}
	res = &Result{
		Columns:  append([]string(nil), rel.Schema.Attrs()...),
		Rows:     rel.Tuples,
		Stats:    ex.Stats(),
		Rewrites: pp.trace,
		Elapsed:  time.Since(execStart),
	}
	if cfg.Metrics {
		res.metrics = newPlanMetrics(pp, ex.NodeMetrics())
		res.metrics.Cache = db.cacheReport(src)
		if db.tele != nil {
			db.tele.ObserveOps(pp.key.SQL, opObs(res.metrics))
		}
	}
	db.captureSlow(pp, cfg, res, nil)
	if flight != nil {
		// Fill before ex.Close releases the execution's budget charge:
		// the cached tuples are charged while the executor still holds
		// its own, so a budget near its limit declines the fill (or
		// evicts colder entries) instead of squeezing live queries. The
		// entry is a copy, so what the caller does to its Result's
		// fields stays the caller's.
		entry := *res
		db.rcache.Finish(key, flight, &entry, nil,
			resultBytes(&entry), int64(len(rel.Tuples)), pp.tables)
	}
	return res, src, nil
}

// resultFromEntry reconstructs a *Result from a cached one. Columns are
// copied (callers may reorder them); rows are shared — results are
// immutable by convention. Stats and Rewrites are the filling
// execution's, which is exactly what a fresh execution against the same
// snapshot would report; Elapsed is this call's own wall time. When the
// caller asked for metrics it gets the filler's per-operator report
// (shallow-copied, possibly empty if the filler collected none) with a
// fresh Cache section naming the source.
func (db *DB) resultFromEntry(e *Result, cfg queryConfig, src telemetry.Source, elapsed time.Duration) *Result {
	res := *e
	res.Columns = append([]string(nil), e.Columns...)
	res.Elapsed = elapsed
	res.metrics = nil
	if cfg.Metrics {
		pm := &PlanMetrics{Root: -1}
		if e.metrics != nil {
			cp := *e.metrics
			pm = &cp
		}
		pm.Cache = db.cacheReport(src)
		res.metrics = pm
	}
	return &res
}

// cacheReport assembles the metrics-attached cache section.
func (db *DB) cacheReport(src telemetry.Source) *CacheReport {
	cs := db.CacheStats()
	return &CacheReport{Source: sourceLabels[src], Plan: cs.Plan, Result: cs.Result}
}

// resultKey derives the result-cache key for this execution: the
// physical-plan fingerprint, the strategy and execution path (S1 and
// Canonical share a plan but count work differently; the two paths
// produce byte-identical rows but path-dependent Stats, which the
// entry stores), and the pinned version of every referenced table as a
// "name@version;" concatenation. ok=false means a table cannot be
// resolved in the snapshot: the execution will fail on its own terms,
// it just is not cacheable.
func (db *DB) resultKey(snap catalog.Reader, cfg queryConfig, pp *prepared) (cache.ResultKey, bool) {
	var versions strings.Builder
	for _, name := range pp.tables {
		t, err := snap.Lookup(name)
		if err != nil {
			return cache.ResultKey{}, false
		}
		fmt.Fprintf(&versions, "%s@%d;", name, t.Version)
	}
	return cache.ResultKey{
		Fingerprint: pp.fingerprint(),
		Strategy:    string(cfg.strategy) + "@" + cfg.Path.String(),
		Tables:      versions.String(),
	}, true
}

// normalizeSQL derives the key statements are compared by — plan cache
// and telemetry registry — so that trivially reformatted statements
// share one entry. It is only ever a key: the WAL and view definitions
// keep the statement as written. Each run of the lexer's whitespace
// (space, tab, newline, carriage return — anything else, \f, \v, NBSP,
// must survive, or a hit could accept input the parser rejects)
// between tokens becomes one space; text inside '…' (a doubled quote
// is its escape) and inside a -- comment is copied verbatim, and the line
// break that ends a comment stays a line break, so two texts share a
// key only if they lex to the same tokens.
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	sep := byte(0) // separator owed before the next piece: ' ' or '\n'
	for i := 0; i < len(sql); {
		// sql[i:j] is the piece to copy, after the separator it forces.
		j, after := i+1, byte(0)
		switch c := sql[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if sep == 0 {
				sep = ' '
			}
			i = j
			continue
		case c == '\'':
			for closed := false; j < len(sql) && !closed; j++ {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j++
					} else {
						closed = true
					}
				}
			}
		case c == '-' && j < len(sql) && sql[j] == '-':
			for j < len(sql) && sql[j] != '\n' {
				j++
			}
			after = '\n'
		}
		if sep != 0 && b.Len() > 0 {
			b.WriteByte(sep)
		}
		b.WriteString(sql[i:j])
		sep, i = after, j
	}
	return b.String()
}

// resultBytes estimates a result-cache entry's footprint: per-row slice
// headers plus a fixed charge per value (a types.Value is 32 bytes), the
// column names, and the metrics report when present. A row cut from an
// operator's shared chunk (at most one morsel's rows) is charged for its
// own values only: a result that keeps some of a chunk's rows also keeps
// the rest of the chunk alive, uncharged.
func resultBytes(e *Result) int64 {
	b := int64(256)
	for _, c := range e.Columns {
		b += int64(len(c)) + 16
	}
	if n := len(e.Rows); n > 0 {
		b += int64(n) * (24 + int64(len(e.Rows[0]))*32)
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
// each strategy's prepared plan is built on first use and rebuilt only
// when it goes stale by the plan cache's rule (planKey, drifted): after
// table or view DDL, or once a table it reads has grown past twice or
// shrunk below half the rows it was planned with. Other DML leaves the
// plan in use — it reads rows from each query's own snapshot, so no
// write can make it wrong. A Stmt keeps its plans itself — one per
// strategy × null mode — so the plan cache's LRU cannot evict them.
// Queries through a Stmt still flow through the result cache (and
// admission gate) exactly like db.Query. A Stmt is safe for concurrent
// use.
type Stmt struct {
	db   *DB
	sql  string
	norm string // normalized SQL, the telemetry registry key
	stmt *sqlparser.SelectStmt

	mu    sync.Mutex
	plans []*prepared
}

// Prepare parses a SELECT statement once for repeated execution.
// Preparation does not touch the catalog: binding and optimization
// happen on first Query (per strategy) and re-run automatically after
// DDL, or when a referenced table's row count drifts past the replan
// factor (see Stmt).
func (db *DB) Prepare(sql string) (*Stmt, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sql: sql, norm: normalizeSQL(sql), stmt: stmt}, nil
}

// SQL returns the statement text as prepared.
func (s *Stmt) SQL() string { return s.sql }

// Close releases the statement's prepared plans. Using the Stmt after
// Close is safe (plans are simply rebuilt); Close exists for symmetry
// with database/sql idiom.
func (s *Stmt) Close() error {
	s.mu.Lock()
	s.plans = nil
	s.mu.Unlock()
	return nil
}

// Query executes the prepared statement. Options mean exactly what they
// do on db.Query; the saved work is parsing (always) and planning
// (whenever the strategy's plan is not stale; see Stmt).
func (s *Stmt) Query(opts ...Option) (*Result, error) {
	cfg, err := s.db.enter(opts)
	if err != nil {
		return nil, err
	}
	defer s.db.end()
	snap := s.db.cat.Snapshot()
	pp, hit, err := s.preparedFor(snap, cfg)
	if err != nil {
		return nil, err
	}
	return s.db.run(snap, s.sql, cfg, pp, hit)
}

// preparedFor is db.preparedFor with the Stmt's own store in place of
// the plan cache and its parsed statement in place of the text: the
// same key and the same drift test decide, and hit mirrors the
// plan-cache meaning. A rebuilt plan replaces the stale one of its
// strategy and null mode.
func (s *Stmt) preparedFor(snap *catalog.Snapshot, cfg queryConfig) (pp *prepared, hit bool, err error) {
	key := planKey(s.norm, cfg, snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := len(s.plans)
	for i, have := range s.plans {
		if have.key == key && !have.drifted(snap) {
			return have, true, nil
		}
		if have.key.Strategy == key.Strategy && have.key.Nulls == key.Nulls {
			slot = i
		}
	}
	pp, _, err = s.db.planStmt(snap, s.stmt, key, cfg)
	if err != nil {
		return nil, false, err
	}
	if slot == len(s.plans) {
		s.plans = append(s.plans, pp)
	} else {
		s.plans[slot] = pp
	}
	return pp, false, nil
}

// QueryContext is Query with cancellation, mirroring db.QueryContext.
func (s *Stmt) QueryContext(ctx context.Context, opts ...Option) (*Result, error) {
	return s.Query(append([]Option{WithContext(ctx)}, opts...)...)
}
