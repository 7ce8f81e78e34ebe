// Package disqo is an in-memory relational query engine built to
// reproduce "Unnesting Scalar SQL Queries in the Presence of Disjunction"
// (Brantner, May, Moerkotte — ICDE 2007). It parses a SQL dialect
// covering the paper's query classes, translates it into a relational
// algebra extended with bypass operators, unnests nested query blocks —
// including the disjunctive linking and disjunctive correlation cases no
// classical technique handles — and executes the resulting DAG-shaped
// plans.
//
// Quick start:
//
//	db, _ := disqo.Open()
//	if err := db.LoadRST(1, 1, 1); err != nil { ... }
//	res, err := db.Query(`SELECT DISTINCT * FROM r
//	    WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
//	       OR a4 > 1500`)
//
// Query strategies (see DESIGN.md §4 for how the baselines model the
// paper's anonymized commercial systems):
//
//	Unnested   — the paper's full strategy (Equivalences 1–5, default)
//	Canonical  — nested-loop evaluation of the canonical plan
//	S1         — canonical without any caching (slowest baseline)
//	S2         — OR-expansion + conjunctive unnesting only
//	S3         — canonical with cost-ordered predicate short-circuiting
//	CostBased  — estimate canonical vs. reordered vs. unnested, run the cheapest
package disqo

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disqo/internal/algebra"
	"disqo/internal/cache"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/exec"
	"disqo/internal/faultinject"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/telemetry"
	"disqo/internal/translate"
	"disqo/internal/types"
	"disqo/internal/wal"
)

// Value is a SQL scalar value.
type Value = types.Value

// Column defines one table column.
type Column = catalog.Column

// Re-exported column types.
const (
	TypeInt    = types.KindInt
	TypeFloat  = types.KindFloat
	TypeString = types.KindString
	TypeBool   = types.KindBool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.NewInt
	// Float builds a float value.
	Float = types.NewFloat
	// String builds a string value.
	String = types.NewString
	// Bool builds a boolean value.
	Bool = types.NewBool
	// Null builds the SQL NULL.
	Null = types.Null
)

// Strategy selects how queries are optimized and evaluated.
type Strategy string

// The available strategies.
const (
	// Unnested applies the paper's full rewrite set (Eqv. 1–5).
	Unnested Strategy = "unnested"
	// Canonical evaluates the canonical nested plan, memoizing
	// uncorrelated subplans (a buffer-pool-resident inner relation).
	Canonical Strategy = "canonical"
	// S1 models the weakest commercial baseline: canonical evaluation
	// with no caching at all.
	S1 Strategy = "s1"
	// S2 models a system with OR-expansion and conjunctive unnesting but
	// no disjunctive unnesting.
	S2 Strategy = "s2"
	// S3 models a system that orders predicate operands for
	// short-circuiting (stats.Estimator.Order: the cheap, deciding
	// disjunct first) but cannot decorrelate.
	S3 Strategy = "s3"
	// CostBased estimates the cost of the canonical, reordered and
	// unnested plans and executes the cheapest — the cost-based
	// application of the equivalences the paper's introduction calls
	// for ("some unnesting strategies do not always result in better
	// plans").
	CostBased Strategy = "costbased"
)

// Strategies lists the paper's five systems in presentation order
// (CostBased is a separate optimizer mode, not one of the compared
// systems).
func Strategies() []Strategy { return []Strategy{S1, S2, S3, Canonical, Unnested} }

// ParseStrategy resolves a strategy by its name — the one place flags,
// REPL commands and wire requests turn text into a Strategy.
func ParseStrategy(name string) (Strategy, bool) {
	for _, s := range append(Strategies(), CostBased) {
		if string(s) == name {
			return s, true
		}
	}
	return "", false
}

// NullMode selects the logic a query's predicates follow. The default
// ThreeValuedNulls is SQL's Kleene logic (NULL comparisons yield
// UNKNOWN); TwoValuedNulls follows "Handling SQL Nulls with Two-Valued
// Logic" (arXiv 2012.13198): every predicate over a NULL is FALSE and
// the connectives are classical. A two-valued query is translated into
// a three-valued one before it is optimized (translate.TwoValued), and
// writes always evaluate in three-valued logic.
type NullMode string

const (
	// ThreeValuedNulls is SQL's standard three-valued logic (default).
	ThreeValuedNulls NullMode = "3vl"
	// TwoValuedNulls makes every predicate over a NULL FALSE.
	TwoValuedNulls NullMode = "2vl"
)

// ParseNullMode resolves a mode by its name, the spelling flags, the
// REPL, the wire protocol and EXPLAIN use.
func ParseNullMode(name string) (NullMode, bool) {
	m := NullMode(name)
	return m, m == ThreeValuedNulls || m == TwoValuedNulls
}

// DB is an in-memory database: a catalog of tables plus query machinery.
// It is safe for concurrent use: queries pin an immutable catalog
// snapshot at plan time (snapshot-isolated reads — an in-flight query
// never observes a torn write), DML and DDL build new table versions
// copy-on-write and commit them atomically, and an admission gate sheds
// excess concurrent queries with ErrOverloaded instead of thrashing.
// See the OpenOption set (WithMaxConcurrent, WithMaxQueued,
// WithAdmissionWait, WithSharedTupleLimit) and README "Concurrency &
// overload". The data loaders (LoadRST, LoadTPCH) are the one
// exception: run them during setup, before serving concurrent traffic.
type DB struct {
	// cat is the committed state, tables and views: a query pins one
	// commit of it with Snapshot.
	cat *catalog.Catalog

	// writeMu serializes writes (commit in write.go; also checkpoints and
	// a replica's snapshot install). Readers never take it.
	writeMu sync.Mutex

	// gate is the admission controller; nil means unlimited admission.
	gate *gate
	// budget is the DB-wide resident-tuple budget shared by all
	// concurrent queries; nil means per-query limits only.
	budget *exec.Budget

	// pcache/rcache are the plan and result cache tiers; nil disables
	// the tier (WithoutCache, or a negative size). See DESIGN.md §8.
	pcache *cache.PlanCache
	rcache *cache.ResultCache
	// tele is the workload-statistics collector every query lifecycle
	// event flows through; nil when WithoutTelemetry disabled it (the
	// whole layer then costs one pointer test per query). See
	// DB.WorkloadStats and DESIGN.md §12.
	tele *telemetry.Collector
	// start anchors WorkloadStats.Uptime.
	start time.Time
	// debug is the opt-in debug HTTP listener (WithDebugAddr); debugErr
	// records a failed bind, surfaced by DebugAddr. debugExtra, when
	// set (WithDebugMetrics), is called per /metrics scrape and its
	// output appended after the engine's own families — how disqod
	// publishes its session gauges on the engine's page.
	debug      *debugServer
	debugErr   error
	debugExtra func() []byte

	// Durability (WithDataDir; see durability.go and DESIGN.md §13).
	// wal is nil for a volatile DB. The checkpoint bookkeeping fields
	// are guarded by writeMu (only write statements touch them);
	// recovering suppresses re-logging while Open replays the log tail
	// through the ordinary write path.
	wal             *wal.Log
	dataDir         string
	checkpointEvery int
	sinceCheckpoint int
	lastCkptErr     error
	recovering      bool
	// replayed counts log records applied by crash recovery at Open.
	replayed atomic.Uint64

	// Close drain lifecycle (see durability.go): every public entry
	// point brackets itself with begin/end; Close flips closed and
	// waits for inflight to reach zero.
	lifeMu       sync.Mutex
	closed       bool
	inflight     int
	idle         chan struct{}
	closeErr     error
	drainTimeout time.Duration

	// Replica apply state (see replica.go): replicaMu serializes the
	// apply loop and orders strictly before writeMu; replicaLSN is the
	// last log record applied, replicaSnaps/replicaRecs count applies.
	replicaMu    sync.Mutex
	replicaLSN   uint64
	replicaSnaps uint64
	replicaRecs  uint64
}

// OpenOptions configures a DB at Open time. The zero value of each
// field selects the documented default.
type OpenOptions struct {
	// MaxConcurrent bounds the queries executing at once; 0 derives the
	// default from GOMAXPROCS (8×), and a negative value disables
	// admission control entirely.
	MaxConcurrent int
	// MaxQueued bounds the FIFO wait queue behind a full gate; queries
	// beyond it are shed immediately with ErrOverloaded. 0 derives the
	// default (4 × MaxConcurrent).
	MaxQueued int
	// AdmissionWait is the longest a query waits in the queue before it
	// is shed with ErrOverloaded; 0 waits indefinitely (until a slot
	// opens or the query's context is done).
	AdmissionWait time.Duration
	// SharedTupleLimit bounds the tuples simultaneously resident across
	// ALL concurrent queries (WithTupleLimit bounds one query); the
	// query whose allocation crosses it aborts with ErrMemoryLimit.
	// 0 means no shared budget.
	SharedTupleLimit int64
	// PlanCacheBytes bounds the plan cache (0 selects the 4 MiB
	// default; negative disables the tier).
	PlanCacheBytes int64
	// ResultCacheBytes bounds the result cache (0 selects the 16 MiB
	// default; negative disables the tier).
	ResultCacheBytes int64
	// DisableCache turns both cache tiers off; every query re-plans and
	// re-executes from scratch, byte-identically to a cached run.
	DisableCache bool
	// DisableTelemetry turns the workload-statistics layer off: no
	// statement registry, no latency histograms, no slow-query log.
	// WorkloadStats still reports cache, admission, and budget state.
	DisableTelemetry bool
	// SlowQueryThreshold arms the slow-query ring buffer: every executed
	// query at or over the threshold is captured with its
	// ANALYZE-annotated plan. Implies per-operator metrics collection on
	// every query (the price of always having the annotated plan when an
	// offender shows up). 0 disables capture.
	SlowQueryThreshold time.Duration
	// DebugAddr starts an HTTP listener serving /metrics (Prometheus
	// text format), /statz (the WorkloadStats snapshot as JSON), and
	// /debug/pprof. Empty means no listener. Use DB.DebugAddr for the
	// bound address (":0" picks a free port) and DB.Close to stop it.
	DebugAddr string
	// DebugMetrics, when set, is called on each /metrics scrape and its
	// output appended after the engine's families (WithDebugMetrics).
	DebugMetrics func() []byte
	// DataDir makes the database durable: committed writes append to a
	// write-ahead log under this directory and Open recovers from it.
	// Empty (the default) keeps the engine fully in-memory.
	DataDir string
	// SyncEvery is the WAL group-commit batch: fsync after every nth
	// record (0 or 1 = every record).
	SyncEvery int
	// SyncInterval bounds a group-commit batch's unsynced lifetime with
	// a background fsync ticker; 0 disables it.
	SyncInterval time.Duration
	// CheckpointEvery auto-checkpoints after every n logged records;
	// 0 checkpoints only on explicit DB.Checkpoint calls.
	CheckpointEvery int
	// DrainTimeout bounds Close's wait for in-flight work; 0 waits
	// indefinitely.
	DrainTimeout time.Duration
	// walFault is the crash-chaos hook (withWALFaultInjector).
	walFault *faultinject.Injector
}

// OpenOption configures Open.
type OpenOption func(*OpenOptions)

// WithMaxConcurrent bounds how many queries execute at once (default:
// 8 × GOMAXPROCS; n < 0 disables admission control). Excess queries
// wait in a FIFO queue — see WithMaxQueued and WithAdmissionWait.
func WithMaxConcurrent(n int) OpenOption {
	return func(o *OpenOptions) { o.MaxConcurrent = n }
}

// WithMaxQueued bounds the admission wait queue (default:
// 4 × MaxConcurrent). A query arriving at a full queue returns
// ErrOverloaded immediately — load is shed, not stacked.
func WithMaxQueued(n int) OpenOption {
	return func(o *OpenOptions) { o.MaxQueued = n }
}

// WithAdmissionWait bounds how long a query may wait for an execution
// slot before it is shed with ErrOverloaded (default: indefinitely).
func WithAdmissionWait(d time.Duration) OpenOption {
	return func(o *OpenOptions) { o.AdmissionWait = d }
}

// WithSharedTupleLimit installs a DB-wide resident-tuple budget shared
// by all concurrent queries: per-query WithTupleLimit guards still
// apply, but the sum across in-flight queries may never exceed n — the
// query whose allocation crosses the line aborts with ErrMemoryLimit
// (alias ErrTupleLimit), and its charge is released when it finishes.
func WithSharedTupleLimit(n int64) OpenOption {
	return func(o *OpenOptions) { o.SharedTupleLimit = n }
}

// WithPlanCacheSize bounds the plan cache to n bytes (default 4 MiB;
// n < 0 disables the tier). Cached plans are keyed by normalized SQL,
// strategy, null mode, and catalog version — see DESIGN.md §8.
func WithPlanCacheSize(n int64) OpenOption {
	return func(o *OpenOptions) { o.PlanCacheBytes = n }
}

// WithResultCacheSize bounds the result cache to n bytes (default
// 16 MiB; n < 0 disables the tier). Cached results are keyed by
// physical-plan fingerprint, strategy, and the version of every
// referenced table, so a hit is always byte-identical to a fresh
// execution; cached tuples are additionally charged against the shared
// tuple budget when one is configured (WithSharedTupleLimit).
func WithResultCacheSize(n int64) OpenOption {
	return func(o *OpenOptions) { o.ResultCacheBytes = n }
}

// WithoutCache disables both cache tiers: every query parses, plans,
// and executes from scratch. Results are byte-identical either way; the
// benchmarks use this to measure execution rather than cache hits.
func WithoutCache() OpenOption {
	return func(o *OpenOptions) { o.DisableCache = true }
}

// WithoutTelemetry disables the workload-statistics layer (statement
// registry, latency histograms, slow-query log). On by default; the
// telemetry hot path is allocation-free, so disabling it is for
// measuring the engine's floor, not for everyday use.
func WithoutTelemetry() OpenOption {
	return func(o *OpenOptions) { o.DisableTelemetry = true }
}

// WithSlowQueryThreshold arms the slow-query ring buffer: every
// executed query at or over d is captured — SQL, strategy, path,
// elapsed time, and the ANALYZE-annotated physical plan — and kept in a
// fixed-size ring readable via WorkloadStats (or \slow in the REPL).
// Arming the threshold turns on per-operator metrics collection for
// every query, so offenders always carry an annotated plan.
func WithSlowQueryThreshold(d time.Duration) OpenOption {
	return func(o *OpenOptions) { o.SlowQueryThreshold = d }
}

// WithDebugAddr starts a debug HTTP listener on addr serving /metrics
// (Prometheus text format), /statz (WorkloadStats as JSON), and
// /debug/pprof (the standard profiles). ":0" binds a free port;
// DB.DebugAddr reports the bound address or the bind error, and
// DB.Close shuts the listener down gracefully.
func WithDebugAddr(addr string) OpenOption {
	return func(o *OpenOptions) { o.DebugAddr = addr }
}

// WithDebugMetrics appends f's output to every /metrics scrape, after
// the engine's own families. f must return complete Prometheus
// text-format families and be safe for concurrent calls; disqod uses
// this to publish its session and connection gauges on the same page
// as the engine's. Only meaningful together with WithDebugAddr.
func WithDebugMetrics(f func() []byte) OpenOption {
	return func(o *OpenOptions) { o.DebugMetrics = f }
}

// Open creates a database. With no options the engine is fully
// in-memory (volatile) and Open never fails; the admission gate admits
// 8×GOMAXPROCS concurrent queries, queues 4× more, waits without a
// budget, installs no shared tuple budget, and enables a 4 MiB plan
// cache and a 16 MiB result cache.
//
// With WithDataDir, Open recovers the directory's committed state
// before returning: it loads the newest valid snapshot, replays the
// write-ahead log's tail through the serialized write path, silently
// truncates a torn final record, and fails with a *RecoveryError for
// damage a crash cannot explain (DESIGN.md §13).
func Open(opts ...OpenOption) (*DB, error) {
	var o OpenOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 8 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueued == 0 && o.MaxConcurrent > 0 {
		o.MaxQueued = 4 * o.MaxConcurrent
	}
	db := &DB{
		cat:          catalog.New(),
		gate:         newGate(o.MaxConcurrent, o.MaxQueued, o.AdmissionWait),
		start:        time.Now(),
		drainTimeout: o.DrainTimeout,
	}
	if !o.DisableTelemetry {
		db.tele = telemetry.New(telemetry.Config{SlowThreshold: o.SlowQueryThreshold})
	}
	if o.SharedTupleLimit > 0 {
		db.budget = exec.NewBudget(o.SharedTupleLimit)
	}
	if !o.DisableCache {
		if o.PlanCacheBytes == 0 {
			o.PlanCacheBytes = defaultPlanCacheBytes
		}
		if o.ResultCacheBytes == 0 {
			o.ResultCacheBytes = defaultResultCacheBytes
		}
		if o.PlanCacheBytes > 0 {
			db.pcache = cache.NewPlanCache(o.PlanCacheBytes)
		}
		if o.ResultCacheBytes > 0 {
			// Method values on a nil *Budget are valid: TryCharge then
			// always admits and Release is a no-op.
			db.rcache = cache.NewResultCache(o.ResultCacheBytes,
				db.budget.TryCharge, db.budget.Release)
		}
	}
	if o.DataDir != "" {
		if err := db.openDurable(o); err != nil {
			return nil, err
		}
	}
	if o.DebugAddr != "" {
		db.debugExtra = o.DebugMetrics
		db.debug, db.debugErr = startDebugServer(db, o.DebugAddr)
	}
	return db, nil
}

// DebugAddr returns the debug HTTP listener's bound address (useful
// with WithDebugAddr(":0")), or the bind error if the listener failed
// to start. Without WithDebugAddr both returns are zero.
func (db *DB) DebugAddr() (string, error) {
	if db.debugErr != nil {
		return "", db.debugErr
	}
	if db.debug == nil {
		return "", nil
	}
	return db.debug.addr(), nil
}

// Close lives in durability.go: it drains in-flight work (bounded by
// WithDrainTimeout), rejects new admissions with ErrClosed, syncs and
// closes the WAL, and stops the debug listener.

// Views lists the defined view names.
func (db *DB) Views() []string {
	views := db.cat.Snapshot().Views()
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v.Name
	}
	return out
}

// CreateTable defines a new table. Tables and views share one name
// space: the name must be free of both.
func (db *DB) CreateTable(name string, cols []Column) error {
	_, err := db.do(createTable(name, cols))
	return err
}

// DropTable removes a table.
func (db *DB) DropTable(name string) error {
	_, err := db.do(dropTable(name))
	return err
}

// Tables lists the defined table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// Insert appends rows to a table. The insert is atomic: either every
// row commits as one new table version, or (on a type error) none do,
// and concurrent queries keep reading the previous version throughout.
// On a durable DB the rows are logged in binary form (not as SQL text),
// so values round-trip exactly.
func (db *DB) Insert(table string, rows ...[]Value) error {
	_, err := db.do(insertRows(table, rows))
	return err
}

// RowCount returns the number of rows in a table.
func (db *DB) RowCount(table string) (int, error) {
	tbl, err := db.cat.Lookup(table)
	if err != nil {
		return 0, err
	}
	return tbl.Rel.Cardinality(), nil
}

// LoadRST generates the paper's synthetic R, S, T tables at the given
// scale factors (SF 1 = 10,000 rows). Datagen is seeded and
// deterministic, so a durable DB logs just the generator config.
func (db *DB) LoadRST(sfR, sfS, sfT float64) error {
	_, err := db.do(loadRST(datagen.RSTConfig{SFR: sfR, SFS: sfS, SFT: sfT}))
	return err
}

// LoadTPCH generates TPC-H tables at the given scale factor. With no
// table names it generates the five tables Query 2d touches; pass
// datagen table names (or "all") for more.
func (db *DB) LoadTPCH(sf float64, tables ...string) error {
	cfg := datagen.TPCHConfig{SF: sf}
	if len(tables) == 1 && tables[0] == "all" {
		cfg.Tables = datagen.TPCHAllTables
	} else if len(tables) > 0 {
		cfg.Tables = tables
	}
	_, err := db.do(loadTPCH(cfg))
	return err
}

// queryConfig carries per-query options: what the executor is told —
// the With* options set exec.Options' fields directly, execOptions adds
// the DB's budget and the strategy's cache mode — plus what only the
// root acts on.
type queryConfig struct {
	exec.Options
	strategy Strategy
	// nulls selects whether planStmt translates the query to two-valued
	// logic, and so is part of the plan key; execution never reads it.
	nulls NullMode
	// analyze marks an Analyze call: it always executes, so the result
	// cache is bypassed, as it is for a traced query.
	analyze bool
	// began anchors the telemetry-observed wall time at API entry, so
	// recorded latencies include planning and cache lookups — what the
	// caller actually waited.
	began time.Time
}

// newQueryConfig is the per-call default: unnested strategy, compiled
// expression programs, three-valued logic — all a write's WHERE and SET
// ever run under, so replaying a logged statement writes what it wrote.
func (db *DB) newQueryConfig() queryConfig {
	return queryConfig{Options: exec.Options{Path: PathVector}, strategy: Unnested, nulls: ThreeValuedNulls}
}

// enter is the prologue of every query entry point: it joins the close
// drain (on success the caller defers db.end), folds the call's options
// over the defaults and anchors the observed wall time.
func (db *DB) enter(opts []Option) (queryConfig, error) {
	if err := db.begin(); err != nil {
		return queryConfig{}, err
	}
	cfg := db.newQueryConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.strategy == "" {
		cfg.strategy = Unnested
	}
	cfg.began = time.Now()
	if db.tele.SlowThreshold() > 0 {
		// Armed slow log: collect per-operator metrics on every query so
		// an offender always carries its annotated plan.
		cfg.Metrics = true
	}
	return cfg, nil
}

// Option configures a single Query or Explain call.
type Option func(*queryConfig)

// ExecutionPath selects the executor's expression evaluator. There is
// one executor; both evaluators drive the same operators and produce
// byte-identical results.
type ExecutionPath = exec.Path

const (
	// PathRow interprets every expression per row.
	PathRow = exec.PathRow
	// PathVector runs the planner's compiled columnar programs per
	// morsel where it produced them, interpreting the rest (the default).
	PathVector = exec.PathVector
)

// WithExecutionPath is the differential-test hook, not a product mode:
// no flag, wire field or session default reaches it. PathRow makes every
// filter, σ± and χ interpret its expression instead of running the
// compiled program, which is how path_test.go, FuzzQuery, the chaos
// sweep and internal/scenario vote the interpreter against the compiled
// programs. The result cache keys on it.
func WithExecutionPath(p ExecutionPath) Option {
	return func(c *queryConfig) { c.Path = p }
}

// WithMorselSize sets the chunk length hot operators split their input
// into (default exec.DefaultMorselSize, 1024). Values are clamped to
// [exec.MinMorselSize, exec.MaxMorselSize]; the morsel is the unit of
// work between cancellation polls, so the bound is also a cancellation
// latency guarantee. It never changes a result: results, float
// aggregates included, are byte-identical at every worker count and
// every morsel size.
func WithMorselSize(n int) Option {
	return func(c *queryConfig) { c.MorselSize = n }
}

// WithStrategy selects the optimization strategy (default Unnested).
func WithStrategy(s Strategy) Option {
	return func(c *queryConfig) { c.strategy = s }
}

// WithNullMode sets the null mode for one query. TwoValuedNulls
// translates the query before it is optimized, so the plan cache keys
// on the mode; the result cache does not, since a translated plan that
// differs fingerprints differently. Any other mode, the zero value
// included, is ThreeValuedNulls (the default).
func WithNullMode(m NullMode) Option {
	if m != TwoValuedNulls {
		m = ThreeValuedNulls
	}
	return func(c *queryConfig) { c.nulls = m }
}

// WithTimeout aborts evaluation after d (default: no limit). Timed-out
// queries return ErrTimeout.
func WithTimeout(d time.Duration) Option {
	return func(c *queryConfig) { c.Timeout = d }
}

// WithTupleLimit aborts evaluation with ErrMemoryLimit once more than n
// tuples have been materialized (default: no limit) — a guard against
// plans whose intermediate results outgrow memory.
func WithTupleLimit(n int64) Option {
	return func(c *queryConfig) { c.MaxTuples = n }
}

// WithWorkers sets the morsel-parallel worker pool size (default:
// GOMAXPROCS). Hot operators — scans, filters, both σ± streams, hash
// join build and probe, grouping — split large inputs into fixed-size
// morsels claimed by the pool; 1 forces sequential execution. Results
// are deterministic: every worker count produces byte-identical output.
func WithWorkers(n int) Option {
	return func(c *queryConfig) { c.Workers = n }
}

// WithMetrics enables per-operator runtime metrics collection for the
// call; the report is available from Result.Metrics. Off by default —
// collection adds per-operator bookkeeping to execution. Analyze
// enables it implicitly.
func WithMetrics() Option {
	return func(c *queryConfig) { c.Metrics = true }
}

// WithTracer streams operator open/morsel/close spans to t during
// execution (default: none). The tracer must be safe for concurrent
// use; morsel workers emit events in parallel.
func WithTracer(t Tracer) Option {
	return func(c *queryConfig) { c.Tracer = t }
}

// WithContext attaches a cancellation context to the query: every
// morsel worker polls it at morsel boundaries (and in the periodic
// in-loop tick), so cancelling returns within roughly one morsel's
// worth of work with ctx.Err() wrapped in a *QueryError.
// db.QueryContext(ctx, sql) is shorthand for Query(sql,
// WithContext(ctx)).
func WithContext(ctx context.Context) Option {
	return func(c *queryConfig) { c.Ctx = ctx }
}

// withFaultInjector wires a deterministic fault injector
// (internal/faultinject) into execution. Unexported on purpose: it is
// the chaos-test hook, not public API.
func withFaultInjector(fi *faultinject.Injector) Option {
	return func(c *queryConfig) { c.Fault = fi }
}

// ErrTimeout is returned when a query exceeds its WithTimeout deadline.
var ErrTimeout = exec.ErrTimeout

// ErrMemoryLimit is returned when a query materializes more tuples than
// its WithTupleLimit budget.
var ErrMemoryLimit = exec.ErrMemoryLimit

// Result is a query result: column names, rows, and execution counters.
type Result struct {
	Columns []string
	// Rows are the result rows. They may be shared with the engine — a
	// row can be a stored table row, or a prefix of one, and the same
	// rows serve a later result-cache hit — and are read-only: rows are
	// immutable once built, which is also why later writes to the tables
	// never change them. Rows an operator built may share one backing
	// chunk of at most one morsel's rows (each row's capacity is its
	// length, so appending to one copies it), and retaining one row
	// retains its chunk.
	Rows [][]Value
	// Stats counts the work performed (comparisons, tuples, subquery
	// evaluations), letting callers compare strategies analytically.
	Stats exec.Stats
	// Rewrites lists the equivalences the optimizer applied.
	Rewrites []string
	// Elapsed is the wall-clock execution time (excluding parse and
	// optimization).
	Elapsed time.Duration
	// metrics is the per-operator report, set when WithMetrics was on.
	metrics *PlanMetrics
}

// Metrics returns the per-operator runtime report, or nil unless the
// query ran with WithMetrics.
func (r *Result) Metrics() *PlanMetrics { return r.metrics }

// String renders the result as an aligned text table.
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for k := len(v); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}

// execOptions completes a query's executor options with the DB's shared
// tuple budget and the strategy's memoization mode.
func (db *DB) execOptions(cfg queryConfig) exec.Options {
	opt := cfg.Options
	opt.Budget = db.budget
	switch cfg.strategy {
	case S1:
		opt.Cache = exec.CacheNone
	case Canonical, S3, S2:
		// Conventional engines keep base-table pages resident (buffer
		// pool) but rebuild intermediate results per outer tuple.
		opt.Cache = exec.CacheScans
	default:
		opt.Cache = exec.CacheAll
	}
	return opt
}

// Exec runs a DDL or DML statement: CREATE/DROP TABLE, CREATE/DROP
// VIEW, INSERT, UPDATE, or DELETE. It returns the number of rows
// affected. Statements are serialized with each other (one writer at a
// time, each a little read-compute-swap transaction) but never block
// concurrent queries: each statement commits a new table version
// atomically, and in-flight snapshot readers keep the version they
// pinned.
func (db *DB) Exec(sql string) (int, error) {
	w, err := execSQL(sql)
	if err != nil {
		return 0, err
	}
	return db.do(w)
}

// Query parses, optimizes and executes a SQL statement. The query plans
// and runs against an immutable catalog snapshot pinned at entry, so
// its result reflects exactly one committed state no matter how much DML
// commits while it runs. Execution failures — timeout, tuple budget,
// cancellation, admission shedding, a recovered panic — are returned as
// a *QueryError; parse and planning errors are not wrapped.
//
// Repeated statements are served from the caches unless Open disabled
// them: the plan cache skips parse/translate/rewrite/lower for a statement
// already planned at this catalog version, and the result cache skips
// execution entirely when an identical physical plan already ran
// against the same table versions — the served rows are byte-identical
// to what a fresh execution would produce. Cache hits (and queries that
// join a concurrent identical execution via single-flight) do not pass
// the admission gate; only real executions consume slots.
func (db *DB) Query(sql string, opts ...Option) (*Result, error) {
	cfg, err := db.enter(opts)
	if err != nil {
		return nil, err
	}
	defer db.end()
	res, _, err := db.query(sql, cfg)
	return res, err
}

// query is Query once entered: pin a snapshot, get the prepared plan,
// run it. It also returns the plan that ran, which Analyze renders.
func (db *DB) query(sql string, cfg queryConfig) (*Result, *prepared, error) {
	snap := db.cat.Snapshot()
	pp, hit, err := db.preparedFor(snap, sql, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := db.run(snap, sql, cfg, pp, hit)
	return res, pp, err
}

// QueryContext is Query with cancellation: it runs sql until ctx is
// done, then aborts within roughly one morsel's worth of work and
// returns ctx.Err() (context.Canceled or context.DeadlineExceeded)
// wrapped in a *QueryError. An explicit WithContext in opts overrides
// ctx.
func (db *DB) QueryContext(ctx context.Context, sql string, opts ...Option) (*Result, error) {
	return db.Query(sql, append([]Option{WithContext(ctx)}, opts...)...)
}

// Analyze executes the statement and returns the executed physical plan
// annotated per operator with estimated vs. actual cardinality, call
// counts, memo hits, and evaluation time (EXPLAIN ANALYZE). calls>1
// shows the per-outer-tuple re-evaluation that canonical nested plans
// pay and unnested plans avoid; every printed counter except time= is
// byte-identical for any worker count. It is a Query with metrics on
// that always executes (the plan cache serves it, the result cache is
// bypassed) and renders the report instead of the rows.
func (db *DB) Analyze(sql string, opts ...Option) (string, error) {
	cfg, err := db.enter(opts)
	if err != nil {
		return "", err
	}
	defer db.end()
	cfg.Metrics, cfg.analyze = true, true
	res, pp, err := db.query(sql, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s   nulls: %s   rows: %d   elapsed: %s\n",
		cfg.strategy, cfg.nulls, len(res.Rows), res.Elapsed.Round(time.Microsecond))
	fmt.Fprintf(&b, "comparisons: %d   tuples: %d   subquery evals: %d   peak resident: %d\n\n",
		res.Stats.Comparisons, res.Stats.TuplesOut, res.Stats.SubqueryEvals, res.Stats.PeakTuples)
	annot := analyzeAnnot(res.metrics)
	b.WriteString("== physical plan (analyzed) ==\n")
	b.WriteString(physical.ExplainAnnotated(pp.phys.Root, annot))
	// Nested plans keep subqueries inside operator expressions; their
	// physical plans execute once per outer binding, so calls>1 here is
	// exactly the repetition unnesting removes.
	for i, n := range pp.blocks {
		fmt.Fprintf(&b, "\n-- subquery plan %d (evaluated per outer binding) --\n", i+1)
		b.WriteString(physical.ExplainAnnotated(n, annot))
	}
	if len(res.Rewrites) > 0 {
		b.WriteString("\nrewrites:\n")
		for _, tr := range res.Rewrites {
			fmt.Fprintf(&b, "  - %s\n", tr)
		}
	}
	return b.String(), nil
}

// Explain returns a textual description of the plan a strategy would
// execute: the canonical translation, the optimized logical plan, the
// physical plan the executor would run (algorithm choices and estimated
// cardinalities), and the list of applied rewrites.
func (db *DB) Explain(sql string, opts ...Option) (string, error) {
	cfg, err := db.enter(opts)
	if err != nil {
		return "", err
	}
	defer db.end()
	st, err := db.Prepare(sql) // the parse; the plan is built below, uncached
	if err != nil {
		return "", err
	}
	snap := db.cat.Snapshot()
	pp, canonical, err := db.planStmt(snap, st.stmt, cache.PlanKey{}, cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", cfg.strategy)
	fmt.Fprintf(&b, "nulls: %s\n", cfg.nulls)
	fmt.Fprintf(&b, "nesting structure: %s\n\n", translate.ClassifyStructure(st.stmt))
	b.WriteString("== canonical plan ==\n")
	b.WriteString(algebra.Explain(canonical))
	if cfg.strategy != Canonical && cfg.strategy != S1 {
		est := stats.New(snap)
		b.WriteString("\n== optimized plan ==\n")
		b.WriteString(algebra.ExplainAnnotated(pp.logical, func(op algebra.Op) string {
			return fmt.Sprintf("(est %.0f rows)", est.Cardinality(op))
		}))
	}
	b.WriteString("\n== physical plan ==\n")
	b.WriteString(physical.ExplainAnnotated(pp.phys.Root, func(n physical.Node) string {
		path := "row"
		if cfg.Path == PathVector && physical.Vectorizable(n) {
			path = "vector"
		}
		return fmt.Sprintf("(est %.0f rows) [path=%s]", n.EstRows(), path)
	}))
	if len(pp.trace) > 0 {
		b.WriteString("\n== applied rewrites ==\n")
		for _, tr := range pp.trace {
			fmt.Fprintf(&b, "  - %s\n", tr)
		}
	}
	return b.String(), nil
}
