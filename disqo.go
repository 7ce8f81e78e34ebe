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
// Query strategies:
//
//	Unnested   — the paper's full strategy (Equivalences 1–5, default)
//	Canonical  — nested-loop evaluation of the canonical plan
//	CostBased  — estimate canonical vs. reordered vs. unnested, run the cheapest
package disqo

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
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
	"disqo/internal/strategy"
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
	Unnested Strategy = strategy.Unnested
	// Canonical evaluates the canonical nested plan, memoizing base-table
	// scans only (a buffer-pool-resident inner relation): every inner
	// block is re-evaluated per outer tuple.
	Canonical Strategy = strategy.Canonical
	// CostBased estimates the cost of the canonical, reordered and
	// unnested plans and executes the cheapest — the cost-based
	// application of the equivalences the paper's introduction calls
	// for ("some unnesting strategies do not always result in better
	// plans").
	CostBased Strategy = strategy.CostBased
)

// ParseStrategy resolves a strategy by its name. It is the "strategy"
// setting's parser: flags, \set and wire requests reach it through
// SettingsTable.
func ParseStrategy(name string) (Strategy, bool) {
	if r, err := strategy.Lookup(name); err == nil && !r.Baseline {
		return Strategy(name), true
	}
	return "", false
}

// strategyNames are the strategy setting's legal values.
func strategyNames() []string {
	var out []string
	for _, r := range strategy.Rows() {
		if !r.Baseline {
			out = append(out, r.Name)
		}
	}
	return out
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

// ParseNullMode resolves a mode by its name, the spelling EXPLAIN
// prints. It is the "nulls" setting's parser (SettingsTable).
func ParseNullMode(name string) (NullMode, bool) {
	m := NullMode(name)
	return m, m == ThreeValuedNulls || m == TwoValuedNulls
}

// A Setting is a per-query option that a session holds by name. The
// shells' flags and \set, the wire's settings object, disqod's sessions
// and Client.Set reach options only through this table and Settings, so
// none of them names a setting, and a new setting is an entry here and
// its With* option.
type Setting struct {
	// Name is the one spelling: flag, \set and wire key.
	Name string
	// Values are the legal values; Default is what a query runs under
	// when nothing sets it.
	Values         []string
	Default, Usage string
	// parse resolves a value to the option it yields; false rejects it.
	parse func(string) (Option, bool)
}

var settingsTable = []Setting{
	{Name: "strategy", Values: strategyNames(), Default: string(Unnested),
		Usage: "evaluation strategy", parse: parser(ParseStrategy, WithStrategy)},
	{Name: "nulls", Values: []string{string(ThreeValuedNulls), string(TwoValuedNulls)}, Default: string(ThreeValuedNulls),
		Usage: "null semantics; 2vl makes comparisons with NULL false", parse: parser(ParseNullMode, WithNullMode)},
}

func parser[T any](parse func(string) (T, bool), with func(T) Option) func(string) (Option, bool) {
	return func(v string) (Option, bool) {
		x, ok := parse(v)
		return with(x), ok
	}
}

// SettingsTable lists every setting in the order their options apply.
// The slice is shared: do not modify it.
func SettingsTable() []Setting { return settingsTable }

// Settings are the settings set so far, by name: what a session applies
// to each of its queries. A Settings is immutable — With returns a new
// one — and builds its options once per change, so Options allocates
// nothing. The zero value has nothing set.
type Settings struct {
	values map[string]string
	opts   []Option
}

// With returns s with pairs set, all or nothing: an unknown name or a
// value its setting rejects is an error, and s is returned unchanged.
func (s Settings) With(pairs map[string]string) (Settings, error) {
	if len(pairs) == 0 {
		return s, nil
	}
	for name, v := range pairs {
		i := slices.IndexFunc(settingsTable, func(st Setting) bool { return st.Name == name })
		if i < 0 {
			return s, fmt.Errorf("unknown setting %q", name)
		}
		if _, ok := settingsTable[i].parse(v); !ok {
			return s, fmt.Errorf("bad %s %q (want %s)", name, v, strings.Join(settingsTable[i].Values, "|"))
		}
	}
	next := Settings{values: map[string]string{}}
	for _, st := range settingsTable {
		// No legal value is empty.
		if v := cmp.Or(pairs[st.Name], s.values[st.Name]); v != "" {
			o, _ := st.parse(v)
			next.values[st.Name], next.opts = v, append(next.opts, o)
		}
	}
	return next, nil
}

// Options returns the options s yields, in table order. Appending to
// the result copies it.
func (s Settings) Options() []Option { return s.opts[:len(s.opts):len(s.opts)] }

// String lists every setting's value in table order, defaults included:
// "unnested,3vl".
func (s Settings) String() string {
	vs := make([]string, len(settingsTable))
	for i, st := range settingsTable {
		vs[i] = cmp.Or(s.values[st.Name], st.Default)
	}
	return strings.Join(vs, ",")
}

// DB is an in-memory database: a catalog of tables plus query machinery.
// It is safe for concurrent use: queries pin an immutable catalog
// snapshot at plan time (snapshot-isolated reads — an in-flight query
// never observes a torn write), DML and DDL build new table versions
// copy-on-write and commit them atomically, and an admission gate sheds
// excess concurrent queries with ErrOverloaded instead of thrashing.
// See the OpenOption set (WithMaxConcurrent, WithSharedTupleLimit) and
// README "Concurrency & overload". The data loaders (LoadRST, LoadTPCH)
// are the one exception: run them during setup, before serving
// concurrent traffic.
type DB struct {
	// cat is the committed state, tables and views: a query pins one
	// commit of it with Snapshot.
	cat *catalog.Catalog

	// writeMu serializes writes (commit in write.go; also checkpoints).
	// Readers never take it.
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
	// event flows through. See DB.WorkloadStats and DESIGN.md §12.
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
}

// openOptions holds what the OpenOption values given to Open set, one
// field per option (WithMaxConcurrent sets maxConcurrent, WithoutCache
// disableCache, and so on); each field's zero value selects the default
// its option documents.
type openOptions struct {
	maxConcurrent      int
	sharedTupleLimit   int64
	resultCacheBytes   int64
	disableCache       bool
	slowQueryThreshold time.Duration
	debugAddr          string
	debugMetrics       func() []byte
	dataDir            string
	syncEvery          int
	syncInterval       time.Duration
	checkpointEvery    int
	drainTimeout       time.Duration
	// walFault is the crash-chaos hook (withWALFaultInjector).
	walFault *faultinject.Injector
	// maxQueued and planCacheBytes replace the defaults (4 ×
	// maxConcurrent, 4 MiB) for tests that need a short queue or a
	// small plan cache (withMaxQueued, withPlanCacheSize); a negative
	// value means none.
	maxQueued      int
	planCacheBytes int64
}

// OpenOption configures Open.
type OpenOption func(*openOptions)

// WithMaxConcurrent bounds how many queries execute at once (default:
// 8 × GOMAXPROCS; n < 0 disables admission control). Up to 4n more wait
// in a FIFO queue until a slot opens or their context is done; a query
// arriving at a full queue returns ErrOverloaded immediately — load is
// shed, not stacked.
func WithMaxConcurrent(n int) OpenOption {
	return func(o *openOptions) { o.maxConcurrent = n }
}

// WithSharedTupleLimit installs a DB-wide resident-tuple budget shared
// by all concurrent queries: per-query WithTupleLimit guards still
// apply, but the sum across in-flight queries may never exceed n — the
// query whose allocation crosses the line aborts with ErrMemoryLimit
// (alias ErrTupleLimit), and its charge is released when it finishes.
func WithSharedTupleLimit(n int64) OpenOption {
	return func(o *openOptions) { o.sharedTupleLimit = n }
}

// WithResultCacheSize bounds the result cache to n bytes (default
// 16 MiB; n < 0 disables the tier). Cached results are keyed by
// physical-plan fingerprint, strategy, and the version of every
// referenced table, so a hit is always byte-identical to a fresh
// execution; cached tuples are additionally charged against the shared
// tuple budget when one is configured (WithSharedTupleLimit).
func WithResultCacheSize(n int64) OpenOption {
	return func(o *openOptions) { o.resultCacheBytes = n }
}

// WithoutCache disables both cache tiers — the 4 MiB plan cache, keyed
// by normalized SQL, settings and catalog version (DESIGN.md §8), and
// the result cache: every query parses, plans, and executes from
// scratch. Results are byte-identical either way; the benchmarks use
// this to measure execution rather than cache hits.
func WithoutCache() OpenOption {
	return func(o *openOptions) { o.disableCache = true }
}

// WithSlowQueryThreshold arms the slow-query ring buffer: every
// executed query at or over d is captured — SQL, strategy, path,
// elapsed time, and the ANALYZE-annotated physical plan — and kept in a
// fixed-size ring readable via WorkloadStats (or \slow in the REPL).
// Arming the threshold turns on per-operator metrics collection for
// every query, so offenders always carry an annotated plan.
func WithSlowQueryThreshold(d time.Duration) OpenOption {
	return func(o *openOptions) { o.slowQueryThreshold = d }
}

// WithDebugAddr starts a debug HTTP listener on addr serving /metrics
// (Prometheus text format), /statz (WorkloadStats as JSON), and
// /debug/pprof (the standard profiles). ":0" binds a free port;
// DB.DebugAddr reports the bound address or the bind error, and
// DB.Close shuts the listener down gracefully.
func WithDebugAddr(addr string) OpenOption {
	return func(o *openOptions) { o.debugAddr = addr }
}

// WithDebugMetrics appends f's output to every /metrics scrape, after
// the engine's own families. f must return complete Prometheus
// text-format families and be safe for concurrent calls; disqod uses
// this to publish its session and connection gauges on the same page
// as the engine's. Only meaningful together with WithDebugAddr.
func WithDebugMetrics(f func() []byte) OpenOption {
	return func(o *openOptions) { o.debugMetrics = f }
}

// Open creates a database. With no options the engine is fully
// in-memory (volatile) and Open never fails; the admission gate admits
// 8×GOMAXPROCS concurrent queries and queues 4× more, installs no
// shared tuple budget, enables a 4 MiB plan cache and a 16 MiB result
// cache, and collects workload statistics (DB.WorkloadStats).
//
// With WithDataDir, Open recovers the directory's committed state
// before returning: it loads the newest valid snapshot, replays the
// write-ahead log's tail through the serialized write path, silently
// truncates a torn final record, and fails with a *RecoveryError for
// damage a crash cannot explain (DESIGN.md §13).
func Open(opts ...OpenOption) (*DB, error) {
	var o openOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.maxConcurrent == 0 {
		o.maxConcurrent = 8 * runtime.GOMAXPROCS(0)
	}
	if o.maxQueued == 0 {
		o.maxQueued = 4 * o.maxConcurrent
	}
	db := &DB{
		cat:          catalog.New(),
		gate:         newGate(o.maxConcurrent, o.maxQueued),
		tele:         telemetry.New(o.slowQueryThreshold),
		start:        time.Now(),
		drainTimeout: o.drainTimeout,
	}
	if o.sharedTupleLimit > 0 {
		db.budget = exec.NewBudget(o.sharedTupleLimit)
	}
	if !o.disableCache {
		if o.planCacheBytes == 0 {
			o.planCacheBytes = defaultPlanCacheBytes
		}
		if o.resultCacheBytes == 0 {
			o.resultCacheBytes = defaultResultCacheBytes
		}
		if o.planCacheBytes > 0 {
			db.pcache = cache.NewPlanCache(o.planCacheBytes)
		}
		if o.resultCacheBytes > 0 {
			// Method values on a nil *Budget are valid: TryCharge then
			// always admits and Release is a no-op.
			db.rcache = cache.NewResultCache(o.resultCacheBytes,
				db.budget.TryCharge, db.budget.Release)
		}
	}
	if o.dataDir != "" {
		if err := db.openDurable(o); err != nil {
			return nil, err
		}
	}
	if o.debugAddr != "" {
		db.debugExtra = o.debugMetrics
		db.debug, db.debugErr = startDebugServer(db, o.debugAddr)
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
// filter, χ and Γ² interpret its expressions instead of running the
// compiled program, which is how path_test.go, FuzzQuery, the chaos
// sweep and internal/scenario vote the interpreter against the compiled
// programs. The result cache keys on it.
func WithExecutionPath(p ExecutionPath) Option {
	return func(c *queryConfig) { c.Path = p }
}

// WithStrategy selects the optimization strategy (default Unnested). It
// runs any strategy internal/strategy defines, the figure harness's
// baselines too; the strategy setting offers only the exported ones.
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
// GOMAXPROCS). Hot operators — scans, filters, hash join build and
// probe, grouping and binary grouping — split large inputs into fixed-size
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
	row, _ := strategy.Lookup(string(cfg.strategy))
	opt.Cache = row.Cache
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
	if row, _ := strategy.Lookup(string(cfg.strategy)); row.Plan != nil {
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
