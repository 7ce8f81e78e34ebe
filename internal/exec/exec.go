// Package exec evaluates physical plans (internal/physical) against a
// catalog. The executor is an interpreter over materialized relations:
// RunPlan evaluates the lowered plan it is handed — the physical planner
// owns every algorithm choice — memoizing shared DAG subplans and
// spreading the hot per-tuple loops over a morsel-parallel worker pool
// (Options.Workers). Run is "lower, then the same evaluation" for the
// callers that hold only a logical plan.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/faultinject"
	"disqo/internal/physical"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// ErrTimeout is returned when a query exceeds the executor deadline — the
// harness's equivalent of the paper's six-hour experiment cutoff ("n/a").
var ErrTimeout = errors.New("exec: query deadline exceeded")

// ErrMemoryLimit is returned when a query materializes more tuples than
// Options.MaxTuples allows — the in-memory engine's equivalent of
// spilling until the experiment is aborted.
var ErrMemoryLimit = errors.New("exec: tuple budget exceeded")

// CacheMode controls how much of a nested subquery's evaluation is
// memoized across outer tuples. Top-level DAG sharing is always memoized
// regardless of mode.
type CacheMode uint8

const (
	// CacheNone re-evaluates everything per outer tuple — the weakest
	// baseline (S1): not even base-table pages stay warm.
	CacheNone CacheMode = iota
	// CacheScans memoizes base-table scans only — the buffer-pool
	// behavior of a conventional engine evaluating a canonical plan:
	// pages stay resident but intermediate join results are rebuilt for
	// every outer tuple.
	CacheScans
	// CacheAll memoizes every uncorrelated subplan: type-A subqueries
	// and the invariant parts of unnested plans materialize once.
	CacheAll
)

// Options tune the executor. The zero value is the weakest baseline: no
// caching at all, one worker per CPU.
type Options struct {
	// Cache selects how much cross-tuple memoization happens during
	// correlated subquery evaluation.
	Cache CacheMode
	// Timeout aborts evaluation with ErrTimeout when exceeded; zero
	// means no limit.
	Timeout time.Duration
	// MaxTuples aborts evaluation with ErrMemoryLimit once the number of
	// simultaneously resident tuples (memoized results plus the output
	// being built) exceeds it; zero means no limit. Transient per-tuple
	// subquery results do not count — they are released immediately.
	MaxTuples int64
	// Workers is the morsel-parallel worker pool size; <= 0 means
	// GOMAXPROCS. Hot operators split inputs of at least two morsels
	// across the pool; 1 disables parallelism.
	Workers int
	// MorselSize is the chunk length workers claim from the shared
	// counter; <= 0 means DefaultMorselSize (1024). Values are clamped
	// to [MinMorselSize, MaxMorselSize]: the morsel is the unit of work
	// between cancellation polls, so the upper bound caps cancellation
	// latency while the lower bound keeps scheduling overhead amortized.
	// It never changes a result: every operator's output, float
	// aggregates included, is byte-identical at every worker count and
	// every morsel size (Γ folds each group once, in input order).
	MorselSize int
	// Path selects the expression evaluator (see Path): PathRow
	// interprets every expression — the reference the differential
	// tests vote with — and PathVector runs the planner's compiled
	// programs where it produced them. The operators are the same and
	// the results byte-identical.
	Path Path
	// Metrics enables per-operator runtime counters (NodeMetrics),
	// read back through Executor.NodeMetrics after Run. Off by default:
	// the disabled path adds no allocations to the hot loops.
	Metrics bool
	// Tracer receives operator open/morsel/close events; nil disables
	// tracing at zero cost.
	Tracer Tracer
	// Ctx cancels evaluation when done: the executor polls it in the
	// periodic tick, at every morsel boundary, and on entry to Run,
	// failing the query with ctx.Err() (context.Canceled or
	// context.DeadlineExceeded). nil means no external cancellation.
	Ctx context.Context
	// Fault is the deterministic fault-injection hook
	// (internal/faultinject), visited at operator entry, morsel
	// boundaries, and memo fills. nil disables injection; the disabled
	// path costs one branch per visit.
	Fault *faultinject.Injector
	// Budget, when set, charges this query's resident tuples against a
	// DB-wide budget shared with every concurrent query; crossing the
	// shared limit aborts with ErrMemoryLimit. The charge is released by
	// Executor.Close. nil disables shared accounting.
	Budget *Budget
}

// Stats counts work done by one execution, letting tests and benchmarks
// compare strategies by effort rather than wall clock alone. Under
// parallel execution the counters are sharded per worker and merged
// after every parallel region, so totals are worker-count independent.
type Stats struct {
	Comparisons   int64 // predicate comparisons evaluated
	TuplesOut     int64 // tuples materialized across all operators
	SubqueryEvals int64 // nested subquery evaluations (scalar + quantified)
	HashJoins     int64 // joins executed by hashing
	NLJoins       int64 // joins executed by nested loops
	SortedGroups  int64 // binary groupings executed sort-based
	OpEvals       int64 // operator evaluations (after memoization)

	// PeakTuples is the high-water mark of simultaneously resident
	// tuples (memoized results plus the largest in-flight operator
	// output observed by the budget check) — the quantity
	// Options.MaxTuples limits, made observable. It is a gauge: merge
	// takes the max, not the sum.
	PeakTuples int64
	// Elapsed is the cumulative wall time spent inside Run — the
	// quantity Options.Timeout limits, made observable. Gauge: merge
	// takes the max (worker shards never set it).
	Elapsed time.Duration
}

// merge folds a worker shard into the parent's counters. Monotone
// counters sum; gauges (PeakTuples, Elapsed) take the max — summing a
// high-water mark across shards would overstate it.
func (s *Stats) merge(o *Stats) {
	s.Comparisons += o.Comparisons
	s.TuplesOut += o.TuplesOut
	s.SubqueryEvals += o.SubqueryEvals
	s.HashJoins += o.HashJoins
	s.NLJoins += o.NLJoins
	s.SortedGroups += o.SortedGroups
	s.OpEvals += o.OpEvals
	if o.PeakTuples > s.PeakTuples {
		s.PeakTuples = o.PeakTuples
	}
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// Executor evaluates plans against a catalog. One Executor owns one
// shared memo; worker clones created for parallel regions share it
// through sharedState and keep private Stats shards.
type Executor struct {
	cat   catalog.Reader
	opt   Options
	stats Stats
	sh    *sharedState

	// nm is this executor's per-operator metrics shard, indexed by
	// physical node ID; nil unless Options.Metrics is set. Worker clones
	// get private shards merged back by parMorsels.
	nm []NodeMetrics
	// cur is the node currently being evaluated; morsel and hash-build
	// events, injected faults, and recovered panics are attributed to
	// it. Tracking it is a pointer assignment per operator, so it is
	// maintained unconditionally.
	cur physical.Node

	deadline time.Time
	ticks    int
	msize    int  // validated Options.MorselSize (see New)
	isWorker bool // worker clones never fan out again (no nested pools)
}

// sharedState is the cross-worker state: the DAG/subquery memo (with a
// single-flight table deduplicating concurrent first evaluations) and
// the abort latch that propagates cancellation (timeout, budget, eval
// errors) to every worker. Its maps are made on first write, so a query
// that memoizes nothing makes none.
type sharedState struct {
	mu   sync.Mutex
	memo map[physical.Node]*storage.Relation

	// planner serves the callers that hold only a logical plan or
	// expression (Plan, Run, BindExpr): created on first use, guarded by
	// mu. An executor that only runs a lowered plan never makes one.
	planner *physical.Planner

	// flight marks cacheable evaluations in progress: the first arrival
	// evaluates, later arrivals wait on flightDone and re-check the
	// memo. Plan dependencies are acyclic, so waiting cannot deadlock,
	// and a set + cond (vs. a per-flight channel) keeps the memoized
	// path allocation-free.
	flight     map[physical.Node]bool
	flightDone sync.Cond // signaled under mu whenever a flight ends

	resident atomic.Int64 // tuples pinned by the memo
	peak     atomic.Int64 // high-water mark of resident (+ in-flight) tuples
	aborted  atomic.Bool  // latch polled by every worker's tick
	abortErr error        // first fatal error; guarded by mu

	// budget is the optional DB-wide resident-tuple budget shared with
	// concurrent queries; closed latches the one-time release of this
	// executor's charge (Executor.Close).
	budget *Budget
	closed atomic.Bool
}

// pin accounts tuples added to the memo and raises the high-water mark,
// charging the shared budget too when one is attached.
func (sh *sharedState) pin(n int64) {
	r := sh.resident.Add(n)
	sh.raisePeak(r)
	if sh.budget != nil {
		sh.budget.charge(n)
	}
}

func (sh *sharedState) raisePeak(r int64) {
	for {
		p := sh.peak.Load()
		if r <= p || sh.peak.CompareAndSwap(p, r) {
			return
		}
	}
}

// New returns an executor over a catalog view — the live *catalog.Catalog
// or, for snapshot-isolated queries, a pinned *catalog.Snapshot.
func New(cat catalog.Reader, opt Options) *Executor {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	sh := &sharedState{budget: opt.Budget}
	sh.flightDone.L = &sh.mu
	msize := opt.MorselSize
	switch {
	case msize <= 0:
		msize = DefaultMorselSize
	case msize < MinMorselSize:
		msize = MinMorselSize
	case msize > MaxMorselSize:
		msize = MaxMorselSize
	}
	return &Executor{cat: cat, opt: opt, sh: sh, msize: msize}
}

// Stats returns the work counters accumulated so far.
func (ex *Executor) Stats() Stats { return ex.stats }

// Close releases the executor's charge against the shared DB-wide
// budget (Options.Budget). Idempotent and safe on executors without a
// budget; call it once the query's result has been consumed so the next
// query's allocation sees the freed headroom. The executor must not Run
// again after Close.
func (ex *Executor) Close() {
	if ex.sh.budget == nil {
		return
	}
	if ex.sh.closed.CompareAndSwap(false, true) {
		ex.sh.budget.charge(-ex.sh.resident.Load())
	}
}

// Plan lowers a logical plan without running it — the physical tree Run
// would evaluate.
func (ex *Executor) Plan(plan algebra.Op) (physical.Node, error) {
	return ex.physFor(plan)
}

// Run lowers a logical plan (once: Plan and Run share the lowering) and
// evaluates it as RunPlan would.
func (ex *Executor) Run(plan algebra.Op) (*storage.Relation, error) {
	root, err := ex.physFor(plan)
	if err != nil {
		return nil, err
	}
	// metric() grows the shard for a node lowered later (an expression
	// bound through BindExpr after this Run).
	return ex.run(root, ex.sh.planner.NodeCount())
}

// RunPlan evaluates a lowered plan top-level (no outer bindings). The
// plan is only read, so concurrent executors may share it.
func (ex *Executor) RunPlan(pl *physical.Plan) (*storage.Relation, error) {
	return ex.run(pl.Root, pl.NodeCount())
}

// run evaluates root top-level; nodes sizes the metrics shard. Failures
// come back attributed to the failing physical node (*OpError); panics
// from operator evaluation — on the coordinator's stack here, on worker
// stacks in parMorsels — are recovered into *PanicError so one bad
// query cannot crash the process, and the abort latch drains any
// workers still running.
func (ex *Executor) run(root physical.Node, nodes int) (rel *storage.Relation, err error) {
	start := time.Now()
	if ex.opt.Timeout > 0 {
		ex.deadline = start.Add(ex.opt.Timeout)
	} else {
		ex.deadline = time.Time{}
	}
	if ex.opt.Metrics && ex.nm == nil {
		ex.nm = make([]NodeMetrics, nodes)
	}
	ex.cur = nil
	ex.sh.clearAbort()
	ex.sh.purgeSpent()
	defer func() {
		if r := recover(); r != nil {
			rel, err = nil, ex.fail(ex.recoverError(r))
		}
		ex.stats.Elapsed += time.Since(start)
		if p := ex.sh.peak.Load(); p > ex.stats.PeakTuples {
			ex.stats.PeakTuples = p
		}
	}()
	if ex.opt.Ctx != nil {
		if cerr := ex.opt.Ctx.Err(); cerr != nil {
			return nil, ex.fail(cerr)
		}
	}
	return ex.eval(root, nil)
}

// physFor lowers a logical plan on demand (Plan, Run), by the
// executor's own planner, memoized, under the lock. Nested blocks need
// no lookup: each expression embedding one carries its root
// (physical.Site).
func (ex *Executor) physFor(op algebra.Op) (physical.Node, error) {
	ex.sh.mu.Lock()
	defer ex.sh.mu.Unlock()
	return ex.lowerer().Lower(op)
}

// lowerer returns the executor's own planner, made on first use; the
// caller holds sh.mu.
func (ex *Executor) lowerer() *physical.Planner {
	if ex.sh.planner == nil {
		ex.sh.planner = physical.NewPlanner(stats.New(ex.cat))
	}
	return ex.sh.planner
}

// tick checks the abort latch and the deadline every few thousand
// inner-loop iterations.
func (ex *Executor) tick() error {
	ex.ticks++
	if ex.ticks&0xfff != 0 {
		return nil
	}
	return ex.slowTick()
}

func (ex *Executor) slowTick() error {
	if ex.sh.aborted.Load() {
		return ex.sh.abortError()
	}
	if ex.opt.Ctx != nil {
		if err := ex.opt.Ctx.Err(); err != nil {
			return ex.fail(err)
		}
	}
	if !ex.deadline.IsZero() && time.Now().After(ex.deadline) {
		return ex.fail(ErrTimeout)
	}
	return nil
}

// fail records the first fatal error and flips the abort latch every
// worker polls, so cancellation propagates across the pool and the
// query returns the sentinel, never a partial result.
func (ex *Executor) fail(err error) error {
	ex.sh.mu.Lock()
	defer ex.sh.mu.Unlock()
	if ex.sh.abortErr == nil {
		ex.sh.abortErr = err
	}
	ex.sh.aborted.Store(true)
	// Wake single-flight waiters: the flight they wait on may never
	// finish (its owner aborted or panicked past the cleanup), and
	// their wait loop re-checks the latch after every wakeup.
	ex.sh.flightDone.Broadcast()
	return ex.sh.abortErr
}

// inject visits the fault injector at a site, attributing the visit to
// node n (-1 when unattributed). Injection off is one branch.
func (ex *Executor) inject(site faultinject.Site, n physical.Node) error {
	if ex.opt.Fault == nil {
		return nil
	}
	id := -1
	if n != nil {
		id = n.ID()
	}
	return ex.opt.Fault.Visit(site, id)
}

func (sh *sharedState) abortError() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.abortErrLocked()
}

// abortErrLocked is abortError for callers already holding sh.mu (the
// single-flight wait loop cannot re-lock).
func (sh *sharedState) abortErrLocked() error {
	if sh.abortErr == nil {
		return errors.New("exec: aborted")
	}
	return sh.abortErr
}

func (sh *sharedState) clearAbort() {
	sh.mu.Lock()
	sh.abortErr = nil
	sh.mu.Unlock()
	sh.aborted.Store(false)
}

// checkBudget enforces the tuple budgets against rows pending inside a
// long-running operator, so a single quadratic join cannot exhaust
// memory before returning. The observed total also feeds the
// Stats.PeakTuples high-water mark, so the limits are auditable. Two
// bounds apply: the per-query Options.MaxTuples, and the DB-wide
// Options.Budget shared with concurrent queries — whichever trips
// first aborts this query with ErrMemoryLimit.
func (ex *Executor) checkBudget(pending int) error {
	pend := int64(pending)
	if ex.opt.MaxTuples > 0 || ex.sh.budget != nil {
		total := ex.sh.resident.Load() + pend
		ex.sh.raisePeak(total)
		if ex.opt.MaxTuples > 0 && total > ex.opt.MaxTuples {
			return ex.fail(ErrMemoryLimit)
		}
	}
	if b := ex.sh.budget; b != nil && b.over(pend) {
		return ex.fail(ErrMemoryLimit)
	}
	return nil
}

// cacheable reports whether the node's result is env-independent and
// memoization is allowed in the current context: at top level (env==nil)
// DAG sharing always requires the memo; under an environment the cache
// mode decides how much may be reused across outer tuples.
func (ex *Executor) cacheable(n physical.Node, env *Env) bool {
	if env == nil {
		return true
	}
	switch ex.opt.Cache {
	case CacheAll:
		return !n.Correlated()
	case CacheScans:
		_, isScan := n.(*physical.Scan)
		return isScan
	default:
		return false
	}
}

// eval evaluates one node with memoization and, when enabled, per-node
// metrics: the input cardinality is credited to the consuming operator
// (ex.cur) on every return path, memo hit or not.
func (ex *Executor) eval(n physical.Node, env *Env) (*storage.Relation, error) {
	rel, err := ex.evalMemo(n, env)
	if err != nil {
		return nil, err
	}
	if ex.nm != nil && ex.cur != nil && ex.cur != n {
		ex.metric(ex.cur).RowsIn += int64(rel.Cardinality())
	}
	return rel, nil
}

// evalMemo evaluates one node with memoization. Concurrent first
// evaluations of one cacheable node (workers racing on an uncorrelated
// subplan) are deduplicated through a single-flight table: the first
// arrival evaluates, the rest wait and share — so the work done and the
// per-node counters are worker-count independent.
func (ex *Executor) evalMemo(n physical.Node, env *Env) (*storage.Relation, error) {
	if err := ex.tick(); err != nil {
		return nil, err
	}
	if ferr := ex.inject(faultinject.SiteOp, n); ferr != nil {
		return nil, wrapOp(n, ex.fail(ferr))
	}
	cacheable := ex.cacheable(n, env)
	owns := false
	if cacheable {
		ex.sh.mu.Lock()
		for {
			if rel, ok := ex.sh.memo[n]; ok {
				ex.sh.mu.Unlock()
				if ex.nm != nil {
					ex.metric(n).MemoHits++
				}
				return rel, nil
			}
			if ex.sh.aborted.Load() {
				// The flight owner may have aborted or panicked without
				// clearing the flight; fail() broadcast to get us here.
				err := ex.sh.abortErrLocked()
				ex.sh.mu.Unlock()
				return nil, err
			}
			if !ex.sh.flight[n] {
				break
			}
			// Another worker is evaluating this key; wait and re-check.
			// If that evaluation fails without latching the abort, the
			// loop exits with the flight cleared and this worker
			// re-evaluates, hitting the same error itself.
			ex.sh.flightDone.Wait()
		}
		if ex.sh.flight == nil {
			ex.sh.flight = make(map[physical.Node]bool)
		}
		ex.sh.flight[n] = true
		owns = true
		ex.sh.mu.Unlock()
	}

	parent := ex.cur
	ex.cur = n
	instrumented := ex.nm != nil || ex.opt.Tracer != nil
	var t0 time.Time
	if instrumented {
		if ex.opt.Tracer != nil {
			ex.opt.Tracer.OpOpen(n)
		}
		t0 = time.Now()
	}
	rel, err := ex.evalNode(n, env)
	ex.cur = parent
	if instrumented {
		d := time.Since(t0)
		var rows int64
		if err == nil {
			rows = int64(rel.Cardinality())
		}
		if ex.nm != nil && err == nil {
			m := ex.metric(n)
			m.Calls++
			m.RowsOut += rows
			m.WallNanos += int64(d)
		}
		if ex.opt.Tracer != nil {
			ex.opt.Tracer.OpClose(n, rows, d)
		}
	}
	if err == nil {
		ex.stats.OpEvals++
		ex.stats.TuplesOut += int64(rel.Cardinality())
		err = ex.checkBudget(rel.Cardinality())
	}
	if owns && err == nil {
		// The fill site fires before taking the lock so a panic-mode
		// fault cannot unwind while holding sh.mu.
		if ferr := ex.inject(faultinject.SiteMemoFill, n); ferr != nil {
			err = ex.fail(ferr)
		}
	}
	if owns {
		ex.sh.mu.Lock()
		if err == nil {
			if ex.sh.memo == nil {
				ex.sh.memo = make(map[physical.Node]*storage.Relation)
			}
			ex.sh.memo[n] = rel
			ex.sh.pin(int64(rel.Cardinality()))
		}
		delete(ex.sh.flight, n)
		ex.sh.flightDone.Broadcast()
		ex.sh.mu.Unlock()
	}
	if err != nil {
		// Attribute the failure to the innermost operator that saw it;
		// parent frames pass it through untouched.
		return nil, wrapOp(n, err)
	}
	return rel, nil
}

func (ex *Executor) evalNode(n physical.Node, env *Env) (*storage.Relation, error) {
	switch x := n.(type) {
	case *physical.Scan:
		return ex.evalScan(x)
	case *physical.Filter:
		return ex.evalFilter(x, env)
	case *physical.Project:
		return ex.evalProject(x, env)
	case *physical.Rename:
		return ex.evalRename(x, env)
	case *physical.Map:
		return ex.evalMap(x, env)
	case *physical.Join:
		return ex.evalJoin(x, env)
	case *physical.Group:
		return ex.evalGroup(x, env)
	case *physical.BinaryGroup:
		return ex.evalBinaryGroup(x, env)
	case *physical.Union:
		return ex.evalUnion(x, env)
	case *physical.Distinct:
		return ex.evalDistinct(x, env)
	case *physical.Sort:
		return ex.evalSort(x, env)
	case *physical.Limit:
		in, err := ex.eval(x.Child, env)
		if err != nil {
			return nil, err
		}
		if int64(len(in.Tuples)) <= x.N {
			return in, nil
		}
		return &storage.Relation{Schema: in.Schema, Tuples: in.Tuples[:x.N]}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported physical operator %T", n)
	}
}

func (ex *Executor) evalScan(s *physical.Scan) (*storage.Relation, error) {
	tbl, err := ex.cat.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Rel.Schema.Len() != s.Schema().Len() {
		return nil, fmt.Errorf("exec: scan %s: stored arity %d vs plan arity %d",
			s.Table, tbl.Rel.Schema.Len(), s.Schema().Len())
	}
	// The scan's output is the row heap the columnar batches are built
	// over, so under the vector path it counts as vector-served.
	if _, err := ex.vecEnter(s); err != nil {
		return nil, err
	}
	// Share tuple storage and the table version's columnar view; only
	// the schema (qualification) differs.
	return tbl.Batch().View(s.Schema()), nil
}

// evalFilter is σ: a pass over morsels turns the predicate's truth
// values into selection vectors of the TRUE rows, each one pooled slab
// with room for exactly their count, and the output gathers the selected
// row pointers in input order, copying nothing: its rows are its input's.
func (ex *Executor) evalFilter(f *physical.Filter, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(f.Child, env)
	if err != nil {
		return nil, err
	}
	compiled, err := ex.vecEnter(f)
	if err != nil {
		return nil, err
	}
	truth := morselEval(ex, compiled, f.VecPred, in, env,
		func(w *Executor, row *Env) (types.TriBool, error) { return w.EvalPred(f.Bound, row) })
	chunks, err := parMorsels(ex, len(in.Tuples),
		func(w *Executor, lo, hi int) (*slab[int32], error) {
			res, err := truth(w, lo, hi)
			if err != nil {
				return nil, err
			}
			n := 0
			for _, t := range res {
				if t.IsTrue() {
					n++
				}
			}
			sel := selSlabs.take(n)
			for i, t := range res {
				if t.IsTrue() {
					*sel = append(*sel, int32(lo+i))
				}
			}
			return sel, nil
		})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range chunks {
		n += len(*c)
	}
	m := newRows(n, ex.output(f, env))
	for _, c := range chunks {
		for _, i := range *c {
			m.list = append(m.list, in.Tuples[i])
		}
		selSlabs.put(c)
	}
	out := m.relation(in.Schema)
	handBack(f, 0, in, out)
	return out, nil
}

// evalProject is Π, in morsels. When the projected columns are a prefix
// of the input's, each output row is that prefix of the input row
// itself, not a copy: rows are immutable, and the capacity is cut with
// the length so nothing can grow into the columns behind it. Otherwise
// the rows are cut from the morsel's slab.
func (ex *Executor) evalProject(p *physical.Project, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(p.Child, env)
	if err != nil {
		return nil, err
	}
	if _, err := ex.vecEnter(p); err != nil {
		return nil, err
	}
	prefix, out := p.Prefix(), ex.output(p, env)
	chunks, err := parMorsels(ex, len(in.Tuples),
		func(w *Executor, lo, hi int) (rows, error) {
			m := newRows(hi-lo, out)
			var slab rowSlab
			if !prefix {
				slab = m.slab(w, len(p.Cols), hi-lo)
			}
			for _, t := range in.Tuples[lo:hi] {
				if prefix {
					m.list = append(m.list, t[:len(p.Cols):len(p.Cols)])
					continue
				}
				row := slab.next()
				for j, c := range p.Cols {
					row[j] = t[c]
				}
				m.list = append(m.list, row)
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}
	rel := relation(p.Schema(), chunks, out)
	handBack(p, 0, in, rel)
	return rel, nil
}

func (ex *Executor) evalRename(r *physical.Rename, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(r.Child, env)
	if err != nil {
		return nil, err
	}
	return &storage.Relation{Schema: r.Schema(), Tuples: in.Tuples}, nil
}

// evalMap is χ: each row extended with the expression's value, or the
// part of the two its consumer reads.
func (ex *Executor) evalMap(m *physical.Map, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(m.Child, env)
	if err != nil {
		return nil, err
	}
	compiled, err := ex.vecEnter(m)
	if err != nil {
		return nil, err
	}
	values := morselEval(ex, compiled, m.VecExpr, in, env,
		func(w *Executor, row *Env) (types.Value, error) { return w.EvalExpr(m.Bound, row) })
	out := ex.output(m, env)
	chunks, err := parMorsels(ex, len(in.Tuples),
		func(w *Executor, lo, hi int) (rows, error) {
			vals, err := values(w, lo, hi)
			if err != nil {
				return rows{}, err
			}
			o := newRows(hi-lo, out)
			slab := o.slab(w, m.Schema().Len(), hi-lo)
			for i, t := range in.Tuples[lo:hi] {
				o.list = append(o.list, slab.emitRow(m.Emit, t, vals[i:i+1]))
			}
			return o, nil
		})
	if err != nil {
		return nil, err
	}
	rel := relation(m.Schema(), chunks, out)
	handBack(m, 0, in, rel)
	return rel, nil
}

// evalUnion is ∪: one list of both inputs' rows, which are its own.
func (ex *Executor) evalUnion(u *physical.Union, env *Env) (*storage.Relation, error) {
	l, err := ex.eval(u.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ex.eval(u.R, env)
	if err != nil {
		return nil, err
	}
	m := newRows(len(l.Tuples)+len(r.Tuples), ex.output(u, env))
	m.list = append(m.list, l.Tuples...)
	m.list = append(m.list, r.Tuples...)
	out := m.relation(u.Schema())
	handBack(u, 0, l, out)
	handBack(u, 1, r, out)
	return out, nil
}

// evalDistinct is one sequential pass of Relation.Distinct at every
// worker count: the input is indexed once, in order, so the output keeps
// first-seen order. Deduplicating morsels in parallel first would index
// every row twice and copy the survivors' headers once more. Its output
// is its input when no row repeats, so it hands nothing back.
func (ex *Executor) evalDistinct(d *physical.Distinct, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(d.Child, env)
	if err != nil {
		return nil, err
	}
	return in.Distinct(), nil
}

// evalSort is Sort: a stable sort of a copy of its input's list, not of
// the rows, which are its own.
func (ex *Executor) evalSort(s *physical.Sort, env *Env) (*storage.Relation, error) {
	in, err := ex.eval(s.Child, env)
	if err != nil {
		return nil, err
	}
	m := newRows(len(in.Tuples), ex.output(s, env))
	m.list = append(m.list, in.Tuples...)
	out := m.relation(in.Schema)
	out.SortBy(s.Cols, s.Desc)
	handBack(s, 0, in, out)
	return out, nil
}
