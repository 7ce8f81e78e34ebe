package exec

import (
	"time"

	"disqo/internal/physical"
)

// NodeMetrics is one physical operator's runtime counters, indexed by
// the planner-assigned node ID. Collection is opt-in (Options.Metrics):
// with it off the executor never touches these slots, keeping the hot
// loops allocation-free. Under parallel execution every worker clone
// owns a private shard that parMorsels folds back in morsel order, like
// the Stats shards, so every counter is worker-count independent; only
// WallNanos is wall-clock and therefore never compared in golden tests.
type NodeMetrics struct {
	// Calls counts actual evaluations of the operator (memo misses).
	// Canonical nested plans re-evaluate correlated subplans per outer
	// tuple; unnested plans evaluate every operator once.
	Calls int64
	// MemoHits counts evaluations answered from the DAG/subquery memo.
	MemoHits int64
	// RowsIn is the total number of input tuples consumed: every child
	// (or subquery) result returned while this operator was evaluating.
	RowsIn int64
	// RowsOut is the total number of tuples produced across all Calls.
	RowsOut int64
	// Morsels is the number of morsels the operator's input was split
	// into, derived from input size alone so it does not depend on the
	// worker count.
	Morsels int64
	// HashBuildRows is the total number of build-side tuples hashed for
	// this operator (hash joins, hash binary grouping).
	HashBuildRows int64
	// Probes is, per grouping of a binary grouping, the total number of
	// left tuples that looked their group up in it: on the vector path
	// those the fused disjunction's bypass operands, and the disjuncts
	// before the first that reads the grouping's results, left undecided.
	Probes []int64
	// ColumnFolds is, per grouping of a binary grouping, the number of
	// evaluations that folded its right input by columns (foldWords), not
	// by rows.
	ColumnFolds []int64
	// VecCalls counts evaluations that ran on the vectorized path
	// (compiled kernels over columnar batches). Credited once per Call
	// by the kernel's coordinator, so like Calls it is worker-count
	// independent; Calls-VecCalls evaluations took the row path.
	VecCalls int64
	// WallNanos is the cumulative wall time spent evaluating the
	// operator, inclusive of its children (monotonic clock). Concurrent
	// subquery evaluations by several workers sum, so it can exceed the
	// query's elapsed time, like CPU time.
	WallNanos int64
}

// Wall returns the operator's cumulative wall time as a Duration.
func (m *NodeMetrics) Wall() time.Duration { return time.Duration(m.WallNanos) }

// merge folds a worker shard's slot into this one. Every field is a
// monotone counter, so summing is order-independent and deterministic.
func (m *NodeMetrics) merge(o *NodeMetrics) {
	m.Calls += o.Calls
	m.MemoHits += o.MemoHits
	m.RowsIn += o.RowsIn
	m.RowsOut += o.RowsOut
	m.Morsels += o.Morsels
	m.HashBuildRows += o.HashBuildRows
	m.addProbes(o.Probes)
	m.addColumnFolds(o.ColumnFolds)
	m.VecCalls += o.VecCalls
	m.WallNanos += o.WallNanos
}

// addProbes adds per-grouping probe counts.
func (m *NodeMetrics) addProbes(p []int64) { addEach(&m.Probes, p) }

// addColumnFolds adds per-grouping counts of folds by columns.
func (m *NodeMetrics) addColumnFolds(f []int64) { addEach(&m.ColumnFolds, f) }

// addEach adds the per-grouping counts p to *dst, growing it to p's length.
func addEach(dst *[]int64, p []int64) {
	if len(*dst) < len(p) {
		*dst = append(*dst, make([]int64, len(p)-len(*dst))...)
	}
	for j, n := range p {
		(*dst)[j] += n
	}
}

// metric returns the slot for a node, growing the shard for nodes
// lowered after Run sized it (stray EvalExpr-driven lowering).
func (ex *Executor) metric(n physical.Node) *NodeMetrics {
	id := n.ID()
	for id >= len(ex.nm) {
		ex.nm = append(ex.nm, NodeMetrics{})
	}
	return &ex.nm[id]
}

// mergeNodeMetrics folds a worker shard into this executor's shard.
func (ex *Executor) mergeNodeMetrics(o []NodeMetrics) {
	for len(ex.nm) < len(o) {
		ex.nm = append(ex.nm, NodeMetrics{})
	}
	for i := range o {
		ex.nm[i].merge(&o[i])
	}
}

// NodeMetrics returns the per-operator runtime counters accumulated so
// far (indexed by physical node ID), or nil when Options.Metrics is off.
func (ex *Executor) NodeMetrics() []NodeMetrics {
	if ex.nm == nil {
		return nil
	}
	out := make([]NodeMetrics, len(ex.nm))
	copy(out, ex.nm)
	return out
}

// traceMorsel emits a morsel span for the operator currently being
// evaluated; a nil tracer (the default) costs one branch.
func (ex *Executor) traceMorsel(lo, hi int) {
	if ex.opt.Tracer != nil && ex.cur != nil {
		ex.opt.Tracer.OpMorsel(ex.cur, lo, hi)
	}
}

// creditHashBuild attributes build-side tuples to the operator whose
// evaluation built the table.
func (ex *Executor) creditHashBuild(rows int) {
	if ex.nm != nil && ex.cur != nil {
		ex.metric(ex.cur).HashBuildRows += int64(rows)
	}
}

// Tracer observes physical-operator execution: one OpOpen/OpClose pair
// per operator evaluation, with OpMorsel events for each unit of input
// the operator processed in between. The default (nil) costs nothing.
// Implementations must be safe for concurrent use — morsel workers emit
// events in parallel — and should return quickly; the executor calls
// them inline.
type Tracer interface {
	// OpOpen fires when an operator evaluation starts (after a memo miss).
	OpOpen(n physical.Node)
	// OpMorsel fires for each input chunk [lo, hi) a worker processed.
	OpMorsel(n physical.Node, lo, hi int)
	// OpClose fires when the evaluation finishes, with the output
	// cardinality and the inclusive wall time.
	OpClose(n physical.Node, rows int64, d time.Duration)
}
