package exec

import (
	"disqo/internal/faultinject"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Path selects how operators evaluate their expressions. There is one
// executor — every operator is written once — and two expression
// evaluators: the tree interpreter (EvalPred/EvalExpr per row), which is
// the reference the differential tests vote with, and the planner's
// compiled columnar programs (internal/vec) run once per morsel over a
// shared storage.Batch. Both produce byte-identical output: the same
// rows, in the same order, through the same operator bodies.
type Path uint8

const (
	// PathRow interprets every expression (the default zero value, so
	// embedded uses of the executor stay on the reference).
	PathRow Path = iota
	// PathVector runs the compiled program where the planner produced
	// one (physical.Vectorizable) and interprets the rest.
	PathVector
)

// String names the path the way EXPLAIN spells it.
func (p Path) String() string {
	if p == PathVector {
		return "vector"
	}
	return "row"
}

// vecEnter is the one rule deciding whether node n counts as served by
// the vector path — the path is on and the planner found the node
// vectorizable — and the only reader of Options.Path. When it holds the
// fault injector's vec site fires (latching the abort so cancellation
// semantics match SiteOp) and the evaluation is credited, once per Call
// by the coordinator, so VecCalls is worker-count independent.
func (ex *Executor) vecEnter(n physical.Node) (bool, error) {
	if ex.opt.Path != PathVector || !physical.Vectorizable(n) {
		return false, nil
	}
	if ferr := ex.inject(faultinject.SiteVec, n); ferr != nil {
		return false, ex.fail(ferr)
	}
	if ex.nm != nil {
		ex.metric(n).VecCalls++
	}
	return true, nil
}

// batchFor returns the shared columnar view of a relation, creating it
// on first use. Sharing by row-heap identity means canonical plans that
// re-run a predicate over one memoized input per outer tuple convert
// rows to columns once, not per binding.
func (ex *Executor) batchFor(rel *storage.Relation) *storage.Batch {
	ex.sh.mu.Lock()
	b := ex.sh.batches[rel]
	if b == nil {
		b = storage.NewBatch(rel)
		ex.sh.batches[rel] = b
	}
	ex.sh.mu.Unlock()
	return b
}

// program is a compiled columnar expression: *vec.Pred yields truth
// values, *vec.Scalar yields values.
type program[T any] interface {
	Cols() []int
	Eval(b *storage.Batch, lo, hi int) ([]T, int64, error)
}

// morselEval returns the one part of an operator that varies with the
// path: the expression's results for rows [lo,hi) of in. Compiled (the
// verdict of vecEnter) runs prog over the shared batch, whose columns
// the coordinator materializes here so morsel workers only take the
// wait-free column loads; otherwise interp is called per row under a
// frame binding that row.
func morselEval[T any](ex *Executor, compiled bool, prog program[T], in *storage.Relation, env *Env,
	interp func(w *Executor, row *Env) (T, error)) func(w *Executor, lo, hi int) ([]T, error) {
	if compiled {
		b := ex.batchFor(in)
		b.Materialize(prog.Cols())
		return func(w *Executor, lo, hi int) ([]T, error) {
			res, cmps, err := prog.Eval(b, lo, hi)
			w.stats.Comparisons += cmps
			return res, err
		}
	}
	return func(w *Executor, lo, hi int) ([]T, error) {
		res := make([]T, hi-lo)
		for i, t := range in.Tuples[lo:hi] {
			if err := w.tick(); err != nil {
				return nil, err
			}
			v, err := interp(w, Bind(env, in.Schema, t))
			if err != nil {
				return nil, err
			}
			res[i] = v
		}
		return res, nil
	}
}

// gatherChunks assembles one side of per-morsel selection vectors into
// a relation sharing the selected rows with the input (no copying).
func gatherChunks(in *storage.Relation, chunks [][2][]int32, side int) *storage.Relation {
	n := 0
	for _, c := range chunks {
		n += len(c[side])
	}
	out := storage.NewRelation(in.Schema)
	out.Tuples = make([][]types.Value, 0, n)
	for _, c := range chunks {
		for _, i := range c[side] {
			out.Tuples = append(out.Tuples, in.Tuples[i])
		}
	}
	return out
}
