package exec

import (
	"disqo/internal/faultinject"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/vec"
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

// vecEnter is the one rule deciding whether node n runs its compiled
// code — the path is on and the planner compiled the node
// (physical.Compiled). Options.Path has two other readers:
// evalBinaryGroup — on the row path a Γ² looks every grouping's results
// up before it tests its fused selection, on the vector path disjunct
// by disjunct — and keyColumn, which hands the vector path a base
// table's int key column to hash and probe by the word. When vecEnter
// holds, the fault injector's vec site fires (latching the abort so
// cancellation semantics match SiteOp), and an evaluation the node
// counts as vector-served by (physical.Vectorizable) is credited, once
// per Call by the coordinator, so VecCalls is worker-count independent.
func (ex *Executor) vecEnter(n physical.Node) (bool, error) {
	if ex.opt.Path != PathVector || !physical.Compiled(n) {
		return false, nil
	}
	if ferr := ex.inject(faultinject.SiteVec, n); ferr != nil {
		return false, ex.fail(ferr)
	}
	if ex.nm != nil && physical.Vectorizable(n) {
		ex.metric(n).VecCalls++
	}
	return true, nil
}

// program is a compiled columnar expression: *vec.Pred yields truth
// values, *vec.Scalar yields values.
type program[T any] interface {
	Cols() []int
	EvalSel(sc *vec.Scratch, f vec.Frame, sel []int32, res []T) (int64, error)
}

// evalScratch is the buffers of compiled evaluations on one goroutine,
// kept from one window to the next: the vector evaluator's, and the
// frame of the columns its programs read.
type evalScratch struct {
	vs    vec.Scratch
	frame vec.Frame
}

// slice points the frame's columns cols at rows [lo,hi) of b.
func (es *evalScratch) slice(b *storage.Batch, cols []int, lo, hi int) {
	for _, c := range cols {
		es.frame[c] = b.Col(c).Slice(lo, hi)
	}
}

// morselEval returns the one part of an operator that varies with the
// path: the expression's results for rows [lo,hi) of in. Compiled (the
// verdict of vecEnter) runs prog over every row of the window of the
// relation's batch, sliced into pooled buffers (takeEval), whose columns
// the coordinator materializes here so morsel workers only take the
// wait-free column loads; otherwise interp is called per row on a
// frame pushed once per morsel, over env, and moved from row to row.
func morselEval[T any](ex *Executor, compiled bool, prog program[T], in *storage.Relation, env *Env,
	interp func(w *Executor, row *Env) (T, error)) func(w *Executor, lo, hi int) ([]T, error) {
	if compiled {
		b, cols, width := in.Batch(), prog.Cols(), in.Schema.Len()
		b.Materialize(cols)
		return func(w *Executor, lo, hi int) ([]T, error) {
			sc := takeEval(width)
			defer sc.release()
			sc.slice(b, cols, lo, hi)
			res := make([]T, hi-lo)
			cmps, err := prog.EvalSel(&sc.vs, sc.frame, sc.vs.All(hi-lo), res)
			w.stats.Comparisons += cmps
			return res, err
		}
	}
	return func(w *Executor, lo, hi int) ([]T, error) {
		res := make([]T, hi-lo)
		frame := &Env{parent: env}
		for i, t := range in.Tuples[lo:hi] {
			if err := w.tick(); err != nil {
				return nil, err
			}
			frame.tuple = t
			v, err := interp(w, frame)
			if err != nil {
				return nil, err
			}
			res[i] = v
		}
		return res, nil
	}
}
