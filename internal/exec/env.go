// Package exec is disqo's query execution engine: an operator-at-a-time,
// materializing evaluator for algebra plans. It supports DAG-shaped
// plans (every node is evaluated once and its result memoized),
// evaluates canonical nested plans by reading correlated attributes
// from frames the planner bound them to, and picks physical algorithms
// (hash vs. nested-loop joins and grouping) per operator.
package exec

import (
	"disqo/internal/physical"
	"disqo/internal/types"
)

// Env is the frames an expression is evaluated on, innermost first: the
// row a node is at — for a pair of rows the right one, then the left —
// and, inside a nested block, the block's parameter frame, which holds
// the block's correlated attributes. A node pushes its frames once per
// morsel, or once per block evaluation, and overwrites their tuple per
// row; a bound column reference (physical.Slot) reads frame Depth,
// column Index — the planner resolved every name to one.
type Env struct {
	parent *Env
	tuple  []types.Value
}

// NewFrame returns a top-level frame holding row, for an expression
// bound by Executor.BindExpr; Set moves it to the next row.
func NewFrame(row []types.Value) *Env { return &Env{tuple: row} }

// Set makes row the frame's tuple.
func (e *Env) Set(row []types.Value) { e.tuple = row }

// at reads the column slot s is bound to.
func (e *Env) at(s physical.Slot) types.Value {
	for d := s.Depth; d > 0; d-- {
		e = e.parent
	}
	return e.tuple[s.Index]
}

// paramFrame is a nested block's parameter frame with room for two
// parameters, so that a block evaluation gathers them in one allocation.
type paramFrame struct {
	Env
	vals [2]types.Value
}

// params gathers the parameters of the block a site embeds from the
// frames env: the frame the block's nodes are evaluated on.
func params(site *physical.Site, env *Env) *Env {
	pf := &paramFrame{}
	if pf.tuple = pf.vals[:]; len(site.Params) > len(pf.vals) {
		pf.tuple = make([]types.Value, len(site.Params))
	}
	for i, s := range site.Params {
		if s.Depth >= 0 {
			pf.tuple[i] = env.at(s)
		}
	}
	return &pf.Env
}
