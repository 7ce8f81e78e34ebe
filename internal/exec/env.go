// Package exec is disqo's query execution engine: an operator-at-a-time,
// materializing evaluator for algebra plans. It supports DAG-shaped
// plans (every node is evaluated once and its result memoized),
// evaluates canonical nested plans by binding correlated attributes
// through an environment chain, and picks physical algorithms (hash vs.
// nested-loop joins and grouping) per operator.
package exec

import (
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Env is a chain of tuple bindings. The innermost binding is consulted
// first; correlated subquery evaluation pushes the outer tuple as the
// parent frame, which is exactly the paper's "direct correlation" — an
// inner block may refer to attributes of the current and the directly
// enclosing block (and transitively further out, which the lookup chain
// also supports).
type Env struct {
	parent *Env
	schema *storage.Schema
	tuple  []types.Value
}

// Bind pushes a new frame onto the environment.
func Bind(parent *Env, schema *storage.Schema, tuple []types.Value) *Env {
	return &Env{parent: parent, schema: schema, tuple: tuple}
}

// Lookup resolves an attribute name, innermost frame first.
func (e *Env) Lookup(name string) (types.Value, bool) {
	for f := e; f != nil; f = f.parent {
		if i := f.schema.Index(name); i >= 0 {
			return f.tuple[i], true
		}
	}
	return types.Value{}, false
}

// Depth returns the number of frames (used in tests).
func (e *Env) Depth() int {
	n := 0
	for f := e; f != nil; f = f.parent {
		n++
	}
	return n
}
