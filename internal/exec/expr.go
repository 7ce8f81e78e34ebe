package exec

import (
	"fmt"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/physical"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// BindExpr binds a bare expression over rows of schema sch — lowering
// the blocks nested in it — for EvalExpr and EvalPred on a frame that
// NewFrame makes. An expression bound once is evaluated on any number
// of rows, the frame moved from one to the next.
func (ex *Executor) BindExpr(e algebra.Expr, sch *storage.Schema) (*physical.Bound, error) {
	ex.sh.mu.Lock()
	defer ex.sh.mu.Unlock()
	return ex.lowerer().Bind(e, sch)
}

// EvalExpr evaluates a bound scalar expression on its frames. Predicates
// evaluated as values render their truth value (UNKNOWN becomes NULL).
func (ex *Executor) EvalExpr(b *physical.Bound, env *Env) (types.Value, error) {
	switch x := b.Src.(type) {
	case *algebra.ColRef:
		return env.at(b.Slot), nil
	case *algebra.ConstExpr:
		return x.Val, nil
	case *algebra.ArithExpr:
		l, err := ex.EvalExpr(b.L, env)
		if err != nil {
			return types.Value{}, err
		}
		r, err := ex.EvalExpr(b.R, env)
		if err != nil {
			return types.Value{}, err
		}
		return types.Arith(x.Op, l, r)
	case *physical.Site:
		if sq, ok := x.Expr.(*algebra.ScalarSubquery); ok {
			return ex.evalScalarSubquery(sq, x, env)
		}
	case *algebra.CmpExpr, *algebra.AndExpr, *algebra.OrExpr, *algebra.NotExpr,
		*algebra.LikeExpr, *algebra.IsNullExpr, *algebra.IsTrueExpr:
	default:
		return types.Value{}, fmt.Errorf("exec: cannot evaluate expression %T", b.Src)
	}
	t, err := ex.EvalPred(b, env) // a predicate, as a value
	return t.Value(), err
}

// EvalPred evaluates a bound expression as a predicate in SQL's Kleene
// three-valued logic. A two-valued query reaches here already written
// in it (translate.TwoValued), so there is no other logic to select.
func (ex *Executor) EvalPred(b *physical.Bound, env *Env) (types.TriBool, error) {
	switch x := b.Src.(type) {
	case *algebra.CmpExpr:
		l, err := ex.EvalExpr(b.L, env)
		if err != nil {
			return types.Unknown, err
		}
		r, err := ex.EvalExpr(b.R, env)
		if err != nil {
			return types.Unknown, err
		}
		ex.stats.Comparisons++
		return types.CompareValues(x.Op, l, r), nil
	case *algebra.AndExpr:
		l, err := ex.EvalPred(b.L, env)
		if err != nil {
			return types.Unknown, err
		}
		if l == types.False {
			return types.False, nil // short-circuit
		}
		r, err := ex.EvalPred(b.R, env)
		if err != nil {
			return types.Unknown, err
		}
		return l.And(r), nil
	case *algebra.OrExpr:
		l, err := ex.EvalPred(b.L, env)
		if err != nil {
			return types.Unknown, err
		}
		if l == types.True {
			return types.True, nil // short-circuit: the disjunction's cheap exit
		}
		r, err := ex.EvalPred(b.R, env)
		if err != nil {
			return types.Unknown, err
		}
		return l.Or(r), nil
	case *algebra.NotExpr:
		t, err := ex.EvalPred(b.L, env)
		return t.Not(), err
	case *algebra.LikeExpr:
		l, err := ex.EvalExpr(b.L, env)
		if err != nil {
			return types.Unknown, err
		}
		p, err := ex.EvalExpr(b.R, env)
		if err != nil {
			return types.Unknown, err
		}
		return types.Like(l, p), nil
	case *algebra.IsNullExpr:
		v, err := ex.EvalExpr(b.L, env)
		if err != nil {
			return types.Unknown, err
		}
		return types.TriOf(v.IsNull()), nil
	case *algebra.IsTrueExpr:
		t, err := ex.EvalPred(b.L, env)
		return types.TriOf(t.IsTrue()), err
	case *physical.Site:
		switch q := x.Expr.(type) {
		case *algebra.QuantSubquery:
			return ex.evalQuantSubquery(q.Quant, x, b.L, env)
		case *algebra.AllAnyExpr:
			return ex.evalAllAny(q.Op, q.All, x, b.L, env)
		}
	}
	v, err := ex.EvalExpr(b, env)
	if err != nil {
		return types.Unknown, err
	}
	return types.TriFromValue(v), nil
}

// evalBlock evaluates the nested block a site embeds on its own frames:
// its parameter frame, gathered from the embedding expression's frames.
func (ex *Executor) evalBlock(site *physical.Site, env *Env) (*storage.Relation, error) {
	ex.stats.SubqueryEvals++
	return ex.eval(site.Root, params(site, env))
}

// evalScalarSubquery runs the nested block under the current frames and
// folds the aggregate over its result — the canonical nested-loop
// strategy. Uncorrelated plans (type A) are evaluated once and memoized
// when the executor's cache is enabled. The argument is read off each
// row of the block when it is one of its columns; otherwise it is
// evaluated on one frame pushed for the fold and handed over in one
// buffer — or, to a DISTINCT accumulator, which keeps it, in a slice
// of its own.
func (ex *Executor) evalScalarSubquery(sq *algebra.ScalarSubquery, site *physical.Site, env *Env) (types.Value, error) {
	rel, err := ex.evalBlock(site, env)
	if err != nil {
		return types.Value{}, err
	}
	acc := agg.NewAcc(sq.Agg)
	if sq.Agg.Star || site.ArgCols != nil {
		for _, t := range rel.Tuples {
			acc.AddOn(t, site.ArgCols)
		}
		return acc.Result(), nil
	}
	frame := &Env{parent: env}
	var one [1]types.Value
	for _, t := range rel.Tuples {
		frame.tuple = t
		v, err := ex.EvalExpr(site.Arg, frame)
		if err != nil {
			return types.Value{}, err
		}
		if sq.Agg.Distinct {
			acc.AddOn([]types.Value{v}, nil)
			continue
		}
		one[0] = v
		acc.AddOn(one[:], nil)
	}
	return acc.Result(), nil
}

// evalQuantSubquery implements EXISTS / NOT EXISTS, and IN as = ANY: x
// IN S is TRUE when a member equals x, UNKNOWN when no member equals x
// but some comparison is UNKNOWN (NULLs), FALSE otherwise. NOT IN is its
// Kleene negation.
func (ex *Executor) evalQuantSubquery(q algebra.Quantifier, site *physical.Site, l *physical.Bound, env *Env) (types.TriBool, error) {
	if q == algebra.In || q == algebra.NotIn {
		t, err := ex.evalAllAny(types.EQ, false, site, l, env)
		if q == algebra.NotIn {
			t = t.Not()
		}
		return t, err
	}
	rel, err := ex.evalBlock(site, env)
	if err != nil {
		return types.Unknown, err
	}
	return types.TriOf((rel.Cardinality() > 0) == (q == algebra.Exists)), nil
}

// evalAllAny folds l θ y over the single output column of the block
// site embeds in Kleene logic: AND for ALL (TRUE on empty input), OR
// for ANY (FALSE on empty input), stopping at the fold's absorbing
// value.
func (ex *Executor) evalAllAny(op types.CompareOp, all bool, site *physical.Site, l *physical.Bound, env *Env) (types.TriBool, error) {
	rel, err := ex.evalBlock(site, env)
	if err != nil {
		return types.Unknown, err
	}
	if rel.Schema.Len() != 1 {
		return types.Unknown, fmt.Errorf("exec: quantified comparison needs one column, got %s", rel.Schema)
	}
	x, err := ex.EvalExpr(l, env)
	if err != nil {
		return types.Unknown, err
	}
	res := types.TriOf(all)
	for _, t := range rel.Tuples {
		ex.stats.Comparisons++
		if c := types.CompareValues(op, x, t[0]); all {
			res = res.And(c)
		} else {
			res = res.Or(c)
		}
		if res == types.TriOf(!all) {
			break
		}
	}
	return res, nil
}
