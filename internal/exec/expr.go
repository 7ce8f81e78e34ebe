package exec

import (
	"fmt"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// EvalExpr evaluates a scalar expression in an environment. Predicates
// evaluated as values render their truth value (UNKNOWN becomes NULL).
func (ex *Executor) EvalExpr(e algebra.Expr, env *Env) (types.Value, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		v, ok := env.Lookup(x.Name)
		if !ok {
			return types.Value{}, fmt.Errorf("exec: unbound column %q", x.Name)
		}
		return v, nil
	case *algebra.ConstExpr:
		return x.Val, nil
	case *algebra.ArithExpr:
		l, err := ex.EvalExpr(x.L, env)
		if err != nil {
			return types.Value{}, err
		}
		r, err := ex.EvalExpr(x.R, env)
		if err != nil {
			return types.Value{}, err
		}
		return types.Arith(x.Op, l, r)
	case *algebra.ScalarSubquery:
		return ex.evalScalarSubquery(x, env)
	case *algebra.CmpExpr, *algebra.AndExpr, *algebra.OrExpr, *algebra.NotExpr,
		*algebra.LikeExpr, *algebra.IsNullExpr, *algebra.IsTrueExpr,
		*algebra.QuantSubquery, *algebra.AllAnyExpr:
		t, err := ex.EvalPred(e, env)
		if err != nil {
			return types.Value{}, err
		}
		return t.Value(), nil
	default:
		return types.Value{}, fmt.Errorf("exec: cannot evaluate expression %T", e)
	}
}

// EvalPred evaluates an expression as a predicate in SQL's Kleene
// three-valued logic. A two-valued query reaches here already written
// in it (translate.TwoValued), so there is no other logic to select.
func (ex *Executor) EvalPred(e algebra.Expr, env *Env) (types.TriBool, error) {
	switch x := e.(type) {
	case *algebra.CmpExpr:
		l, err := ex.EvalExpr(x.L, env)
		if err != nil {
			return types.Unknown, err
		}
		r, err := ex.EvalExpr(x.R, env)
		if err != nil {
			return types.Unknown, err
		}
		ex.stats.Comparisons++
		return types.CompareValues(x.Op, l, r), nil
	case *algebra.AndExpr:
		l, err := ex.EvalPred(x.L, env)
		if err != nil {
			return types.Unknown, err
		}
		if l == types.False {
			return types.False, nil // short-circuit
		}
		r, err := ex.EvalPred(x.R, env)
		if err != nil {
			return types.Unknown, err
		}
		return l.And(r), nil
	case *algebra.OrExpr:
		l, err := ex.EvalPred(x.L, env)
		if err != nil {
			return types.Unknown, err
		}
		if l == types.True {
			return types.True, nil // short-circuit: the disjunction's cheap exit
		}
		r, err := ex.EvalPred(x.R, env)
		if err != nil {
			return types.Unknown, err
		}
		return l.Or(r), nil
	case *algebra.NotExpr:
		t, err := ex.EvalPred(x.E, env)
		return t.Not(), err
	case *algebra.LikeExpr:
		l, err := ex.EvalExpr(x.L, env)
		if err != nil {
			return types.Unknown, err
		}
		p, err := ex.EvalExpr(x.Pattern, env)
		if err != nil {
			return types.Unknown, err
		}
		return types.Like(l, p), nil
	case *algebra.IsNullExpr:
		v, err := ex.EvalExpr(x.E, env)
		if err != nil {
			return types.Unknown, err
		}
		return types.TriOf(v.IsNull()), nil
	case *algebra.IsTrueExpr:
		t, err := ex.EvalPred(x.E, env)
		return types.TriOf(t.IsTrue()), err
	case *algebra.QuantSubquery:
		return ex.evalQuantSubquery(x, env)
	case *algebra.AllAnyExpr:
		return ex.evalAllAny(x.Op, x.All, x.L, x.Plan, env)
	default:
		v, err := ex.EvalExpr(e, env)
		if err != nil {
			return types.Unknown, err
		}
		return types.TriFromValue(v), nil
	}
}

// evalSubplan resolves a nested query block to its physical node —
// lowered with the enclosing plan — and evaluates it under the current
// environment.
func (ex *Executor) evalSubplan(plan algebra.Op, env *Env) (*storage.Relation, error) {
	n, err := ex.physFor(plan)
	if err != nil {
		return nil, err
	}
	return ex.eval(n, env)
}

// evalScalarSubquery runs the nested plan under the current environment
// and folds the aggregate over its result — the canonical nested-loop
// strategy. Uncorrelated plans (type A) are evaluated once and memoized
// when the executor's cache is enabled.
func (ex *Executor) evalScalarSubquery(sq *algebra.ScalarSubquery, env *Env) (types.Value, error) {
	ex.stats.SubqueryEvals++
	rel, err := ex.evalSubplan(sq.Plan, env)
	if err != nil {
		return types.Value{}, err
	}
	acc := agg.NewAcc(sq.Agg)
	for _, t := range rel.Tuples {
		if sq.Agg.Star {
			acc.AddOn(t, nil)
			continue
		}
		inner := Bind(env, rel.Schema, t)
		v, err := ex.EvalExpr(sq.Arg, inner)
		if err != nil {
			return types.Value{}, err
		}
		acc.AddOn([]types.Value{v}, nil)
	}
	return acc.Result(), nil
}

// evalQuantSubquery implements EXISTS / NOT EXISTS, and IN as = ANY: x
// IN S is TRUE when a member equals x, UNKNOWN when no member equals x
// but some comparison is UNKNOWN (NULLs), FALSE otherwise. NOT IN is its
// Kleene negation.
func (ex *Executor) evalQuantSubquery(q *algebra.QuantSubquery, env *Env) (types.TriBool, error) {
	if q.Quant == algebra.In || q.Quant == algebra.NotIn {
		t, err := ex.evalAllAny(types.EQ, false, q.L, q.Plan, env)
		if q.Quant == algebra.NotIn {
			t = t.Not()
		}
		return t, err
	}
	ex.stats.SubqueryEvals++
	rel, err := ex.evalSubplan(q.Plan, env)
	if err != nil {
		return types.Unknown, err
	}
	return types.TriOf((rel.Cardinality() > 0) == (q.Quant == algebra.Exists)), nil
}

// evalAllAny folds l θ y over the block's single output column in
// Kleene logic: AND for ALL (TRUE on empty input), OR for ANY (FALSE on
// empty input), stopping at the fold's absorbing value.
func (ex *Executor) evalAllAny(op types.CompareOp, all bool, l algebra.Expr, plan algebra.Op, env *Env) (types.TriBool, error) {
	ex.stats.SubqueryEvals++
	rel, err := ex.evalSubplan(plan, env)
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
