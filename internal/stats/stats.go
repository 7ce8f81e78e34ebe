// Package stats implements the cardinality, selectivity and cost
// estimation the rewriter's cost-based decisions rely on — most
// importantly the predicate *rank* (Slagle [26]) the paper uses to decide
// whether Equivalence 2 (cheap predicate first) or Equivalence 3
// (unnested subquery first) orders a bypass cascade:
//
//	rank(p) = (selectivity(p) − 1) / cost(p),
//
// evaluated lowest-rank-first.
package stats

import (
	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/types"
)

// Default selectivities when no statistics apply.
const (
	defaultEqSel    = 0.1
	defaultRangeSel = 1.0 / 3
	defaultLikeSel  = 0.25
	defaultSel      = 0.5
)

// Per-tuple evaluation costs in abstract units.
const (
	costCompare      = 1.0
	costLike         = 5.0
	costArith        = 0.5
	costSubqueryBase = 50.0 // fixed overhead per nested evaluation
)

// Estimator derives estimates from catalog statistics.
type Estimator struct {
	cat catalog.Reader
}

// New returns an estimator over a catalog view — the live catalog or a
// pinned snapshot, so estimates and execution can share one version.
func New(cat catalog.Reader) *Estimator {
	return &Estimator{cat: cat}
}

// colStats finds base-table statistics for an attribute by locating the
// scan that produces it inside the plan. Returns ok=false for synthetic
// attributes (g, t, …) or when the plan is nil.
func (e *Estimator) colStats(plan algebra.Op, attr string) (distinct int, lo, hi float64, ok bool) {
	if plan == nil || e.cat == nil {
		return 0, 0, 0, false
	}
	var found *algebra.Scan
	var idx int
	algebra.Walk(plan, func(op algebra.Op) bool {
		if s, isScan := op.(*algebra.Scan); isScan && found == nil {
			if i := s.Schema().Index(attr); i >= 0 {
				found = s
				idx = i
				return false
			}
		}
		return true
	})
	if found == nil {
		return 0, 0, 0, false
	}
	tbl, err := e.cat.Lookup(found.Table)
	if err != nil || idx >= tbl.Rel.Schema.Len() {
		return 0, 0, 0, false
	}
	st := tbl.ColumnStats(idx)
	return st.Distinct, st.Min, st.Max, st.Distinct > 0
}

// Cardinality estimates the number of output tuples of a plan.
func (e *Estimator) Cardinality(op algebra.Op) float64 {
	switch x := op.(type) {
	case *algebra.Scan:
		if e.cat != nil {
			if tbl, err := e.cat.Lookup(x.Table); err == nil {
				return float64(len(tbl.Rel.Tuples))
			}
		}
		return 1000
	case *algebra.Select:
		return e.Cardinality(x.Child) * e.Selectivity(x.Pred, x.Child)
	case *algebra.BypassSelect:
		return e.Cardinality(x.Child)
	case *algebra.Stream:
		base := e.Cardinality(x.Source)
		sel := defaultSel
		if s, ok := x.Source.(*algebra.BypassSelect); ok {
			sel = e.Selectivity(s.Pred, x.Source)
		}
		if x.Positive {
			return base * sel
		}
		return base * (1 - sel)
	case *algebra.Project:
		return e.Cardinality(x.Child)
	case *algebra.Rename:
		return e.Cardinality(x.Child)
	case *algebra.MapOp:
		return e.Cardinality(x.Child)
	case *algebra.CrossProduct:
		return e.Cardinality(x.L) * e.Cardinality(x.R)
	case *algebra.Join:
		return e.Cardinality(x.L) * e.Cardinality(x.R) * e.Selectivity(x.Pred, op)
	case *algebra.LeftOuterJoin:
		// Grouped inner keyed on the join attribute: cardinality of the
		// outer side (paper §3.7).
		return e.Cardinality(x.L)
	case *algebra.SemiJoin:
		return e.Cardinality(x.L) * defaultSel
	case *algebra.AntiJoin:
		return e.Cardinality(x.L) * defaultSel
	case *algebra.GroupBy:
		if x.Global {
			return 1
		}
		card := e.Cardinality(x.Child)
		d := 1.0
		for _, a := range x.Attrs {
			if dist, _, _, ok := e.colStats(x.Child, a); ok {
				d *= float64(dist)
			} else {
				d *= card / 10
			}
		}
		if d > card {
			return card
		}
		if d < 1 {
			return 1
		}
		return d
	case *algebra.BinaryGroup:
		return e.Cardinality(x.L)
	case *algebra.UnionDisjoint:
		return e.Cardinality(x.L) + e.Cardinality(x.R)
	case *algebra.UnionAll:
		return e.Cardinality(x.L) + e.Cardinality(x.R)
	case *algebra.Distinct:
		return e.Cardinality(x.Child) * 0.9
	case *algebra.Sort:
		return e.Cardinality(x.Child)
	case *algebra.Limit:
		c := e.Cardinality(x.Child)
		if float64(x.N) < c {
			return float64(x.N)
		}
		return c
	default:
		return 1000
	}
}

// Selectivity estimates the fraction of input tuples a predicate keeps.
// The input plan provides column statistics; it may be nil.
func (e *Estimator) Selectivity(pred algebra.Expr, input algebra.Op) float64 {
	switch x := pred.(type) {
	case nil:
		return 1
	case *algebra.ConstExpr:
		if b, ok := x.Val.BoolOk(); ok && b {
			return 1
		}
		return 0
	case *algebra.AndExpr:
		return e.Selectivity(x.L, input) * e.Selectivity(x.R, input)
	case *algebra.OrExpr:
		l, r := e.Selectivity(x.L, input), e.Selectivity(x.R, input)
		return l + r - l*r
	case *algebra.NotExpr:
		return 1 - e.Selectivity(x.E, input)
	case *algebra.IsTrueExpr:
		return e.Selectivity(x.E, input) // the same rows pass
	case *algebra.LikeExpr:
		return defaultLikeSel
	case *algebra.IsNullExpr:
		return 0.05
	case *algebra.CmpExpr:
		return e.cmpSelectivity(x, input)
	case *algebra.QuantSubquery:
		return defaultSel
	case *algebra.AllAnyExpr:
		return defaultSel
	default:
		return defaultSel
	}
}

func (e *Estimator) cmpSelectivity(c *algebra.CmpExpr, input algebra.Op) float64 {
	// Column-versus-constant with statistics.
	col, cst, op := c.L, c.R, c.Op
	if _, isCol := col.(*algebra.ColRef); !isCol {
		col, cst, op = c.R, c.L, c.Op.Flip()
	}
	cr, isCol := col.(*algebra.ColRef)
	cc, isConst := cst.(*algebra.ConstExpr)
	if isCol && isConst {
		distinct, lo, hi, ok := e.colStats(input, cr.Name)
		switch op {
		case types.EQ:
			if ok && distinct > 0 {
				return 1 / float64(distinct)
			}
			return defaultEqSel
		case types.NE:
			if ok && distinct > 0 {
				return 1 - 1/float64(distinct)
			}
			return 1 - defaultEqSel
		default:
			if v, okv := cc.Val.AsFloat(); ok && okv && hi > lo {
				frac := (v - lo) / (hi - lo)
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
				if op == types.LT || op == types.LE {
					return frac
				}
				return 1 - frac
			}
			return defaultRangeSel
		}
	}
	// Column-versus-column equality: 1/max(d1, d2).
	lc, lok := c.L.(*algebra.ColRef)
	rc, rok := c.R.(*algebra.ColRef)
	if lok && rok && c.Op == types.EQ {
		d1, _, _, ok1 := e.colStats(input, lc.Name)
		d2, _, _, ok2 := e.colStats(input, rc.Name)
		d := 0
		if ok1 && d1 > d {
			d = d1
		}
		if ok2 && d2 > d {
			d = d2
		}
		if d > 0 {
			return 1 / float64(d)
		}
		return defaultEqSel
	}
	// Comparisons against subqueries.
	if c.Op == types.EQ {
		return defaultEqSel
	}
	return defaultRangeSel
}

// PredCost estimates the per-tuple cost of evaluating a predicate, with
// nested subqueries dominated by the cardinality of their plan — the
// nested-loop price the paper's rewrites avoid.
func (e *Estimator) PredCost(pred algebra.Expr) float64 {
	switch x := pred.(type) {
	case nil:
		return 0
	case *algebra.ColRef, *algebra.ConstExpr:
		return 0.1
	case *algebra.AndExpr:
		return e.PredCost(x.L) + e.PredCost(x.R)
	case *algebra.OrExpr:
		return e.PredCost(x.L) + e.PredCost(x.R)
	case *algebra.NotExpr:
		return e.PredCost(x.E)
	case *algebra.IsTrueExpr:
		return e.PredCost(x.E)
	case *algebra.LikeExpr:
		return costLike
	case *algebra.IsNullExpr:
		return costCompare
	case *algebra.ArithExpr:
		return costArith + e.PredCost(x.L) + e.PredCost(x.R)
	case *algebra.CmpExpr:
		return costCompare + e.PredCost(x.L) + e.PredCost(x.R)
	case *algebra.ScalarSubquery:
		if len(x.Free()) > 0 {
			return costSubqueryBase + e.planWork(x.Plan)
		}
		// Uncorrelated: evaluated once and memoized — cheap per tuple.
		return costCompare
	case *algebra.QuantSubquery:
		if len(x.Free()) > 0 {
			return costSubqueryBase + e.planWork(x.Plan)
		}
		return costCompare
	case *algebra.AllAnyExpr:
		if len(x.Free()) > 0 {
			return costSubqueryBase + e.planWork(x.Plan)
		}
		return costCompare
	default:
		return costCompare
	}
}

// planWork approximates the total tuples touched by evaluating a plan
// once.
func (e *Estimator) planWork(op algebra.Op) float64 {
	total := e.Cardinality(op)
	for _, in := range op.Inputs() {
		total += e.planWork(in)
	}
	return total
}

// Rank computes Slagle's rank (sel−1)/cost; predicates are evaluated in
// ascending rank order. Cheap, selective predicates rank lowest.
func (e *Estimator) Rank(pred algebra.Expr, input algebra.Op) float64 {
	cost := e.PredCost(pred)
	if cost <= 0 {
		cost = 0.01
	}
	return (e.Selectivity(pred, input) - 1) / cost
}
