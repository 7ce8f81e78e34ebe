// Package stats implements the cardinality, selectivity and cost
// estimation the optimizer's cost-based decisions rely on, and the one
// rule that orders a predicate's operands (Order): descending by the
// share of rows an operand decides per unit of its cost. For a bypass
// cascade that is the paper's predicate rank (Slagle [26]) applied to
// the negated disjunct, and it decides whether Equivalence 2 (cheap
// predicate first) or Equivalence 3 (unnested subquery first) applies.
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

// Estimator derives estimates from catalog statistics. It computes
// each estimate once: a plan's cardinality is memoized per operator and
// an attribute's column statistics per (plan, attribute), so estimating
// a node its planner has already estimated below, or asking twice, is a
// map read. The keys are algebra nodes, which are immutable once built.
// The memo is made on first use and makes an estimator unsafe for
// concurrent use: each one serves one statement's planning, or one
// executor under its lock.
type Estimator struct {
	cat   catalog.Reader
	cards map[algebra.Op]float64
	cols  map[colKey]*catalog.ColumnStats
}

type colKey struct {
	plan algebra.Op
	attr string
}

// New returns an estimator over a catalog view — the live catalog or a
// pinned snapshot, so estimates and execution can share one version.
func New(cat catalog.Reader) *Estimator {
	return &Estimator{cat: cat}
}

// colStats finds base-table statistics for an attribute by locating the
// scan that produces it inside the plan. Returns nil for synthetic
// attributes (g, t, …), for a column with no values, or when the plan is
// nil.
func (e *Estimator) colStats(plan algebra.Op, attr string) *catalog.ColumnStats {
	if plan == nil || e.cat == nil {
		return nil
	}
	key := colKey{plan, attr}
	if st, ok := e.cols[key]; ok {
		return st
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
	var st *catalog.ColumnStats
	if found != nil {
		if tbl, err := e.cat.Lookup(found.Table); err == nil && idx < tbl.Rel.Schema.Len() {
			if st = tbl.ColumnStats(idx); st.Distinct == 0 {
				st = nil
			}
		}
	}
	if e.cols == nil {
		e.cols = make(map[colKey]*catalog.ColumnStats)
	}
	e.cols[key] = st
	return st
}

// colStatsIn is colStats over two inputs, l searched first.
func (e *Estimator) colStatsIn(l, r algebra.Op, attr string) *catalog.ColumnStats {
	if st := e.colStats(l, attr); st != nil {
		return st
	}
	return e.colStats(r, attr)
}

// Cardinality estimates the number of output tuples of a plan.
func (e *Estimator) Cardinality(op algebra.Op) float64 {
	if c, ok := e.cards[op]; ok {
		return c
	}
	c := e.cardinality(op)
	if e.cards == nil {
		e.cards = make(map[algebra.Op]float64)
	}
	e.cards[op] = c
	return c
}

func (e *Estimator) cardinality(op algebra.Op) float64 {
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
			if st := e.colStats(x.Child, a); st != nil {
				d *= float64(st.Distinct)
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
	return e.selectivity(pred, input, nil)
}

// JoinSelectivity estimates the fraction of the pairs of l × r a
// predicate keeps: what Selectivity returns over the join of l and r,
// without building the join.
func (e *Estimator) JoinSelectivity(pred algebra.Expr, l, r algebra.Op) float64 {
	return e.selectivity(pred, l, r)
}

// selectivity is Selectivity over the inputs l and r, whose column
// statistics are looked up in l first; r may be nil.
func (e *Estimator) selectivity(pred algebra.Expr, l, r algebra.Op) float64 {
	switch x := pred.(type) {
	case nil:
		return 1
	case *algebra.ConstExpr:
		if b, ok := x.Val.BoolOk(); ok && b {
			return 1
		}
		return 0
	case *algebra.AndExpr:
		return e.selectivity(x.L, l, r) * e.selectivity(x.R, l, r)
	case *algebra.OrExpr:
		sl, sr := e.selectivity(x.L, l, r), e.selectivity(x.R, l, r)
		return sl + sr - sl*sr
	case *algebra.NotExpr:
		return 1 - e.selectivity(x.E, l, r)
	case *algebra.IsTrueExpr:
		return e.selectivity(x.E, l, r) // the same rows pass
	case *algebra.LikeExpr:
		return defaultLikeSel
	case *algebra.IsNullExpr:
		return 0.05
	case *algebra.CmpExpr:
		return e.cmpSelectivity(x, l, r)
	case *algebra.QuantSubquery:
		return defaultSel
	case *algebra.AllAnyExpr:
		return defaultSel
	default:
		return defaultSel
	}
}

func (e *Estimator) cmpSelectivity(c *algebra.CmpExpr, l, r algebra.Op) float64 {
	// Column-versus-constant with statistics.
	col, cst, op := c.L, c.R, c.Op
	if _, isCol := col.(*algebra.ColRef); !isCol {
		col, cst, op = c.R, c.L, c.Op.Flip()
	}
	cr, isCol := col.(*algebra.ColRef)
	cc, isConst := cst.(*algebra.ConstExpr)
	if isCol && isConst {
		st := e.colStatsIn(l, r, cr.Name)
		switch op {
		case types.EQ:
			if st != nil {
				return 1 / float64(st.Distinct)
			}
			return defaultEqSel
		case types.NE:
			if st != nil {
				return 1 - 1/float64(st.Distinct)
			}
			return 1 - defaultEqSel
		default:
			if v, okv := cc.Val.AsFloat(); st != nil && okv && st.Max > st.Min {
				frac := (v - st.Min) / (st.Max - st.Min)
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
		d := 0
		for _, name := range [2]string{lc.Name, rc.Name} {
			if st := e.colStatsIn(l, r, name); st != nil {
				d = max(d, st.Distinct)
			}
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
