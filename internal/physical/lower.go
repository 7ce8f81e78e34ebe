package physical

import (
	"fmt"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Planner lowers logical algebra into physical plans. It memoizes per
// logical operator so DAG-shaped plans (shared bypass subplans) lower
// to DAG-shaped physical plans, and it eagerly lowers every nested
// subquery plan reachable through operator expressions, so evaluation
// never plans.
//
// Algorithm selection rules, in order:
//
//	join, semijoin, antijoin, outerjoin:
//	    hash on the equality conjuncts when any exist (residual
//	    conjuncts re-checked per matched pair), nested loops otherwise.
//	binary grouping: one probing operator, hashing the right side when
//	    the predicate is pure equality and scanning it per left tuple
//	    otherwise — except that an untagged single column inequality
//	    with decomposable single-partial aggregates runs the sort-based
//	    prefix/suffix algorithm. A tag (Eqv. 5) only adds the shared
//	    base fold to the probing operator.
//
// The rules are deliberately deterministic — hashing a materialized
// input is never slower than the quadratic scan at more than a handful
// of tuples, and stable choices keep golden plans byte-stable. The
// estimator supplies every node's cardinality annotation, which is what
// makes each choice auditable in EXPLAIN.
type Planner struct {
	est  *stats.Estimator
	memo map[algebra.Op]Node
	// blocks are the memo's entries for the roots of nested query blocks:
	// what evaluation looks up, and all a Plan keeps of the memo.
	blocks map[algebra.Op]Node
}

// NewPlanner returns a planner costing with the given estimator.
func NewPlanner(est *stats.Estimator) *Planner {
	return &Planner{est: est, memo: make(map[algebra.Op]Node)}
}

// NodeCount returns how many physical nodes this planner has created;
// node IDs are dense in [0, NodeCount), so it sizes metric slices.
func (p *Planner) NodeCount() int { return len(p.memo) }

// Plan is a lowered query: the root's physical node and, reachable from
// it, the node of every operator, nested query blocks included. Block
// roots are all evaluation ever looks up (the rest it reaches through
// Children), so they are the lookup a Plan keeps. Nothing is added
// after the planner hands a Plan back: nodes and their compiled
// programs are immutable after lowering, and any number of concurrent
// executions may share one Plan without synchronisation.
type Plan struct {
	Root   Node
	blocks map[algebra.Op]Node
	nodes  int
}

// BlockFor returns the physical root of a nested query block of the
// plan; every block evaluation can reach resolves.
func (pl *Plan) BlockFor(root algebra.Op) (Node, bool) {
	n, ok := pl.blocks[root]
	return n, ok
}

// NodeCount is the number of nodes; their IDs are dense in [0, NodeCount).
func (pl *Plan) NodeCount() int { return pl.nodes }

// Plan lowers a finished logical plan and hands it back frozen: the
// planner is spent afterwards.
func (p *Planner) Plan(op algebra.Op) (*Plan, error) {
	root, err := p.Lower(op)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Root: root, blocks: p.blocks, nodes: len(p.memo)}
	p.memo, p.blocks = nil, nil
	return pl, nil
}

// Lower produces the physical plan for a logical operator (memoized).
func (p *Planner) Lower(op algebra.Op) (Node, error) {
	if n, ok := p.memo[op]; ok {
		return n, nil
	}
	n, err := p.lower(op)
	if err != nil {
		return nil, err
	}
	// Path selection: compile columnar programs for nodes the
	// vectorized path can run (see vectorize.go).
	p.vectorize(n)
	n.setID(len(p.memo))
	p.memo[op] = n
	// Pre-lower nested query blocks referenced by this operator's
	// expressions (scalar/quantified subqueries and their arguments).
	for _, sub := range algebra.NestedPlans(op) {
		b, err := p.Lower(sub)
		if err != nil {
			return nil, err
		}
		if p.blocks == nil {
			p.blocks = make(map[algebra.Op]Node)
		}
		p.blocks[sub] = b
	}
	return n, nil
}

func (p *Planner) lower(op algebra.Op) (Node, error) {
	b := base{logical: op, est: p.est.Cardinality(op)}
	switch x := op.(type) {
	case *algebra.Scan:
		return &Scan{base: b, Table: x.Table}, nil

	case *algebra.Select:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &Filter{base: b, Child: child, Pred: x.Pred}, nil

	case *algebra.BypassSelect:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &BypassFilter{base: b, Child: child, Pred: x.Pred}, nil

	case *algebra.Stream:
		src, err := p.Lower(x.Source)
		if err != nil {
			return nil, err
		}
		if _, ok := src.(*BypassFilter); !ok {
			return nil, fmt.Errorf("physical: Stream over non-bypass operator %T", x.Source)
		}
		return &Stream{base: b, Source: src, Positive: x.Positive}, nil

	case *algebra.Project:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		cols, err := x.Child.Schema().Projection(x.Attrs)
		if err != nil {
			return nil, err
		}
		return &Project{base: b, Child: child, Cols: cols}, nil

	case *algebra.Rename:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &Rename{base: b, Child: child}, nil

	case *algebra.MapOp:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &Map{base: b, Child: child, Attr: x.Attr, Expr: x.Expr}, nil

	case *algebra.CrossProduct:
		l, r, err := p.lower2(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &NLJoin{base: b, L: l, R: r, Mode: JoinInner}, nil

	case *algebra.Join:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinInner)

	case *algebra.SemiJoin:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinSemi)

	case *algebra.AntiJoin:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinAnti)

	case *algebra.LeftOuterJoin:
		l, r, err := p.lower2(x.L, x.R)
		if err != nil {
			return nil, err
		}
		pad := make([]types.Value, x.R.Schema().Len())
		for _, d := range x.Defaults {
			if i := x.R.Schema().Index(d.Attr); i >= 0 {
				pad[i] = d.Val
			}
		}
		j := &OuterJoin{base: b, L: l, R: r, Pred: x.Pred, Pad: pad}
		keys, residual := splitEquiJoin(x.Pred, x.L.Schema(), x.R.Schema())
		if len(keys) > 0 {
			j.Hash = true
			j.LCols, j.RCols = keyCols(keys)
			j.Residual = andOrNil(residual)
		}
		return j, nil

	case *algebra.GroupBy:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		if len(x.Attrs) == 0 && !x.Global {
			return nil, fmt.Errorf("physical: grouping without attributes requires Global")
		}
		keyCols, err := x.Child.Schema().Projection(x.Attrs)
		if err != nil {
			return nil, err
		}
		return &Group{base: b, Child: child, KeyCols: keyCols, Attrs: x.Attrs,
			Aggs: x.Aggs, Global: x.Global}, nil

	case *algebra.BinaryGroup:
		l, r, err := p.lower2(x.L, x.R)
		if err != nil {
			return nil, err
		}
		tagCol := -1
		if x.Tag != "" {
			if tagCol = x.R.Schema().Index(x.Tag); tagCol < 0 {
				return nil, fmt.Errorf("physical: tag %q not in %s", x.Tag, x.R.Schema())
			}
		}
		bg := &BinaryGroup{base: b, L: l, R: r, Pred: x.Pred, TagCol: tagCol, Aggs: x.Aggs}
		if keys, residual := splitEquiJoin(x.Pred, x.L.Schema(), x.R.Schema()); len(keys) > 0 && len(residual) == 0 {
			bg.LCols, bg.RCols = keyCols(keys)
		} else if lcol, rcol, cop, ok := thetaGroupable(x); ok && tagCol < 0 {
			return &BinaryGroupSort{base: b, L: l, R: r,
				LIdx: x.L.Schema().Index(lcol), RIdx: x.R.Schema().Index(rcol),
				Op: cop, Aggs: x.Aggs}, nil
		}
		return bg, nil

	case *algebra.UnionDisjoint:
		l, r, err := p.lower2(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &Union{base: b, L: l, R: r, Disjoint: true}, nil

	case *algebra.UnionAll:
		l, r, err := p.lower2(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &Union{base: b, L: l, R: r}, nil

	case *algebra.Distinct:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &Distinct{base: b, Child: child}, nil

	case *algebra.Sort:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		cols := make([]int, len(x.Keys))
		desc := make([]bool, len(x.Keys))
		for i, k := range x.Keys {
			c := x.Child.Schema().Index(k.Attr)
			if c < 0 {
				return nil, fmt.Errorf("physical: sort key %q not in %s", k.Attr, x.Child.Schema())
			}
			cols[i] = c
			desc[i] = k.Desc
		}
		return &Sort{base: b, Child: child, Cols: cols, Desc: desc}, nil

	case *algebra.Limit:
		child, err := p.Lower(x.Child)
		if err != nil {
			return nil, err
		}
		return &Limit{base: b, Child: child, N: x.N}, nil

	default:
		return nil, fmt.Errorf("physical: unsupported operator %T", op)
	}
}

func (p *Planner) lower2(l, r algebra.Op) (Node, Node, error) {
	ln, err := p.Lower(l)
	if err != nil {
		return nil, nil, err
	}
	rn, err := p.Lower(r)
	if err != nil {
		return nil, nil, err
	}
	return ln, rn, nil
}

// lowerJoin picks the join algorithm: hash on equality conjuncts when
// any exist, nested loops otherwise.
func (p *Planner) lowerJoin(b base, lop, rop algebra.Op, pred algebra.Expr, mode JoinMode) (Node, error) {
	l, r, err := p.lower2(lop, rop)
	if err != nil {
		return nil, err
	}
	keys, residual := splitEquiJoin(pred, lop.Schema(), rop.Schema())
	if len(keys) > 0 {
		lc, rc := keyCols(keys)
		return &HashJoin{base: b, L: l, R: r, Mode: mode,
			LCols: lc, RCols: rc, Residual: andOrNil(residual)}, nil
	}
	return &NLJoin{base: b, L: l, R: r, Mode: mode, Pred: pred}, nil
}

// equiKey is one equality conjunct usable for hashing: positions of the
// key columns in the left and right schemas.
type equiKey struct {
	l, r int
}

// splitEquiJoin extracts hashable equality conjuncts (L-column =
// R-column) from a join predicate, returning the keys and the residual
// conjuncts that must still be evaluated per matched pair.
func splitEquiJoin(pred algebra.Expr, ls, rs *storage.Schema) (keys []equiKey, residual []algebra.Expr) {
	if pred == nil {
		return nil, nil
	}
	for _, c := range algebra.SplitConjuncts(pred) {
		cmp, ok := c.(*algebra.CmpExpr)
		if ok && cmp.Op == types.EQ {
			lc, lok := cmp.L.(*algebra.ColRef)
			rc, rok := cmp.R.(*algebra.ColRef)
			if lok && rok {
				if li, ri := ls.Index(lc.Name), rs.Index(rc.Name); li >= 0 && ri >= 0 {
					keys = append(keys, equiKey{l: li, r: ri})
					continue
				}
				if li, ri := ls.Index(rc.Name), rs.Index(lc.Name); li >= 0 && ri >= 0 {
					keys = append(keys, equiKey{l: li, r: ri})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}

func keyCols(keys []equiKey) (lcols, rcols []int) {
	lcols = make([]int, len(keys))
	rcols = make([]int, len(keys))
	for i, k := range keys {
		lcols[i] = k.l
		rcols[i] = k.r
	}
	return lcols, rcols
}

func andOrNil(conjuncts []algebra.Expr) algebra.Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	return algebra.And(conjuncts...)
}

// thetaGroupable reports whether a binary grouping can run sort-based:
// a single column-vs-column inequality and all aggregates decomposable
// with single-valued partials (no DISTINCT, no AVG — AVG decomposes
// into two partials and is rewritten upstream).
func thetaGroupable(bg *algebra.BinaryGroup) (lcol, rcol string, op types.CompareOp, ok bool) {
	cmp, isCmp := bg.Pred.(*algebra.CmpExpr)
	if !isCmp {
		return "", "", 0, false
	}
	switch cmp.Op {
	case types.LT, types.LE, types.GT, types.GE:
	default:
		return "", "", 0, false
	}
	l, lok := cmp.L.(*algebra.ColRef)
	r, rok := cmp.R.(*algebra.ColRef)
	if !lok || !rok {
		return "", "", 0, false
	}
	op = cmp.Op
	if bg.L.Schema().Has(l.Name) && bg.R.Schema().Has(r.Name) {
		lcol, rcol = l.Name, r.Name
	} else if bg.L.Schema().Has(r.Name) && bg.R.Schema().Has(l.Name) {
		lcol, rcol = r.Name, l.Name
		op = op.Flip()
	} else {
		return "", "", 0, false
	}
	for _, item := range bg.Aggs {
		if item.Spec.Distinct || item.Spec.Kind == agg.Avg {
			return "", "", 0, false
		}
	}
	return lcol, rcol, op, true
}
