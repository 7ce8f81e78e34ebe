// Package vec compiles scalar predicates and expressions into
// column-at-a-time programs evaluated over storage.Batch vectors. It is
// the kernel layer of the vectorized execution path: the planner
// (internal/physical) decides which nodes are eligible and compiles
// their expressions here at lowering time; the executor (internal/exec)
// runs the compiled programs morsel by morsel.
//
// Semantics are defined by the row path: a compiled predicate computes,
// for every input row, exactly the TriBool the tuple-at-a-time
// interpreter would, and charges the same number of comparisons the
// interpreter would charge for the rows it actually evaluates. AND/OR
// evaluate their operands in list order over a shrinking set of
// still-undecided rows — the columnar analogue of the interpreter's
// per-row short-circuit, and the hook the planner's BestD-style
// disjunct ordering plugs into.
//
// Expressions that need an environment (subqueries, quantifiers,
// aggregate combination, outer-correlated column references) do not
// compile; callers treat a compile error as "this node takes the row
// path".
package vec

import (
	"fmt"
	"sort"

	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Pred is a compiled three-valued predicate over one schema.
// It is immutable after compilation and safe for concurrent Eval calls.
type Pred struct {
	root pnode
	cols []int
	src  algebra.Expr
}

// Scalar is a compiled scalar expression over one schema.
type Scalar struct {
	root snode
	cols []int
	src  algebra.Expr
}

// CompilePred compiles e as a predicate against schema s. Every column
// reference must resolve in s — an unresolved name (an outer
// correlation at runtime) is a compile error, not a runtime fallback.
func CompilePred(e algebra.Expr, s *storage.Schema) (*Pred, error) {
	c := &compiler{schema: s, cols: map[int]bool{}}
	root, err := c.pred(e)
	if err != nil {
		return nil, err
	}
	return &Pred{root: root, cols: c.sorted(), src: e}, nil
}

// CompileScalar compiles e as a scalar expression against schema s.
func CompileScalar(e algebra.Expr, s *storage.Schema) (*Scalar, error) {
	c := &compiler{schema: s, cols: map[int]bool{}}
	root, err := c.scalar(e)
	if err != nil {
		return nil, err
	}
	return &Scalar{root: root, cols: c.sorted(), src: e}, nil
}

// Cols lists the column positions the predicate reads (sorted). The
// coordinator materializes exactly these vectors before fanning out.
func (p *Pred) Cols() []int { return p.cols }

// Expr returns the (possibly reordered) source expression the predicate
// was compiled from.
func (p *Pred) Expr() algebra.Expr { return p.src }

// Cols lists the column positions the scalar reads (sorted).
func (s *Scalar) Cols() []int { return s.cols }

// Expr returns the source expression the scalar was compiled from.
func (s *Scalar) Expr() algebra.Expr { return s.src }

// Eval evaluates the predicate over rows [lo,hi) of b in three-valued
// logic. res[i-lo] holds row i's truth value; cmps is the number of
// comparisons charged, matching what the row interpreter would charge
// for the same rows.
func (p *Pred) Eval(b *storage.Batch, lo, hi int) (res []types.TriBool, cmps int64, err error) {
	ctx := &evalCtx{b: b, lo: lo, n: hi - lo}
	res = make([]types.TriBool, hi-lo)
	if err := p.root.eval(ctx, ctx.allRows(), res); err != nil {
		return nil, ctx.cmps, err
	}
	return res, ctx.cmps, nil
}

// Eval evaluates the scalar over rows [lo,hi) of b.
func (s *Scalar) Eval(b *storage.Batch, lo, hi int) (res []types.Value, cmps int64, err error) {
	ctx := &evalCtx{b: b, lo: lo, n: hi - lo}
	res = make([]types.Value, hi-lo)
	if err := s.root.eval(ctx, ctx.allRows(), res); err != nil {
		return nil, ctx.cmps, err
	}
	return res, ctx.cmps, nil
}

// compiler resolves column references and records which columns the
// program touches.
type compiler struct {
	schema *storage.Schema
	cols   map[int]bool
}

func (c *compiler) sorted() []int {
	out := make([]int, 0, len(c.cols))
	for i := range c.cols {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func (c *compiler) pred(e algebra.Expr) (pnode, error) {
	switch x := e.(type) {
	case *algebra.CmpExpr:
		l, err := c.scalar(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(x.R)
		if err != nil {
			return nil, err
		}
		return &pcmp{op: x.Op, l: l, r: r}, nil
	case *algebra.AndExpr:
		parts, err := c.preds(algebra.SplitConjuncts(x))
		if err != nil {
			return nil, err
		}
		return &pand{parts: parts}, nil
	case *algebra.OrExpr:
		parts, err := c.preds(algebra.SplitDisjuncts(x))
		if err != nil {
			return nil, err
		}
		return &por{parts: parts}, nil
	case *algebra.NotExpr:
		return c.mask(x.E, notMask)
	case *algebra.IsTrueExpr:
		return c.mask(x.E, isTrueMask)
	case *algebra.LikeExpr:
		l, err := c.scalar(x.L)
		if err != nil {
			return nil, err
		}
		pat, err := c.scalar(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &plike{l: l, pat: pat}, nil
	case *algebra.IsNullExpr:
		child, err := c.scalar(x.E)
		if err != nil {
			return nil, err
		}
		return &pisnull{child: child}, nil
	case *algebra.ColRef, *algebra.ConstExpr, *algebra.ArithExpr:
		child, err := c.scalar(e)
		if err != nil {
			return nil, err
		}
		return &pvalue{child: child}, nil
	default:
		return nil, fmt.Errorf("vec: %T does not vectorize", e)
	}
}

func (c *compiler) mask(e algebra.Expr, to [3]types.TriBool) (pnode, error) {
	child, err := c.pred(e)
	if err != nil {
		return nil, err
	}
	return &pmask{child: child, to: to}, nil
}

func (c *compiler) preds(es []algebra.Expr) ([]pnode, error) {
	out := make([]pnode, len(es))
	for i, e := range es {
		p, err := c.pred(e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func (c *compiler) scalar(e algebra.Expr) (snode, error) {
	switch x := e.(type) {
	case *algebra.ColRef:
		idx := c.schema.Index(x.Name)
		if idx < 0 {
			return nil, fmt.Errorf("vec: column %q not in input schema", x.Name)
		}
		c.cols[idx] = true
		return &scol{idx: idx}, nil
	case *algebra.ConstExpr:
		return &sconst{v: x.Val}, nil
	case *algebra.ArithExpr:
		l, err := c.scalar(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.scalar(x.R)
		if err != nil {
			return nil, err
		}
		return &sarith{op: x.Op, l: l, r: r}, nil
	case *algebra.CmpExpr, *algebra.AndExpr, *algebra.OrExpr, *algebra.NotExpr,
		*algebra.LikeExpr, *algebra.IsNullExpr, *algebra.IsTrueExpr:
		p, err := c.pred(e)
		if err != nil {
			return nil, err
		}
		return &spred{child: p}, nil
	default:
		return nil, fmt.Errorf("vec: %T does not vectorize", e)
	}
}
