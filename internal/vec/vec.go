// Package vec compiles scalar predicates and expressions into
// column-at-a-time programs evaluated over a window of column vectors
// (a Frame), on a selection of its rows (EvalSel). It is
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
	"math/bits"
	"slices"

	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Pred is a compiled three-valued predicate over one schema.
// It is immutable after compilation and safe for concurrent EvalSel
// calls, each with a Scratch of its own.
// A predicate reading few columns lists them in its own buf.
type Pred struct {
	root pnode
	cols []int
	src  algebra.Expr
	buf  [4]int
}

// Scalar is a compiled scalar expression over one schema.
type Scalar struct {
	root snode
	cols []int
	src  algebra.Expr
}

// Columns resolves the column references of an expression to positions
// in the rows a program runs over. The physical planner's binder is the
// one implementation, so a compiled program and the row interpreter read
// every column where the same resolution put it.
type Columns interface {
	// Column returns the position of the named column in the rows, false
	// when it is not one of theirs (an outer correlation).
	Column(name string) (int, bool)
}

// CompilePred compiles e as a predicate over rows whose columns cols
// resolves. Every column reference must resolve there — an unresolved
// name (an outer correlation at runtime) is a compile error, not a
// runtime fallback.
func CompilePred(e algebra.Expr, cols Columns) (*Pred, error) {
	c := compiler{resolve: cols}
	root, err := c.pred(e)
	if err != nil {
		return nil, err
	}
	p := &Pred{root: root, src: e}
	p.cols = c.sorted(p.buf[:0])
	return p, nil
}

// CompileScalar compiles e as a scalar expression over rows whose
// columns cols resolves.
func CompileScalar(e algebra.Expr, cols Columns) (*Scalar, error) {
	c := compiler{resolve: cols}
	root, err := c.scalar(e)
	if err != nil {
		return nil, err
	}
	return &Scalar{root: root, cols: c.sorted(nil), src: e}, nil
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

// Frame is the columns of one window of rows, by position: the columns
// a program reads, indexed from the window's first row — a batch's
// sliced to the window (ColVec.Slice), or vectors an operator gathered
// itself.
type Frame []storage.ColVec

// Scratch is the buffers of a sequence of evaluations on one goroutine,
// kept from one to the next: a caller that evaluates window after
// window, each no longer than the first, allocates them once.
type Scratch struct {
	ctx evalCtx
	all []int32
}

// All returns the rows 0 … n-1 of a window as a selection, not to be
// written: a prefix of one list the scratch keeps.
func (sc *Scratch) All(n int) []int32 {
	if k := len(sc.all); k < n {
		sc.all = slices.Grow(sc.all, n-k)
		for i := k; i < n; i++ {
			sc.all = append(sc.all, int32(i))
		}
	}
	return sc.all[:n:n]
}

// open readies the scratch's context for a window of n rows of f.
func (sc *Scratch) open(f Frame, n int) *evalCtx {
	sc.ctx.f, sc.ctx.n, sc.ctx.cmps = f, n, 0
	return &sc.ctx
}

// close drops the frame and returns the comparisons charged since open.
func (sc *Scratch) close() int64 {
	sc.ctx.f = nil
	return sc.ctx.cmps
}

// EvalSel evaluates the predicate in three-valued logic over the rows
// sel of frame f, writing row r's truth value to res[r] and leaving the
// others untouched, and returns the comparisons charged: those the row
// interpreter charges for the same rows. res is as long as the window.
func (p *Pred) EvalSel(sc *Scratch, f Frame, sel []int32, res []types.TriBool) (int64, error) {
	err := p.root.eval(sc.open(f, len(res)), sel, res)
	return sc.close(), err
}

// EvalSel evaluates the scalar over the rows sel of frame f, writing row
// r's value to res[r], as Pred.EvalSel does.
func (s *Scalar) EvalSel(sc *Scratch, f Frame, sel []int32, res []types.Value) (int64, error) {
	err := s.root.eval(sc.open(f, len(res)), sel, res)
	return sc.close(), err
}

// compiler records which columns the program touches: bit i of low for
// column i below 64, the others in high.
type compiler struct {
	resolve Columns
	low     uint64
	high    []int
}

// sorted returns the columns the program reads, once each, in order,
// appended to out, which is grown only if it is too short.
func (c *compiler) sorted(out []int) []int {
	slices.Sort(c.high)
	high := slices.Compact(c.high)
	out = slices.Grow(out, bits.OnesCount64(c.low)+len(high))
	for low := c.low; low != 0; low &= low - 1 {
		out = append(out, bits.TrailingZeros64(low))
	}
	return append(out, high...)
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
		var buf [8]algebra.Expr
		parts, err := c.preds(algebra.AppendConjuncts(buf[:0], x))
		if err != nil {
			return nil, err
		}
		return &pand{parts: parts}, nil
	case *algebra.OrExpr:
		var buf [8]algebra.Expr
		parts, err := c.preds(algebra.AppendDisjuncts(buf[:0], x))
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
		idx, ok := c.resolve.Column(x.Name)
		if !ok {
			return nil, fmt.Errorf("vec: column %q not in input schema", x.Name)
		}
		if idx < 64 {
			c.low |= 1 << uint(idx)
		} else {
			c.high = append(c.high, idx)
		}
		return scol(idx), nil
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
