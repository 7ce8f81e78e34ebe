package physical

import (
	"fmt"
	"slices"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
	"disqo/internal/vec"
)

// Binding. The planner resolves every column reference a node's
// row-path expressions make, once, to a Slot: the frame it reads and its
// position there. The executor pushes a node's frames once per morsel
// (or per block evaluation) and overwrites their tuple per row, so the
// interpreter reads frames[d][i] and never looks a name up.
//
// The frames an expression sees, innermost first:
//
//	depth 0 is the node's input row — for a join's or a Γ²'s pair of
//	    rows the right one (a Γ²'s results, for its fused selection),
//	    depth 1 the left;
//	a scalar subquery's aggregate argument sees the block's output row,
//	    then the frames of the expression embedding the block;
//	beyond those, inside a nested block, the block's parameter frame.
//
// A nested block reads its correlated columns from its parameter frame:
// the block's free columns (algebra.Block.Free), which the executor
// gathers from the embedding expression's frames each time it evaluates
// the block, by the Site's Params. So the block's own nodes are bound
// once, whatever embeds them: a block reached from two expressions over
// different frames — a σ and a χ over different inputs — has one Site,
// with its own Params, per expression, and one binding of its nodes. A
// correlated column has one position in every parameter frame of the
// plan (Planner.free), so an operator two blocks share — a rewritten
// NOT IN's input, under its three counts — reads it where either
// block's frame holds it.
//
// Slots live in the plan (Bound), never on the shared algebra.ColRef,
// and are cut from one slab per plan.
//
// vec's compiler takes its column positions from the same resolution
// (Columns): a compiled program reads the depth-0 frame's columns where
// the interpreter would, and an outer reference does not compile.

// Slot is a column reference bound to the frames its expression is
// evaluated on: column Index of the frame Depth frames out from the
// innermost.
type Slot struct{ Depth, Index int32 }

// Bound is a row-path expression bound to its frames: Src with its
// operands bound, L and R in Src's order — L alone for NOT, IS NULL, IS
// TRUE and a quantified subquery's left operand, and LIKE's pattern in R
// — and a column reference's Slot. A subquery's Src is its Site.
type Bound struct {
	Src  algebra.Expr
	L, R *Bound
	Slot Slot
}

// Col returns the column of the depth-0 frame b reads, when b is a
// column reference to it.
func (b *Bound) Col() (int, bool) {
	if _, ok := b.Src.(*algebra.ColRef); ok && b.Slot.Depth == 0 {
		return int(b.Slot.Index), true
	}
	return 0, false
}

// Site is a subquery expression — a ScalarSubquery, QuantSubquery or
// AllAnyExpr, which it embeds — as it reaches its nested block: the
// block's root; where the expression's frames hold the block's free
// columns, by their position in the parameter frame — Depth −1 for a
// position the block has no column at; and for a scalar subquery its
// aggregate's argument (nil for *), bound over the block's output row
// and then the expression's frames.
type Site struct {
	algebra.Expr
	Root   Node
	Params []Slot
	Arg    *Bound
	// ArgCols is the column of the block's output row Arg is, when it is
	// one: the accumulator reads it off the row.
	ArgCols []int
}

// AggArg is an aggregate item's argument bound to its input row: Expr,
// nil for *, and Cols, the row's columns the accumulator reads — the
// argument's, when it is a column of the row, or for a DISTINCT * the
// columns forming the * tuple — nil when Expr is evaluated instead. Spec
// is the spec the item's accumulators run: the item's, less a DISTINCT
// that means nothing (MIN, MAX). Dedup, for a DISTINCT item with Cols of
// a keyed fold — Γ's, or a hashed grouping's fold of its right input —
// holds the key columns followed by those of Cols that are not one: the
// fold deduplicates the item on them itself, and its accumulators there
// count what they are fed. A key column is not repeated because a
// group's rows hold identical keys, so the repeat decides nothing.
type AggArg struct {
	Expr  *Bound
	Cols  []int
	Spec  agg.Spec
	Dedup []int
}

// scope is what a row-path expression sees: frames, innermost first,
// each a row of schema sch, and beyond the outermost, inside a nested
// block, the parameter frame holding the block's free columns, params,
// each at its position in the plan's correlated columns, free.
type scope struct {
	sch          *storage.Schema
	outer        *scope
	params, free []string
}

// resolve is the binder's one resolution step: the innermost frame
// holding name, else the parameter frame, which param reports.
func (sc *scope) resolve(name string) (s Slot, ok, param bool) {
	d := int32(0)
	for f := sc; ; f = f.outer {
		if i := f.sch.Index(name); i >= 0 {
			return Slot{d, int32(i)}, true, false
		}
		d++
		if f.outer == nil {
			if slices.Contains(f.params, name) {
				return Slot{d, int32(slices.Index(f.free, name))}, true, true
			}
			return Slot{}, false, false
		}
	}
}

// Columns returns the binder's resolution over rows of schema sch, as a
// compiled program over them reads its columns.
func Columns(sch *storage.Schema) vec.Columns { return columns{sch} }

// columns is a scope of one frame as a value of one pointer, which a
// vec.Columns holds without an allocation.
type columns struct{ sch *storage.Schema }

// Column implements vec.Columns: a compiled program reads the depth-0
// frame's columns.
func (c columns) Column(name string) (int, bool) {
	s, ok, _ := (&scope{sch: c.sch}).resolve(name)
	return int(s.Index), ok && s.Depth == 0
}

// newBound cuts a Bound for src from the plan's slab, which Lower sizes
// for the plan's expressions (algebra.ExprSize). A full slab is
// replaced, not grown, so the Bounds already cut stay where they are.
func (p *Planner) newBound(src algebra.Expr) *Bound {
	if len(p.slab) == cap(p.slab) {
		p.slab = make([]Bound, 0, 16)
	}
	p.slab = append(p.slab, Bound{Src: src})
	return &p.slab[len(p.slab)-1]
}

// noCols is an empty list of columns, which is not nil: a nil emit list
// or key list means every column.
var noCols = []int{}

// newCols cuts n column positions from the plan's slab of them.
func (p *Planner) newCols(n int) []int {
	if n == 0 {
		return noCols
	}
	if cap(p.ints)-len(p.ints) < n {
		p.ints = make([]int, 0, max(p.size/2+4, n))
	}
	p.ints = p.ints[:len(p.ints)+n]
	return p.ints[len(p.ints)-n : len(p.ints) : len(p.ints)]
}

// bindExpr binds e to the frames sc describes; nil binds to nil.
func (p *Planner) bindExpr(e algebra.Expr, sc *scope) (*Bound, error) {
	if e == nil {
		return nil, nil
	}
	b := p.newBound(e)
	var err error
	switch x := e.(type) {
	case *algebra.ColRef:
		var ok, param bool
		if b.Slot, ok, param = sc.resolve(x.Name); !ok {
			err = fmt.Errorf("physical: unbound column %q", x.Name)
		}
		p.corr = p.corr || param
	case *algebra.ConstExpr:
	case *algebra.CmpExpr:
		b.L, b.R, err = p.bindTwo(x.L, x.R, sc)
	case *algebra.AndExpr:
		b.L, b.R, err = p.bindTwo(x.L, x.R, sc)
	case *algebra.OrExpr:
		b.L, b.R, err = p.bindTwo(x.L, x.R, sc)
	case *algebra.ArithExpr:
		b.L, b.R, err = p.bindTwo(x.L, x.R, sc)
	case *algebra.LikeExpr:
		b.L, b.R, err = p.bindTwo(x.L, x.Pattern, sc)
	case *algebra.NotExpr:
		b.L, err = p.bindExpr(x.E, sc)
	case *algebra.IsNullExpr:
		b.L, err = p.bindExpr(x.E, sc)
	case *algebra.IsTrueExpr:
		b.L, err = p.bindExpr(x.E, sc)
	case *algebra.ScalarSubquery:
		var s *Site
		if s, err = p.site(x, &x.Block, sc); err == nil && x.Arg != nil {
			if s.Arg, err = p.bindExpr(x.Arg, &scope{sch: s.Root.Schema(), outer: sc}); err == nil {
				if c, ok := s.Arg.Col(); ok {
					s.ArgCols = p.newCols(1)
					s.ArgCols[0] = c
				}
			}
		}
		b.Src = s
	case *algebra.QuantSubquery:
		if b.L, err = p.bindExpr(x.L, sc); err == nil {
			b.Src, err = p.site(x, &x.Block, sc)
		}
	case *algebra.AllAnyExpr:
		if b.L, err = p.bindExpr(x.L, sc); err == nil {
			b.Src, err = p.site(x, &x.Block, sc)
		}
	default:
		err = fmt.Errorf("physical: cannot bind expression %T", e)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (p *Planner) bindTwo(l, r algebra.Expr, sc *scope) (*Bound, *Bound, error) {
	lb, err := p.bindExpr(l, sc)
	if err != nil {
		return nil, nil, err
	}
	rb, err := p.bindExpr(r, sc)
	return lb, rb, err
}

// site binds the subquery e, which embeds the lowered block blk, in an
// expression over the frames sc describes: where those frames hold the
// block's free columns.
func (p *Planner) site(e algebra.Expr, blk *algebra.Block, sc *scope) (*Site, error) {
	root, ok := p.blocks[blk.Plan]
	if !ok {
		return nil, fmt.Errorf("physical: nested block %s was not lowered", blk.Plan.Label())
	}
	n := 0
	for _, name := range blk.Free() {
		n = max(n, slices.Index(p.free, name)+1)
	}
	s := &Site{Expr: e, Root: root, Params: make([]Slot, n)}
	for i := range s.Params {
		s.Params[i].Depth = -1
	}
	for _, name := range blk.Free() {
		var param bool
		if s.Params[slices.Index(p.free, name)], ok, param = sc.resolve(name); !ok {
			return nil, fmt.Errorf("physical: unbound correlated column %q", name)
		}
		p.corr = p.corr || param
	}
	return s, nil
}

// bindAggs binds aggregate items over their input rows, which sc
// describes, for a fold keyed on keyCols (nil: none).
func (p *Planner) bindAggs(aggs []algebra.AggItem, sc *scope, keyCols []int) ([]AggArg, error) {
	args := make([]AggArg, len(aggs))
	for i, a := range aggs {
		arg := &args[i]
		arg.Spec = a.Spec
		if a.Spec.Kind == agg.Min || a.Spec.Kind == agg.Max {
			arg.Spec.Distinct = false
		}
		switch {
		case a.Arg != nil:
			var err error
			if arg.Expr, err = p.bindExpr(a.Arg, sc); err != nil {
				return nil, err
			}
			if c, ok := arg.Expr.Col(); ok {
				arg.Cols = p.newCols(1)
				arg.Cols[0] = c
			}
		case !a.Spec.Distinct || a.Spec.Kind == agg.Min || a.Spec.Kind == agg.Max:
		case len(a.ArgAttrs) > 0:
			arg.Cols = p.newCols(len(a.ArgAttrs))
			if err := sc.sch.Projection(arg.Cols, a.ArgAttrs); err != nil {
				return nil, err
			}
		default:
			arg.Cols = p.newCols(sc.sch.Len())
			for c := range arg.Cols {
				arg.Cols[c] = c
			}
		}
		if arg.Spec.Distinct && keyCols != nil && arg.Cols != nil {
			arg.Dedup = append(p.newCols(len(keyCols) + len(arg.Cols))[:0], keyCols...)
			for _, c := range arg.Cols {
				if !slices.Contains(keyCols, c) {
					arg.Dedup = append(arg.Dedup, c)
				}
			}
		}
	}
	return args, nil
}

// row is the scope of an expression over a node's input rows, of schema
// sch, inside the block being lowered.
func (p *Planner) row(sch *storage.Schema) *scope {
	return &scope{sch: sch, params: p.params, free: p.free}
}

// pair is the scope of an expression over a pair of rows l ◦ r: r at
// depth 0, l at depth 1.
func (p *Planner) pair(l, r *storage.Schema) *scope {
	return &scope{sch: r, outer: p.row(l)}
}

// bind binds the row-path expressions of the freshly lowered node n, its
// inputs and nested blocks lowered, inside the block being lowered, and
// records whether n is correlated: whether it or an input reads the
// parameter frame (Planner.corr).
func (p *Planner) bind(n Node) error {
	err := p.bindExprs(n)
	n.setCorrelated(p.corr)
	return err
}

func (p *Planner) bindExprs(n Node) error {
	var err error
	switch x := n.(type) {
	case *Filter:
		x.Bound, err = p.bindExpr(x.Pred, p.row(x.Child.Schema()))
	case *Map:
		x.Bound, err = p.bindExpr(x.Expr, p.row(x.Child.Schema()))
	case *Join:
		x.Bound, err = p.bindExpr(x.Pred, p.pair(x.L.Schema(), x.R.Schema()))
	case *Group:
		x.Args, err = p.bindAggs(x.Aggs, p.row(x.Child.Schema()), x.KeyCols)
	case *BinaryGroup:
		ls := x.L.Schema()
		for i := range x.Groupings {
			g := &x.Groupings[i]
			if g.Args != nil {
				continue // a grouping of a Γ² the chain absorbed, bound with it
			}
			rs := g.R.Schema()
			// A hashed grouping never evaluates Pred; a sort-based one does,
			// per pair, when its column has no order to search.
			if g.LCols == nil || g.Theta != types.EQ {
				if g.PredBound, err = p.bindExpr(g.Pred, p.pair(ls, rs)); err != nil {
					return err
				}
			}
			if g.TagBound, err = p.bindExpr(g.Tag, p.row(rs)); err != nil {
				return err
			}
			var keys []int // a hashed grouping's fold of R is keyed
			if g.LCols != nil && g.Theta == types.EQ {
				keys = g.RCols
			}
			if g.Args, err = p.bindAggs(g.Aggs, p.row(rs), keys); err != nil {
				return err
			}
		}
		if x.Keep == nil {
			return nil
		}
		if x.KeepBound, err = p.bindExpr(x.Keep, p.pair(ls, x.Results)); err != nil {
			return err
		}
		for i := range x.Rest {
			x.Rest[i].Bound = findBound(x.KeepBound, x.Rest[i].Pred)
		}
	}
	return err
}

// findBound returns the binding of the operand e of the bound expression
// b: a disjunct of a fused selection is one of its operands.
func findBound(b *Bound, e algebra.Expr) *Bound {
	if b == nil || b.Src == e {
		return b
	}
	if f := findBound(b.L, e); f != nil {
		return f
	}
	return findBound(b.R, e)
}

// Bind binds a bare expression over rows of schema sch, lowering the
// blocks nested in it first, for the executor to evaluate on a frame
// holding such a row.
func (p *Planner) Bind(e algebra.Expr, sch *storage.Schema) (*Bound, error) {
	var buf [4]*algebra.Block
	for _, blk := range algebra.AppendBlocks(buf[:0], e) {
		if p.memo == nil {
			p.memo = make(map[algebra.Op]lowered, algebra.Size(blk.Plan))
		}
		p.markShared(blk.Plan)
		if err := p.lowerBlock(blk); err != nil {
			return nil, err
		}
	}
	return p.bindExpr(e, &scope{sch: sch})
}
