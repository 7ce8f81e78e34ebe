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
//	    The hash table is built on R; for an inner join the translator
//	    has made R the smaller estimated input.
//	binary grouping: one probing operator, hashing the right side when
//	    the predicate is pure equality and scanning it per left tuple
//	    otherwise — except that an untagged single column inequality
//	    with decomposable single-partial aggregates runs the sort-based
//	    prefix/suffix algorithm. A tag (Eqv. 5) only adds the shared
//	    base fold to the probing operator.
//
//	selection over an outer join or a binary grouping: fused into it
//	    when the σ is the only consumer of that operator, directly or
//	    through one Π it alone reads, and its predicate holds no nested
//	    block. The operator evaluates the predicate on each pair it
//	    would write (its Keep) — the outer join on a matched pair and on
//	    the pad pair, Γ² on a left row and its aggregate results — and
//	    builds only the rows it holds TRUE on; the σ's Filter node, and
//	    the Π, are gone. The node stands for the σ (its Logical()), so
//	    the executor memoizes it only where the σ's free attributes allow.
//	    A σ± (two streams) and a shared operator do not fuse.
//
// The rules are deliberately deterministic — hashing a materialized
// input is never slower than the quadratic scan at more than a handful
// of tuples, and stable choices keep golden plans byte-stable. The
// estimator supplies every node's cardinality annotation, which is what
// makes each choice auditable in EXPLAIN.
//
// Lowering runs top-down with the set of columns the consumer reads
// (colSet): Π reads those of its attributes that are read, σ and χ add
// their expression's columns (a nested block's free attributes among
// them), Γ reads its keys and aggregate arguments, a join its keys and
// residual. The operators that write their own rows — joins, χ, Γ² —
// emit just those columns (their Emit list), in the order of a Π
// directly above — or above a σ fused into them — which then dissolves,
// as does any Π whose input already has its schema. Everything else
// passes rows through and keeps its input's schema; DISTINCT, ∪ and
// Sort read what they are given, and an operator with more than one
// consumer — σ± under its two streams, a block an expression embeds
// twice — is left whole. A node's Schema is therefore a part of its
// logical operator's, holding at least the columns asked for, and
// exactly the logical schema when all were.
type Planner struct {
	est *stats.Estimator
	// memo has an entry for every operator Lower has been shown: whether
	// more than one consumer reads it and, once it has been lowered
	// whole, the node — what a shared operator's second consumer finds.
	// A pruned lowering has one consumer and is not kept.
	memo map[algebra.Op]lowered
	// mark is markShared as a value, made once.
	mark func(algebra.Op)
	// blocks are the memo's entries for the roots of nested query blocks:
	// what evaluation looks up, and all a Plan keeps of the memo.
	blocks map[algebra.Op]Node
	nodes  int
	names  []string // scratch for reads
}

type lowered struct {
	node   Node
	shared bool
}

// NewPlanner returns a planner costing with the given estimator.
func NewPlanner(est *stats.Estimator) *Planner {
	p := &Planner{est: est, memo: make(map[algebra.Op]lowered)}
	p.mark = p.markShared
	return p
}

// NodeCount returns how many physical nodes this planner has created;
// node IDs are dense in [0, NodeCount), so it sizes metric slices.
func (p *Planner) NodeCount() int { return p.nodes }

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
	pl := &Plan{Root: root, blocks: p.blocks, nodes: p.nodes}
	p.memo, p.blocks = nil, nil
	return pl, nil
}

// colSet is a set of column positions in one schema: bit i for column
// i, allCols for every column. A schema wider than 64 columns has no
// other set, so an operator that wide is never pruned.
type colSet uint64

const allCols = ^colSet(0)

func (s colSet) has(i int) bool { return s == allCols || s>>uint(i)&1 != 0 }

func (s colSet) with(i int) colSet {
	if i >= 64 {
		return allCols
	}
	return s | 1<<uint(i)
}

// without removes column i, the last of the schema s is over; every
// column of the schema stays every column of the shorter one.
func (s colSet) without(i int) colSet {
	if s == allCols {
		return s
	}
	return s &^ (1 << uint(i))
}

// of normalizes s over a schema of n columns: allCols when it holds
// them all.
func (s colSet) of(n int) colSet {
	if full := colSet(1)<<uint(n) - 1; n > 64 || s&full == full {
		return allCols
	}
	return s
}

// part returns the schema of the columns of sch in s: sch itself when s
// holds them all.
func (s colSet) part(sch *storage.Schema) *storage.Schema {
	if s == allCols {
		return sch
	}
	names := make([]string, 0, sch.Len())
	for i, a := range sch.Attrs() {
		if s.has(i) {
			names = append(names, a)
		}
	}
	return storage.NewSchema(names...)
}

// split divides s over a schema l ◦ r into its parts over l (of n
// columns) and r.
func (s colSet) split(n int) (l, r colSet) {
	if s == allCols {
		return s, s
	}
	return s & (1<<uint(n) - 1), s >> uint(n)
}

// addNames adds the named columns of sch; names it does not hold — outer
// references — resolve elsewhere.
func addNames(s colSet, sch *storage.Schema, names []string) colSet {
	for _, n := range names {
		if i := sch.Index(n); i >= 0 {
			s = s.with(i)
		}
	}
	return s
}

// reads adds the columns of sch that e references, the free attributes
// of the blocks nested in it included.
func (p *Planner) reads(s colSet, sch *storage.Schema, e algebra.Expr) colSet {
	if e == nil || s == allCols {
		return s
	}
	p.names = e.Columns(p.names[:0])
	return addNames(s, sch, p.names)
}

// aggReads adds what the aggregates read of an input over sch: their
// argument's columns, or for DISTINCT * the attributes forming the *
// tuple (all of them when none are named). A plain COUNT(*) reads none.
func (p *Planner) aggReads(s colSet, sch *storage.Schema, aggs []algebra.AggItem) colSet {
	for _, a := range aggs {
		switch {
		case a.Arg != nil:
			s = p.reads(s, sch, a.Arg)
		case a.Spec.Distinct && len(a.ArgAttrs) == 0:
			return allCols
		case a.Spec.Distinct:
			s = addNames(s, sch, a.ArgAttrs)
		}
	}
	return s
}

// Lower produces the physical plan for a logical operator, every column
// of its schema included (memoized).
func (p *Planner) Lower(op algebra.Op) (Node, error) {
	if n := p.memo[op].node; n != nil {
		return n, nil
	}
	p.markShared(op)
	return p.whole(op)
}

// markShared enters the operators below op, nested blocks included, in
// the memo and finds those that more than one consumer reads.
func (p *Planner) markShared(op algebra.Op) {
	if e, seen := p.memo[op]; seen {
		if !e.shared {
			p.memo[op] = lowered{node: e.node, shared: true}
		}
		return
	}
	p.memo[op] = lowered{}
	for _, sub := range algebra.NestedPlans(op) {
		p.markShared(sub)
	}
	algebra.EachInput(op, p.mark)
}

// whole lowers op with every column of its schema.
func (p *Planner) whole(op algebra.Op) (Node, error) { return p.lowerFor(op, allCols, nil) }

// lowerFor lowers op for a consumer that reads the columns need of its
// schema; order, from a Π directly above, is the schema that consumer
// would have the rows in, which the operators that write their own rows
// honour.
func (p *Planner) lowerFor(op algebra.Op, need colSet, order *storage.Schema) (Node, error) {
	need = need.of(op.Schema().Len())
	switch op.(type) {
	case *algebra.Join, *algebra.CrossProduct, *algebra.LeftOuterJoin, *algebra.MapOp, *algebra.BinaryGroup,
		*algebra.Select: // the order of what a σ fused into a writer emits
	default:
		order = nil
	}
	e := p.memo[op]
	if e.node != nil {
		return e.node, nil // lowered whole before: it serves every consumer
	}
	if e.shared {
		need, order = allCols, nil
	}
	n, err := p.lower(op, need, order)
	if err != nil {
		return nil, err
	}
	if need == allCols && order == nil {
		p.memo[op] = lowered{node: n, shared: e.shared}
	}
	if n.ID() >= 0 {
		return n, nil // a Π dissolved into its input
	}
	// Path selection: compile columnar programs for nodes the
	// vectorized path can run (see vectorize.go).
	p.vectorize(n)
	n.setID(p.nodes)
	p.nodes++
	if err := p.lowerBlocks(op); err != nil {
		return nil, err
	}
	return n, nil
}

// lowerBlocks pre-lowers the nested query blocks referenced by op's
// expressions (scalar/quantified subqueries and their arguments).
func (p *Planner) lowerBlocks(op algebra.Op) error {
	for _, sub := range algebra.NestedPlans(op) {
		b, err := p.whole(sub)
		if err != nil {
			return err
		}
		if p.blocks == nil {
			p.blocks = make(map[algebra.Op]Node)
		}
		p.blocks[sub] = b
	}
	return nil
}

func (p *Planner) lower(op algebra.Op, need colSet, order *storage.Schema) (Node, error) {
	b := base{logical: op, sch: op.Schema(), est: p.est.Cardinality(op), id: -1}
	switch x := op.(type) {
	case *algebra.Scan:
		return &Scan{base: b, Table: x.Table}, nil

	case *algebra.Select:
		if n, err := p.fuse(b, x, need, order); n != nil || err != nil {
			return n, err
		}
		child, err := p.lowerFor(x.Child, p.reads(need, x.Child.Schema(), x.Pred), nil)
		if err != nil {
			return nil, err
		}
		b.sch = child.Schema()
		return &Filter{base: b, Child: child, Pred: x.Pred}, nil

	case *algebra.BypassSelect:
		child, err := p.lowerFor(x.Child, p.reads(need, x.Child.Schema(), x.Pred), nil)
		if err != nil {
			return nil, err
		}
		b.sch = child.Schema()
		return &BypassFilter{base: b, Child: child, Pred: x.Pred}, nil

	case *algebra.Stream:
		src, err := p.lowerFor(x.Source, need, nil)
		if err != nil {
			return nil, err
		}
		if _, ok := src.(*BypassFilter); !ok {
			return nil, fmt.Errorf("physical: Stream over non-bypass operator %T", x.Source)
		}
		b.sch = src.Schema()
		return &Stream{base: b, Source: src, Positive: x.Positive}, nil

	case *algebra.Project:
		b.sch = need.part(b.sch) // a Π read in part is the Π onto that part
		attrs := b.sch.Attrs()
		child, err := p.lowerFor(x.Child, addNames(0, x.Child.Schema(), attrs), b.sch)
		if err != nil {
			return nil, err
		}
		if child.Schema().Equal(b.sch) {
			return child, nil
		}
		cols, err := child.Schema().Projection(attrs)
		if err != nil {
			return nil, err
		}
		return &Project{base: b, Child: child, Cols: cols}, nil

	case *algebra.Rename:
		child, err := p.whole(x.Child)
		if err != nil {
			return nil, err
		}
		return &Rename{base: b, Child: child}, nil

	case *algebra.MapOp:
		cs := x.Child.Schema()
		child, err := p.lowerFor(x.Child, p.reads(need.without(cs.Len()), cs, x.Expr), nil)
		if err != nil {
			return nil, err
		}
		m := &Map{base: b, Child: child, Attr: x.Attr, Expr: x.Expr}
		m.Emit, err = m.emit(x, child.Schema(), nil, 1, need, order)
		return m, err

	case *algebra.CrossProduct:
		return p.lowerJoin(b, x.L, x.R, nil, JoinInner, need, order)

	case *algebra.Join:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinInner, need, order)

	case *algebra.SemiJoin:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinSemi, need, nil)

	case *algebra.AntiJoin:
		return p.lowerJoin(b, x.L, x.R, x.Pred, JoinAnti, need, nil)

	case *algebra.LeftOuterJoin:
		return p.lowerOuterJoin(b, x, nil, need, need, order)

	case *algebra.GroupBy:
		if len(x.Attrs) == 0 && !x.Global {
			return nil, fmt.Errorf("physical: grouping without attributes requires Global")
		}
		cs := x.Child.Schema()
		child, err := p.lowerFor(x.Child, p.aggReads(addNames(0, cs, x.Attrs), cs, x.Aggs), nil)
		if err != nil {
			return nil, err
		}
		keyCols, err := child.Schema().Projection(x.Attrs)
		if err != nil {
			return nil, err
		}
		return &Group{base: b, Child: child, KeyCols: keyCols, Attrs: x.Attrs,
			Aggs: x.Aggs, Global: x.Global}, nil

	case *algebra.BinaryGroup:
		return p.lowerBinaryGroup(b, x, nil, need, need, order)

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
		child, err := p.whole(x.Child)
		if err != nil {
			return nil, err
		}
		return &Distinct{base: b, Child: child}, nil

	case *algebra.Sort:
		child, err := p.whole(x.Child)
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
		child, err := p.whole(x.Child)
		if err != nil {
			return nil, err
		}
		return &Limit{base: b, Child: child, N: x.N}, nil

	default:
		return nil, fmt.Errorf("physical: unsupported operator %T", op)
	}
}

func (p *Planner) lower2(l, r algebra.Op) (Node, Node, error) {
	ln, err := p.whole(l)
	if err != nil {
		return nil, nil, err
	}
	rn, err := p.whole(r)
	if err != nil {
		return nil, nil, err
	}
	return ln, rn, nil
}

// lowerPair lowers the inputs of a join: each side for the columns its
// consumer reads of it (ln, rn) and its columns in pred.
func (p *Planner) lowerPair(lop, rop algebra.Op, pred algebra.Expr, ln, rn colSet) (Node, Node, error) {
	l, err := p.lowerFor(lop, p.reads(ln, lop.Schema(), pred), nil)
	if err != nil {
		return nil, nil, err
	}
	r, err := p.lowerFor(rop, p.reads(rn, rop.Schema(), pred), nil)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// lowerJoin picks the join algorithm: hash on equality conjuncts when
// any exist, nested loops otherwise. A semi or anti join passes left
// rows through, so its consumer's columns are all the left input's and
// the right input is read for the predicate alone.
func (p *Planner) lowerJoin(b base, lop, rop algebra.Op, pred algebra.Expr, mode JoinMode, need colSet, order *storage.Schema) (Node, error) {
	ln, rn := need, colSet(0)
	if mode == JoinInner {
		ln, rn = need.split(lop.Schema().Len())
	}
	l, r, err := p.lowerPair(lop, rop, pred, ln, rn)
	if err != nil {
		return nil, err
	}
	var emit []int
	if mode != JoinInner {
		b.sch = l.Schema()
	} else if emit, err = b.emit(b.logical, l.Schema(), r.Schema(), 0, need, order); err != nil {
		return nil, err
	}
	keys, residual := splitEquiJoin(pred, l.Schema(), r.Schema())
	if len(keys) > 0 {
		lc, rc := keyCols(keys)
		return &HashJoin{base: b, L: l, R: r, Mode: mode,
			LCols: lc, RCols: rc, Residual: andOrNil(residual), Emit: emit}, nil
	}
	return &NLJoin{base: b, L: l, R: r, Mode: mode, Pred: pred, Emit: emit}, nil
}

// fuse lowers σ(w), or σ(Π(w)), as w with the σ's predicate for its
// Keep, when w is an outer join or a Γ² only the σ reads — through a Π
// only it reads — and the predicate holds no nested block (see
// Planner); it returns nil otherwise. b is the σ's: the node stands for
// it. w emits what the σ's consumer reads (need, in order), and a Π
// between orders them when the consumer does not; its inputs provide
// that and what the predicate reads.
func (p *Planner) fuse(b base, s *algebra.Select, need colSet, order *storage.Schema) (Node, error) {
	w, pr := s.Child, (*algebra.Project)(nil)
	if x, ok := w.(*algebra.Project); ok && !p.memo[x].shared {
		w, pr = x.Child, x
	}
	switch w.(type) {
	case *algebra.LeftOuterJoin, *algebra.BinaryGroup:
	default:
		return nil, nil
	}
	if p.memo[w].shared || algebra.HasSubquery(s.Pred) {
		return nil, nil
	}
	if pr != nil && order == nil {
		order = need.part(pr.Schema())
	}
	sch, in := w.Schema(), need
	if order != nil {
		in = addNames(0, sch, order.Attrs())
	}
	in = p.reads(in, sch, s.Pred).of(sch.Len())
	var n Node
	var err error
	switch x := w.(type) {
	case *algebra.LeftOuterJoin:
		n, err = p.lowerOuterJoin(b, x, s.Pred, in, need, order)
	case *algebra.BinaryGroup:
		n, err = p.lowerBinaryGroup(b, x, s.Pred, in, need, order)
	}
	if err != nil {
		return nil, err
	}
	return n, p.lowerBlocks(w)
}

// lowerOuterJoin lowers ⟕ as the node b describes, with keep (nil for
// none) as its fused selection: its inputs for the columns in of its
// schema, and what it emits for need, in order (see emit).
func (p *Planner) lowerOuterJoin(b base, x *algebra.LeftOuterJoin, keep algebra.Expr, in, need colSet, order *storage.Schema) (Node, error) {
	ln, rn := in.split(x.L.Schema().Len())
	l, r, err := p.lowerPair(x.L, x.R, x.Pred, ln, rn)
	if err != nil {
		return nil, err
	}
	pad := make([]types.Value, r.Schema().Len())
	for _, d := range x.Defaults {
		if i := r.Schema().Index(d.Attr); i >= 0 {
			pad[i] = d.Val
		}
	}
	j := &OuterJoin{base: b, L: l, R: r, Pred: x.Pred, Pad: pad, Keep: keep}
	keys, residual := splitEquiJoin(x.Pred, l.Schema(), r.Schema())
	if len(keys) > 0 {
		j.Hash = true
		j.LCols, j.RCols = keyCols(keys)
		j.Residual = andOrNil(residual)
	}
	j.Emit, err = j.emit(x, l.Schema(), r.Schema(), 0, need, order)
	return j, err
}

// lowerBinaryGroup lowers Γ² as lowerOuterJoin lowers ⟕. The fused
// selection sees a left row ◦ its aggregate results.
func (p *Planner) lowerBinaryGroup(b base, x *algebra.BinaryGroup, keep algebra.Expr, in, need colSet, order *storage.Schema) (Node, error) {
	ls, rs := x.L.Schema(), x.R.Schema()
	ln, _ := in.split(ls.Len())
	l, err := p.lowerFor(x.L, p.reads(ln, ls, x.Pred), nil)
	if err != nil {
		return nil, err
	}
	rn := p.aggReads(p.reads(0, rs, x.Pred), rs, x.Aggs)
	if i := rs.Index(x.Tag); i >= 0 {
		rn = rn.with(i)
	}
	r, err := p.lowerFor(x.R, rn, nil)
	if err != nil {
		return nil, err
	}
	tagCol := -1
	if x.Tag != "" {
		if tagCol = r.Schema().Index(x.Tag); tagCol < 0 {
			return nil, fmt.Errorf("physical: tag %q not in %s", x.Tag, x.R.Schema())
		}
	}
	emit, err := b.emit(x, l.Schema(), nil, len(x.Aggs), need, order)
	if err != nil {
		return nil, err
	}
	var results *storage.Schema
	if keep != nil {
		results = storage.NewSchema(x.Schema().Attrs()[ls.Len():]...)
	}
	bg := &BinaryGroup{base: b, L: l, R: r, Pred: x.Pred, TagCol: tagCol, Aggs: x.Aggs,
		Keep: keep, Results: results, Emit: emit}
	if keys, residual := splitEquiJoin(x.Pred, l.Schema(), r.Schema()); len(keys) > 0 && len(residual) == 0 {
		bg.LCols, bg.RCols = keyCols(keys)
	} else if lcol, rcol, cop, ok := thetaGroupable(x); ok && tagCol < 0 {
		return &BinaryGroupSort{base: b, L: l, R: r,
			LIdx: l.Schema().Index(lcol), RIdx: r.Schema().Index(rcol),
			Op: cop, Aggs: x.Aggs, Keep: keep, Results: results, Emit: emit}, nil
	}
	return bg, nil
}

// emit decides what an operator that writes its own rows emits, and so
// b's schema: the rows are assembled from an l row followed by an r row
// or, when r is nil, by the extra columns the operator computes (the
// last extra of w's schema). w is the logical operator writing the rows:
// b's own, or the one below the σ b stands for when the σ is fused into
// it. With every column read and no order asked for that is all of them,
// as they come: a nil list and w's schema. Otherwise it is the columns
// of order or, in w's order, those of need, each resolved to its
// position in l ◦ r.
func (b *base) emit(w algebra.Op, l, r *storage.Schema, extra int, need colSet, order *storage.Schema) ([]int, error) {
	logical := w.Schema()
	switch {
	case order != nil:
		b.sch = order
	case need == allCols:
		return nil, nil
	default:
		b.sch = need.part(logical)
	}
	in := l.Len() + extra
	if r != nil {
		in += r.Len()
	}
	emit := make([]int, b.sch.Len())
	identity := len(emit) == in
	for i, a := range b.sch.Attrs() {
		c := l.Index(a)
		if c < 0 {
			if r != nil {
				c = r.Index(a)
			} else {
				c = logical.Index(a) - (logical.Len() - extra)
			}
			if c < 0 {
				return nil, fmt.Errorf("physical: %s emits %q, which its inputs %s do not carry", b.logical.Label(), a, l)
			}
			c += l.Len()
		}
		emit[i] = c
		identity = identity && c == i
	}
	if identity {
		return nil, nil
	}
	return emit, nil
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
// a single column-vs-column inequality and no DISTINCT or AVG aggregate.
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
