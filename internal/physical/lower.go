package physical

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/stats"
	"disqo/internal/storage"
	"disqo/internal/types"
	"disqo/internal/vec"
)

// Planner lowers logical algebra into physical plans. It memoizes per
// logical operator so DAG-shaped plans (shared bypass subplans) lower
// to DAG-shaped physical plans, and it eagerly lowers every nested
// subquery plan reachable through operator expressions, so evaluation
// never plans.
//
// Each operator lowers to one node type, whatever its algorithm; the
// algorithm is what the planner writes into the node's fields.
// Algorithm selection rules, in order:
//
//	join, semijoin, antijoin: one Join, in its Mode. It hashes on the
//	    equality conjuncts when any exist (LCols/RCols; Pred keeps the
//	    residual conjuncts, re-checked per matched pair), and runs nested
//	    loops otherwise (Pred is the whole predicate). The hash table is
//	    built on R; for an inner join the translator has made R the
//	    smaller estimated input.
//	left outer join: Eqv. 1's e1 ⟕_{a=b; g:f(∅)} Γ_{b; g:f}(e2) is
//	    Γ²_{a=b; g:f}(e1, e2) — a missing or NULL key reads the empty
//	    group, f(∅) — and lowers to one hashed BinaryGroup over e2 when
//	    the Γ has no other consumer and is not global, the ⟕'s predicate
//	    is pure equality naming every grouping attribute, each
//	    aggregate's default (NULL without one) is its f(∅), and nothing
//	    reads Γ's keys (the rewriter's Π above the ⟕ drops them). Any
//	    other ⟕ fails with ErrOuterJoin: there is no physical outer join.
//	binary grouping: one BinaryGroup, hashing the right side when the
//	    predicate is pure equality (LCols/RCols) and scanning it per left
//	    tuple otherwise — except that an untagged single column
//	    inequality with single-pass aggregates (no DISTINCT or AVG) runs
//	    sort-based, a prefix or suffix fold searched per left tuple
//	    (LCols/RCols and the comparison in Theta). A hashed Γ² is sized
//	    for its right input's distinct keys, estimated as Γ's are. A tag (Eqv. 5) only
//	    adds the shared base fold, and is a predicate the Γ² splits its
//	    right input on: the χ[tag:p] Eqv. 5 puts below it — directly or
//	    through one Π — is fused into it when the Γ² is the χ's (and the
//	    Π's) only consumer and p holds no nested block, so the tagged
//	    copy of the inner relation is never built; otherwise the tag is
//	    the χ's column.
//	chain of binary groupings: a BinaryGroup whose left input lowers to
//	    a BinaryGroup absorbs it — one node, whose groupings are the
//	    lower one's and then its own, over the lower one's left input —
//	    when the lower one has no other consumer (nor has a Π or a
//	    cascade's − stream between them), no fused selection, and looks
//	    each grouping up (hashed, tagged-hashed or sort-based), and the
//	    upper grouping's predicate, keys and tag read none of its
//	    results. A tree query's stacked unnestings (Q3) are one pass over
//	    its outer relation that writes no intermediate row.
//
//	selection over a binary grouping (an Eqv. 1 ⟕ among them): fused
//	    into it when the σ is the only consumer of that operator,
//	    directly or through one Π it alone reads, and its predicate
//	    holds no nested block. The Γ² evaluates the predicate on each
//	    left row and its aggregate results (its Keep) and builds only
//	    the rows it holds TRUE on; the σ's Filter node, and the Π, are
//	    gone. The node stands for the σ (its Logical()), so
//	    the executor memoizes it only where the σ's free attributes allow.
//	    A shared operator does not fuse. A disjunction over a Γ² that
//	    emits no aggregate result splits off its operands reading only
//	    the left input (BinaryGroup.Bypass), which spare their rows' probes.
//	bypass cascade (algebra.CascadeInput): Eqv. 2/3's σ±s, streams and
//	    ∪̇ are one σ[d1 ∨ … ∨ dn], in the cascade's order, over the
//	    unnestings stacked on its input, each − stream lowered as its
//	    σ±'s input — exact in 3VL and for bags: a row lands in one
//	    stream, and OR is TRUE iff an operand is. A σ on a stack keeps
//	    the rows the disjuncts before it decided, σ[d1 ∨ … ∨ di ∨ p], and
//	    a cascade there, or as the last branch, runs the same way with
//	    those disjuncts first. The σ fuses as above, or, with a nested
//	    block, is one Filter under the Π onto the union's columns. Any
//	    other σ±, stream or ∪̇ fails with ErrBypass.
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
// consumer — an input a plan reads twice, a block an expression embeds
// twice — is left whole. A node's Schema is therefore a part of its
// logical operator's, holding at least the columns asked for, and
// exactly the logical schema when all were.
type Planner struct {
	est *stats.Estimator
	// memo has an entry for every operator Lower has been shown: whether
	// more than one consumer reads it and, once it has been lowered
	// whole, the node — what a shared operator's second consumer finds.
	// A pruned lowering has one consumer and is not kept. It is made by
	// the first Lower, sized for that plan.
	memo map[algebra.Op]lowered
	// mark is markShared as a value, made once.
	mark func(algebra.Op)
	// decided holds, for each operator on a bypass cascade's stack, the
	// disjuncts before it: a − stream lowers as its σ±'s input, and a σ
	// or a cascade keeps the rows they hold TRUE on. Made on first use.
	decided map[algebra.Op]algebra.Expr
	// blocks are the memo's entries for the roots of nested query blocks:
	// what binding an expression embedding one looks up, and all a Plan
	// keeps of the memo.
	blocks map[algebra.Op]Node
	nodes  int
	// spare holds the IDs of the Γ²s chains absorbed, for number to
	// hand out again.
	spare []int
	names []string // scratch for reads
	// params are the free columns of the nested block being lowered —
	// its parameter frame (see bind.go) — nil at top level; free are the
	// plan's, each at its position in every parameter frame.
	params, free []string
	// corr records whether a column reference bound since the lowering
	// of the current node began — its own or an input's — resolved to
	// the parameter frame: whether the node is correlated
	// (Node.Correlated). lowerFor restarts it per node and lowerBlock
	// keeps a nested block's apart.
	corr bool
	// slab and ints are the plan's slabs of bound expressions and of
	// column positions (see bind.go).
	slab []Bound
	ints []int
	size int // operators in the plan the first Lower was shown (algebra.Size)
}

type lowered struct {
	node   Node
	shared bool
}

// NewPlanner returns a planner costing with the given estimator.
func NewPlanner(est *stats.Estimator) *Planner {
	p := &Planner{est: est, names: make([]string, 0, 8)}
	p.mark = p.markShared
	return p
}

// NodeCount returns how many physical nodes this planner has created;
// node IDs are dense in [0, NodeCount), so it sizes metric slices.
func (p *Planner) NodeCount() int { return p.nodes }

// Plan is a lowered query: the root's physical node and, reachable from
// it, the node of every operator, nested query blocks included —
// evaluation reaches a block's root through the expression embedding it
// (Site), and EXPLAIN ANALYZE and the plan's fingerprint through the
// lookup by block a Plan keeps. Nothing is added after the planner hands
// a Plan back: nodes, their bound expressions and their compiled
// programs are immutable after lowering, and any number of concurrent
// executions may share one Plan without synchronisation.
type Plan struct {
	Root   Node
	blocks map[algebra.Op]Node
	nodes  int
}

// BlockFor returns the physical root of a nested query block of the
// plan; every block of it resolves.
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
	if p.memo == nil {
		p.size = algebra.Size(op)
		p.memo = make(map[algebra.Op]lowered, p.size)
		p.slab = make([]Bound, 0, algebra.ExprSize(op)+4)
	}
	p.markShared(op)
	n, err := p.whole(op)
	if err != nil {
		return nil, err
	}
	p.markOutputs(n)
	return n, nil
}

// markShared enters the operators below op, nested blocks included, in
// the memo and finds those that more than one consumer reads.
func (p *Planner) markShared(op algebra.Op) {
	if e, seen := p.memo[op]; seen {
		if !e.shared {
			p.memo[op] = lowered{node: e.node, shared: true}
			if e.node != nil {
				e.node.setShared(true)
			}
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
		*algebra.Select, *algebra.UnionDisjoint: // the order of what a σ fused into a writer emits
	default:
		order = nil
	}
	e := p.memo[op]
	if e.node != nil {
		p.corr = p.corr || e.node.Correlated()
		return e.node, nil // lowered whole before: it serves every consumer
	}
	if e.shared {
		need, order = allCols, nil
	}
	// Collect afresh whether op's node is correlated; if it is, so is
	// its consumer's.
	defer func(outer bool) { p.corr = p.corr || outer }(p.corr)
	p.corr = false
	n, err := p.lower(op, need, order)
	if err != nil {
		return nil, err
	}
	if need == allCols && order == nil {
		p.memo[op] = lowered{node: n, shared: e.shared}
		if e.shared {
			n.setShared(true)
		}
	}
	if n.ID() >= 0 {
		return n, nil // a Π, or a cascade's − stream, dissolved into its input
	}
	p.number(n)
	if err := p.lowerBlocks(op); err != nil {
		return nil, err
	}
	return n, p.bind(n)
}

// number gives a freshly lowered node its columnar programs, where the
// vectorized path can run them (see vectorize.go), and the next ID: the
// ID of a Γ² a chain absorbed (see lowerBinaryGroup) when there is one,
// so that IDs stay dense.
func (p *Planner) number(n Node) {
	p.vectorize(n)
	if k := len(p.spare); k > 0 {
		n.setID(p.spare[k-1])
		p.spare = p.spare[:k-1]
		return
	}
	n.setID(p.nodes)
	p.nodes++
}

// lowerBlocks pre-lowers the nested query blocks referenced by op's
// expressions (scalar/quantified subqueries and their arguments).
func (p *Planner) lowerBlocks(op algebra.Op) error {
	var exprs [4]algebra.Expr
	var blocks [4]*algebra.Block
	for _, e := range algebra.AppendExprs(exprs[:0], op) {
		for _, blk := range algebra.AppendBlocks(blocks[:0], e) {
			if err := p.lowerBlock(blk); err != nil {
				return err
			}
		}
	}
	return nil
}

// lowerBlock lowers a nested query block whole, its nodes bound to read
// their correlated columns from its parameter frame (see bind.go).
func (p *Planner) lowerBlock(blk *algebra.Block) error {
	for _, name := range blk.Free() {
		if !slices.Contains(p.free, name) {
			p.free = append(p.free, name)
		}
	}
	outer, corr := p.params, p.corr
	p.params = blk.Free()
	b, err := p.whole(blk.Plan)
	p.params, p.corr = outer, corr
	if err != nil {
		return err
	}
	if p.blocks == nil {
		p.blocks = make(map[algebra.Op]Node)
	}
	p.blocks[blk.Plan] = b
	return nil
}

func (p *Planner) lower(op algebra.Op, need colSet, order *storage.Schema) (Node, error) {
	b := base{logical: op, sch: op.Schema(), est: p.est.Cardinality(op), id: -1}
	switch x := op.(type) {
	case *algebra.Scan:
		return &Scan{base: b, Table: x.Table}, nil

	case *algebra.Select:
		return p.selection(b, x.Child, algebra.Or(p.decided[x], x.Pred), need, order)

	case *algebra.Stream:
		if p.decided[x] == nil {
			return nil, fmt.Errorf("%w: %s", ErrBypass, x.Label())
		}
		return p.lowerFor(x.Source.(*algebra.BypassSelect).Child, need, nil)

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
		cols, err := p.projection(child.Schema(), attrs)
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
		m.Emit, err = p.emit(&m.base, x, child.Schema(), nil, 1, need, order)
		return m, err

	case *algebra.CrossProduct, *algebra.Join, *algebra.SemiJoin, *algebra.AntiJoin:
		return p.lowerJoin(b, op, need, order)

	case *algebra.LeftOuterJoin, *algebra.BinaryGroup:
		return p.lowerBinaryGroup(b, op, nil, need, need, order)

	case *algebra.GroupBy:
		if len(x.Attrs) == 0 && !x.Global {
			return nil, fmt.Errorf("physical: grouping without attributes requires Global")
		}
		cs := x.Child.Schema()
		child, err := p.lowerFor(x.Child, p.aggReads(addNames(0, cs, x.Attrs), cs, x.Aggs), nil)
		if err != nil {
			return nil, err
		}
		keyCols, err := p.projection(child.Schema(), x.Attrs)
		if err != nil {
			return nil, err
		}
		return &Group{base: b, Child: child, KeyCols: keyCols, Attrs: x.Attrs,
			Aggs: x.Aggs, Global: x.Global}, nil

	case *algebra.UnionDisjoint:
		if order == nil {
			order = need.part(b.sch)
		}
		return p.lowerCascade(b, x, order)

	case *algebra.UnionAll:
		l, r, err := p.lowerPair(x.L, x.R, nil, allCols, allCols)
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

	case *algebra.BypassSelect:
		return nil, fmt.Errorf("%w: %s", ErrBypass, x.Label())

	default:
		return nil, fmt.Errorf("physical: unsupported operator %T", op)
	}
}

// lowerPair lowers the inputs of a binary operator: each side for the
// columns its consumer reads of it (ln, rn) and its columns in pred.
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

// selection lowers σ[pred](child) as the node b describes: fused into
// child (fuse), or a Filter over it.
func (p *Planner) selection(b base, child algebra.Op, pred algebra.Expr, need colSet, order *storage.Schema) (Node, error) {
	for x, ok := child.(*algebra.Stream); ok && p.decided[x] != nil; x, ok = child.(*algebra.Stream) {
		child = x.Source.(*algebra.BypassSelect).Child // a cascade's − stream is its σ±'s input
	}
	if n, err := p.fuse(b, child, pred, need, order); n != nil || err != nil {
		return n, err
	}
	c, err := p.lowerFor(child, p.reads(need, child.Schema(), pred), nil)
	if err != nil {
		return nil, err
	}
	b.sch = c.Schema()
	return &Filter{base: b, Child: c, Pred: pred}, nil
}

// fuse lowers σ[pred](w), or σ[pred](Π(w)), as w with pred for its
// Keep, when w is a Γ² or an Eqv. 1 ⟕ only the σ reads — through a Π
// only it reads — and pred holds no nested block (see Planner); it
// returns nil otherwise. b is the σ's — or the bypass cascade's the σ
// stands for: the node stands for it. w emits what the σ's consumer
// reads (need, in order), and a Π between orders them when the consumer
// does not; its inputs provide that and what the predicate reads.
func (p *Planner) fuse(b base, child algebra.Op, pred algebra.Expr, need colSet, order *storage.Schema) (Node, error) {
	w, pr := child, (*algebra.Project)(nil)
	if x, ok := w.(*algebra.Project); ok && !p.memo[x].shared {
		w, pr = x.Child, x
	}
	switch w.(type) {
	case *algebra.LeftOuterJoin, *algebra.BinaryGroup:
	default:
		return nil, nil
	}
	if p.memo[w].shared || algebra.HasSubquery(pred) {
		return nil, nil
	}
	if pr != nil && order == nil {
		order = need.part(pr.Schema())
	}
	sch, in := w.Schema(), need
	if order != nil {
		in = addNames(0, sch, order.Attrs())
	}
	in = p.reads(in, sch, pred).of(sch.Len())
	n, err := p.lowerBinaryGroup(b, w, pred, in, need, order)
	if err != nil {
		return nil, err
	}
	return n, p.lowerBlocks(w)
}

// ErrBypass is what lowering a σ±, one of its streams or a ∪̇ returns
// outside a bypass cascade, their only plan (see Planner).
var ErrBypass = errors.New("physical: no plan for a bypass selection outside a bypass cascade")

// lowerCascade lowers the bypass cascade u over d1 … dn as σ[d ∨ d1 ∨ …
// ∨ dn] over its stacks, the node b writing order's columns, where d
// (u's decided, nil for none) is an enclosing cascade's disjuncts before
// it, whose rows u keeps (see Planner).
func (p *Planner) lowerCascade(b base, u *algebra.UnionDisjoint, order *storage.Schema) (Node, error) {
	d, err := p.bypassed(u.L, u.R, p.decided[u])
	if err != nil {
		return nil, err
	}
	last := u.R
	for x, ok := last.(*algebra.Project); ok; x, ok = last.(*algebra.Project) {
		last = x.Child
	}
	switch x := last.(type) {
	case *algebra.UnionDisjoint:
		return p.lowerCascade(b, x, order) // marked by bypassed with d
	case *algebra.Select:
		if err := p.lowerBlocks(x); err != nil {
			return nil, err
		}
		n, err := p.selection(b, x.Child, algebra.Or(d, x.Pred), addNames(0, x.Child.Schema(), order.Attrs()), order)
		if err != nil || n.Schema().Equal(order) {
			return n, err
		}
		cols, err := p.projection(n.Schema(), order.Attrs())
		p.number(n) // a Filter: the σ did not fuse
		if err == nil {
			err = p.bind(n)
		}
		b.sch = order
		return &Project{base: b, Child: n, Cols: cols}, err
	}
	return nil, fmt.Errorf("%w: %s", ErrBypass, u.Label())
}

// bypassed returns d ∨ d1 ∨ … ∨ dk, the predicates of the σ±s of u, a
// cascade's first k branches, in order, after it has marked the stack
// next — the one the following branch reads — down to σ±[dk]'s − stream
// with them (see Planner.decided), as each branch's own stack with the
// disjuncts before it. An operator another consumer reads fails.
func (p *Planner) bypassed(u, next algebra.Op, d algebra.Expr) (algebra.Expr, error) {
	branch, rest := u, algebra.Op(nil)
	if x, ok := u.(*algebra.UnionDisjoint); ok {
		branch, rest = x.R, x.L
	}
	bp := algebra.CascadeBypass(branch)
	if bp == nil {
		return nil, fmt.Errorf("%w: %s", ErrBypass, branch.Label())
	}
	var err error
	if rest != nil {
		d, err = p.bypassed(rest, bp.Child, d)
	}
	if err == nil {
		err = p.lowerBlocks(bp)
	}
	if err != nil {
		return nil, err
	}
	d = algebra.Or(d, bp.Pred)
	if !algebra.CascadeInput(next, bp, func(op algebra.Op) bool {
		if p.decided == nil {
			p.decided = make(map[algebra.Op]algebra.Expr)
		}
		p.decided[op] = d
		return !p.memo[op].shared
	}) {
		return nil, fmt.Errorf("%w: %s", ErrBypass, bp.Label())
	}
	return d, nil
}

// lowerJoin lowers a join w — ⋈, ×, ⋉ or ▷ — as the node b describes:
// its inputs for the columns need of its schema, and what it emits for
// need, in order (see emit). It picks the algorithm: hash on the
// equality conjuncts when any exist, nested loops otherwise. A semi or
// anti join passes left rows through, so its consumer's columns are all
// the left input's and the right input is read for the predicate alone.
func (p *Planner) lowerJoin(b base, w algebra.Op, need colSet, order *storage.Schema) (Node, error) {
	j := &Join{base: b}
	var lop, rop algebra.Op
	switch x := w.(type) {
	case *algebra.CrossProduct:
		lop, rop = x.L, x.R
	case *algebra.Join:
		lop, rop, j.Pred = x.L, x.R, x.Pred
	case *algebra.SemiJoin:
		lop, rop, j.Pred, j.Mode = x.L, x.R, x.Pred, JoinSemi
	case *algebra.AntiJoin:
		lop, rop, j.Pred, j.Mode = x.L, x.R, x.Pred, JoinAnti
	}
	passes := j.Mode != JoinInner
	ln, rn := need, colSet(0)
	if !passes {
		ln, rn = need.split(lop.Schema().Len())
	}
	l, r, err := p.lowerPair(lop, rop, j.Pred, ln, rn)
	if err != nil {
		return nil, err
	}
	j.L, j.R = l, r
	if passes {
		j.sch = l.Schema()
	} else if j.Emit, err = p.emit(&j.base, w, l.Schema(), r.Schema(), 0, need, order); err != nil {
		return nil, err
	}
	j.PassLeft = passesLeft(j.Emit, l.Schema())
	if lc, rc, residual := p.equiKeys(j.Pred, l.Schema(), r.Schema()); len(lc) > 0 {
		j.LCols, j.RCols, j.Pred = lc, rc, residual
	}
	return j, nil
}

// ErrOuterJoin is what lowering a ⟕ other than Eqv. 1's returns: there
// is no physical outer join (see Planner).
var ErrOuterJoin = errors.New("physical: no plan for a left outer join that is not Eqv. 1's")

// lowerBinaryGroup lowers w — a Γ², or Eqv. 1's e1 ⟕_{pred} Γ(e2), which
// is Γ²_{pred}(e1, e2) over Γ's aggregates (see Planner) — as the node b
// describes, with keep (nil for none) the selection fused into it, which
// sees a left row ◦ its aggregate results: L for the columns in of w's
// schema and what the predicate reads, R (e2 for the ⟕, from below a χ
// fused into the tag for a Γ², see tagged) for what the predicate, the
// aggregates and the tag read, and what it emits for need, in order (see
// emit). A hashed Γ²'s per-key fold is sized for the distinct keys of R:
// the Γ's estimate, or Groups over R's logical input.
func (p *Planner) lowerBinaryGroup(b base, w algebra.Op, keep algebra.Expr, in, need colSet, order *storage.Schema) (Node, error) {
	var lop, rop algebra.Op
	var pred, tag algebra.Expr
	var aggs []algebra.AggItem
	var eq1 *algebra.GroupBy // Eqv. 1's Γ
	switch x := w.(type) {
	case *algebra.BinaryGroup:
		lop, pred, aggs = x.L, x.Pred, x.Aggs
		rop, tag = p.tagged(x)
	case *algebra.LeftOuterJoin:
		if eq1 = p.eqv1(x, keep, need, order); eq1 == nil {
			return nil, fmt.Errorf("%w: %s", ErrOuterJoin, w.Label())
		}
		lop, rop, pred, aggs = x.L, eq1.Child, x.Pred, eq1.Aggs
	}
	ln, _ := in.split(lop.Schema().Len())
	l, r, err := p.lowerPair(lop, rop, pred, ln, p.aggReads(p.reads(0, rop.Schema(), tag), rop.Schema(), aggs))
	if err != nil {
		return nil, err
	}
	if x, ok := w.(*algebra.BinaryGroup); ok && tag != nil && rop == x.R && !r.Schema().Has(x.Tag) {
		return nil, fmt.Errorf("physical: tag %q not in %s", x.Tag, x.R.Schema())
	}
	emit, err := p.emit(&b, w, l.Schema(), nil, len(aggs), need, order)
	if err != nil {
		return nil, err
	}
	g := Grouping{R: r, Pred: pred, Tag: tag, Aggs: aggs}
	lc, rc, residual := p.equiKeys(pred, l.Schema(), r.Schema())
	switch hashed := len(lc) > 0 && residual == nil; {
	case eq1 != nil:
		// Every grouping attribute, and nothing else of e2, is equated.
		for _, a := range eq1.Attrs {
			hashed = hashed && slices.ContainsFunc(rc, func(c int) bool { return r.Schema().Attr(c) == a })
		}
		for _, c := range rc {
			hashed = hashed && slices.Contains(eq1.Attrs, r.Schema().Attr(c))
		}
		if !hashed {
			return nil, fmt.Errorf("%w: %s", ErrOuterJoin, w.Label())
		}
		g.LCols, g.RCols, g.Groups = lc, rc, p.est.Cardinality(eq1)
		if err := p.lowerBlocks(eq1); err != nil {
			return nil, err
		}
	case hashed:
		p.names = p.names[:0]
		for _, c := range rc {
			p.names = append(p.names, r.Schema().Attr(c))
		}
		g.LCols, g.RCols, g.Groups = lc, rc, p.est.Groups(rop, p.names)
	case tag == nil:
		if lc, rc, op, ok := sortable(pred, aggs, l.Schema(), r.Schema()); ok {
			g.LCols, g.RCols, g.Theta = p.newCols(1), p.newCols(1), op
			g.LCols[0], g.RCols[0] = lc, rc
		}
	}
	bg := &BinaryGroup{base: b, L: l, Keep: keep, Emit: emit}
	if lower := p.absorbable(lop, l, &g); lower != nil {
		p.absorb(bg, lower, g)
	} else {
		bg.one[0] = g
		bg.Groupings = bg.one[:]
	}
	bg.PassLeft = passesLeft(bg.Emit, bg.L.Schema())
	if keep != nil {
		p.decide(bg, w)
	}
	return bg, nil
}

// absorbable returns the Γ² l, lowered from lop, when the grouping g
// over it absorbs it (see Planner): l has one consumer — every operator
// from lop down to it does, a Π that dissolved into it or a cascade's −
// stream — and no fused selection, and looks each of its groupings up,
// and g's predicate and tag read none of its results. It returns nil
// otherwise.
func (p *Planner) absorbable(lop algebra.Op, l Node, g *Grouping) *BinaryGroup {
	lower, ok := l.(*BinaryGroup)
	if !ok || lower.Keep != nil || len(lower.Groupings) == 64 {
		return nil
	}
	for i := range lower.Groupings {
		if lower.Groupings[i].LCols == nil { // a nested-loop scan, not a lookup
			return nil
		}
	}
	for op := lop; ; {
		if p.memo[op].shared {
			return nil
		}
		if op == lower.Logical() {
			break
		}
		switch x := op.(type) {
		case *algebra.Project:
			op = x.Child
		case *algebra.Stream:
			op = x.Source.(*algebra.BypassSelect).Child // lowered as its σ±'s input
		default:
			return nil
		}
	}
	p.names = p.names[:0]
	if g.Pred != nil {
		p.names = g.Pred.Columns(p.names)
	}
	if g.Tag != nil {
		p.names = g.Tag.Columns(p.names)
	}
	for i := range lower.Groupings {
		if lower.Groupings[i].writesAny(p.names) {
			return nil
		}
	}
	return lower
}

// absorb makes bg the chain of the Γ² lower's groupings and g, over
// lower's left input: g's key columns and bg's emit list, positions in
// lower's output, become positions in that input ◦ the chain's results.
func (p *Planner) absorb(bg, lower *BinaryGroup, g Grouping) {
	if lower.Emit != nil {
		in, below, out := lower.L.Schema().Len(), lower.NumResults(), lower.Schema().Len()
		at := func(c int) int {
			if c < out {
				return lower.Emit[c]
			}
			return in + below + c - out // one of g's results
		}
		if g.LCols != nil {
			lcols := make([]int, len(g.LCols))
			for k, c := range g.LCols {
				lcols[k] = at(c)
			}
			g.LCols = lcols
		}
		emit := bg.Emit
		if emit == nil {
			emit = make([]int, out+len(g.Aggs))
			for i := range emit {
				emit[i] = i
			}
		}
		bg.Emit = make([]int, len(emit))
		identity := len(emit) == in+below+len(g.Aggs)
		for i, c := range emit {
			bg.Emit[i] = at(c)
			identity = identity && bg.Emit[i] == i
		}
		if identity {
			bg.Emit = nil
		}
	}
	bg.L, bg.Groupings = lower.L, append(lower.Groupings[:len(lower.Groupings):len(lower.Groupings)], g)
	p.spare = append(p.spare, lower.id)
}

// decide sets what the node bg, lowered from w with a fused selection,
// decides its rows by: the results its selection reads, every
// grouping's; the operands that read only bg's left input, split off
// into Bypass when the node emits no result and they compile over that
// input (VecBypass); and the rest of the selection as disjuncts, each
// with the groupings it reads. They keep
// the selection's order, which is stats.Estimator.Order's: the rewriter
// orders a σ's operands by it, and a bypass cascade's disjuncts — the σ
// the cascade lowers to — by it with each subquery's cost.
func (p *Planner) decide(bg *BinaryGroup, w algebra.Op) {
	attrs := w.Schema().Attrs()
	names := attrs[len(attrs)-bg.NumResults():]
	if len(bg.Groupings) > 1 {
		names = make([]string, 0, len(names))
		for i := range bg.Groupings {
			for _, a := range bg.Groupings[i].Aggs {
				names = append(names, a.Out)
			}
		}
	}
	bg.Results = storage.NewSchema(names...)
	rest := bg.Keep
	// A disjunction of a Γ² that emits no result is split.
	if _, or := rest.(*algebra.OrExpr); or && bg.Emit != nil && (len(bg.Emit) == 0 || slices.Max(bg.Emit) < bg.L.Schema().Len()) {
		if byp, r := p.splitLeft(rest, bg.L.Schema()); byp != nil && r != nil {
			if pr, err := vec.CompilePred(p.est.Order(byp, bg.L.Logical()), Columns(bg.L.Schema())); err == nil {
				bg.Bypass, bg.VecBypass, rest = byp, pr, r
			}
		}
	}
	var buf [8]algebra.Expr
	parts := algebra.AppendDisjuncts(buf[:0], rest)
	bg.Rest = bg.rest[:]
	if len(parts) > 1 {
		bg.Rest = make([]Disjunct, len(parts))
	}
	for i, d := range parts {
		bg.Rest[i].Pred = d
		p.names = d.Columns(p.names[:0])
		for j := range bg.Groupings {
			if bg.Groupings[j].writesAny(p.names) {
				bg.Rest[i].Reads |= 1 << uint(j)
			}
		}
	}
}

// eqv1 returns the Γ of Eqv. 1's w = e1 ⟕ Γ(e2), or nil when the Γ has
// another consumer or is global, w pads an aggregate with anything but
// its f(∅) — its default, NULL without one — or w's consumer (need, in
// order) or keep reads one of Γ's keys, which a Γ² does not carry.
func (p *Planner) eqv1(w *algebra.LeftOuterJoin, keep algebra.Expr, need colSet, order *storage.Schema) *algebra.GroupBy {
	g, _ := w.R.(*algebra.GroupBy)
	if g == nil || g.Global || p.memo[g].shared {
		return nil
	}
	for _, a := range g.Aggs {
		d := slices.IndexFunc(w.Defaults, func(d algebra.Default) bool { return d.Attr == a.Out })
		if d < 0 && !a.Spec.Empty().IsNull() || d >= 0 && w.Defaults[d].Val != a.Spec.Empty() {
			return nil
		}
	}
	if keep != nil {
		p.names = keep.Columns(p.names[:0])
	}
	for _, a := range g.Attrs {
		if order != nil && order.Has(a) || order == nil && need.has(w.Schema().Index(a)) ||
			keep != nil && slices.Contains(p.names, a) {
			return nil
		}
	}
	return g
}

// tagged returns the input a Γ² reads its right tuples from and its tag:
// for an untagged Γ², R and nil. A tagged Γ² whose R is χ[tag:p](R′) —
// directly or through one Π — reads R′ and tags with p itself when the
// χ, and the Π, have no other consumer, p holds no nested block, and the
// predicate and aggregates read of R only columns R′ carries, under the
// same names: the χ is fused and never built. Otherwise the tag is R's
// tag column.
func (p *Planner) tagged(x *algebra.BinaryGroup) (algebra.Op, algebra.Expr) {
	if x.Tag == "" {
		return x.R, nil
	}
	col := algebra.Col(x.Tag)
	r, pr := x.R, (*algebra.Project)(nil)
	if y, ok := r.(*algebra.Project); ok && !p.memo[y].shared {
		r, pr = y.Child, y
	}
	m, ok := r.(*algebra.MapOp)
	if !ok || m.Attr != x.Tag || p.memo[m].shared || algebra.HasSubquery(m.Expr) {
		return x.R, col
	}
	// The names the Γ² reads of R; a DISTINCT * over every column of R
	// reads the tag column too.
	p.names = p.names[:0]
	if x.Pred != nil {
		p.names = x.Pred.Columns(p.names)
	}
	for _, a := range x.Aggs {
		switch {
		case a.Arg != nil:
			p.names = a.Arg.Columns(p.names)
		case a.Spec.Distinct && len(a.ArgAttrs) == 0:
			return x.R, col
		default:
			p.names = append(p.names, a.ArgAttrs...)
		}
	}
	for _, n := range p.names {
		if n == x.Tag || pr != nil && !pr.Schema().Has(n) && m.Child.Schema().Has(n) {
			return x.R, col
		}
	}
	return m.Child, m.Expr
}

// splitLeft divides the disjunction e into its operands that read only
// columns of l and the others (nil for none), building no OR it need not.
func (p *Planner) splitLeft(e algebra.Expr, l *storage.Schema) (left, rest algebra.Expr) {
	p.names = e.Columns(p.names[:0])
	only := true
	for _, n := range p.names {
		only = only && l.Has(n)
	}
	if only {
		return e, nil
	}
	or, ok := e.(*algebra.OrExpr)
	if !ok {
		return nil, e
	}
	ll, lr := p.splitLeft(or.L, l)
	rl, rr := p.splitLeft(or.R, l)
	return orOf(ll, rl), orOf(lr, rr)
}

// orOf is a ∨ b, where nil is no operand.
func orOf(a, b algebra.Expr) algebra.Expr {
	if a == nil || b == nil {
		return cmp.Or(a, b)
	}
	return algebra.Or(a, b)
}

// passesLeft reports whether an emit list is a prefix of the left input
// l's columns, so that each row it describes is the left row itself.
func passesLeft(emit []int, l *storage.Schema) bool {
	if emit == nil || len(emit) > l.Len() {
		return false
	}
	for i, c := range emit {
		if c != i {
			return false
		}
	}
	return true
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
func (p *Planner) emit(b *base, w algebra.Op, l, r *storage.Schema, extra int, need colSet, order *storage.Schema) ([]int, error) {
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
	emit := p.newCols(b.sch.Len())
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

// equiKeys is algebra.EquiKeys with the key columns cut from the plan's
// slab and the residual conjuncts as one conjunction, nil for none.
func (p *Planner) equiKeys(pred algebra.Expr, ls, rs *storage.Schema) (lcols, rcols []int, residual algebra.Expr) {
	var lbuf, rbuf [8]int
	var rest [8]algebra.Expr
	lc, rc, res := algebra.AppendEquiKeys(lbuf[:0], rbuf[:0], rest[:0], pred, ls, rs)
	if len(lc) > 0 {
		lcols, rcols = p.newCols(len(lc)), p.newCols(len(rc))
		copy(lcols, lc)
		copy(rcols, rc)
	}
	if len(res) > 0 {
		residual = algebra.And(res...)
	}
	return lcols, rcols, residual
}

// projection is sch.Projection of names, cut from the plan's slab.
func (p *Planner) projection(sch *storage.Schema, names []string) ([]int, error) {
	cols := p.newCols(len(names))
	return cols, sch.Projection(cols, names)
}

// sortable returns the key columns and comparison of a binary grouping
// on pred over aggs that can run sort-based — a single column-vs-column
// inequality between the inputs l and r, and no DISTINCT or AVG
// aggregate — oriented as l θ r; false otherwise.
func sortable(pred algebra.Expr, aggs []algebra.AggItem, l, r *storage.Schema) (lcol, rcol int, op types.CompareOp, ok bool) {
	cmp, ok := pred.(*algebra.CmpExpr)
	if !ok {
		return 0, 0, types.EQ, false
	}
	switch cmp.Op {
	case types.LT, types.LE, types.GT, types.GE:
	default:
		return 0, 0, types.EQ, false
	}
	a, aok := cmp.L.(*algebra.ColRef)
	c, cok := cmp.R.(*algebra.ColRef)
	if !aok || !cok {
		return 0, 0, types.EQ, false
	}
	op = cmp.Op
	if !l.Has(a.Name) || !r.Has(c.Name) {
		if a, c, op = c, a, op.Flip(); !l.Has(a.Name) || !r.Has(c.Name) {
			return 0, 0, types.EQ, false
		}
	}
	for _, item := range aggs {
		if item.Spec.Distinct || item.Spec.Kind == agg.Avg {
			return 0, 0, types.EQ, false
		}
	}
	return l.Index(a.Name), r.Index(c.Name), op, true
}
