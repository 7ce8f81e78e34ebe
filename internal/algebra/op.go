package algebra

import (
	"fmt"
	"slices"

	"disqo/internal/agg"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Op is a logical algebra operator. Plans are DAGs: bypass operators are
// shared by a positive and a negative Stream node, and the rewriter may
// share whole subplans (e.g. OR-expansion selects every branch from one
// shared input plan).
type Op interface {
	// Schema is the operator's output schema, fixed at construction.
	Schema() *storage.Schema
	// Inputs returns the operator's child operators in order.
	Inputs() []Op
	// Label is the short EXPLAIN label, e.g. "σ[(r.a4 > 1500)]".
	Label() string
}

// unary and binary are embedded by the operators with one and with two
// inputs — every kind but Scan and Stream — so the input shape of the
// operator tree is stated here rather than once per kind. Unless it
// declares its own, a unary operator has its child's schema and a binary
// one its left input's (semi- and antijoin, the unions).
type unary struct{ Child Op }

// Inputs implements Op.
func (u unary) Inputs() []Op { return []Op{u.Child} }

func (u unary) inputs() (Op, Op) { return u.Child, nil }

// Schema implements Op.
func (u unary) Schema() *storage.Schema { return u.Child.Schema() }

type binary struct{ L, R Op }

// Inputs implements Op.
func (b binary) Inputs() []Op { return []Op{b.L, b.R} }

func (b binary) inputs() (Op, Op) { return b.L, b.R }

// Schema implements Op.
func (b binary) Schema() *storage.Schema { return b.L.Schema() }

// ---------------------------------------------------------------------
// Scan

// Scan reads a base table, producing attributes qualified by the range
// variable that bound it ("r.a1").
type Scan struct {
	Table   string // catalog table name
	Binding string // range variable (alias) the attributes are qualified with
	schema  *storage.Schema
}

// NewScan builds a scan node over an explicit output schema (the
// translator derives it from the catalog and alias).
func NewScan(table, binding string, schema *storage.Schema) *Scan {
	return &Scan{Table: table, Binding: binding, schema: schema}
}

// Schema implements Op.
func (s *Scan) Schema() *storage.Schema { return s.schema }

// Inputs implements Op.
func (s *Scan) Inputs() []Op { return nil }

// Label implements Op.
func (s *Scan) Label() string {
	if s.Binding != "" && s.Binding != s.Table {
		return fmt.Sprintf("scan(%s AS %s)", s.Table, s.Binding)
	}
	return fmt.Sprintf("scan(%s)", s.Table)
}

// ---------------------------------------------------------------------
// Select and bypass select

// Select is σ_p: keeps tuples whose predicate evaluates to TRUE.
type Select struct {
	unary
	Pred Expr
}

// NewSelect builds a selection.
func NewSelect(child Op, pred Expr) *Select { return &Select{unary: unary{child}, Pred: pred} }

// Label implements Op.
func (s *Select) Label() string { return fmt.Sprintf("σ[%s]", s.Pred) }

// BypassSelect is σ±_p: the positive stream carries tuples whose
// predicate is TRUE, the negative stream the complement (FALSE or
// UNKNOWN). Consumers attach via Stream nodes; both streams together are
// a disjoint partition of the input (paper Fig. 1).
type BypassSelect struct {
	unary
	Pred Expr
}

// NewBypassSelect builds a bypass selection.
func NewBypassSelect(child Op, pred Expr) *BypassSelect {
	return &BypassSelect{unary: unary{child}, Pred: pred}
}

// Label implements Op.
func (s *BypassSelect) Label() string { return fmt.Sprintf("σ±[%s]", s.Pred) }

// Stream selects one output stream of a bypass selection. Its child must
// be a *BypassSelect.
type Stream struct {
	Source   Op
	Positive bool
}

// Pos returns the positive stream of a bypass operator.
func Pos(source Op) *Stream { return &Stream{Source: source, Positive: true} }

// Neg returns the negative stream of a bypass operator.
func Neg(source Op) *Stream { return &Stream{Source: source, Positive: false} }

// Schema implements Op.
func (s *Stream) Schema() *storage.Schema { return s.Source.Schema() }

// Inputs implements Op.
func (s *Stream) Inputs() []Op { return []Op{s.Source} }

func (s *Stream) inputs() (Op, Op) { return s.Source, nil }

// Label implements Op.
func (s *Stream) Label() string {
	if s.Positive {
		return "+stream"
	}
	return "−stream"
}

// A bypass cascade is Eqv. 2/3 over the disjuncts d1 … dn as the
// rewriter builds it: the left-deep ∪̇ of the branches [Π](Pos(σ±[di](cur_i)))
// for i < n and a last branch [Π](σ[dn](cur_n)), each cur_(i+1) built
// on Neg(σ±[di](cur_i)) by operators that pass each row of their left
// input on at most once — Π, σ, ⟕ and Γ² — and by cascades of this
// shape, whose own input such operators build in turn. The last branch
// may itself be a cascade (a last disjunct holding a disjunction with a
// subquery is unnested again), under Πs. CascadeBypass and CascadeInput
// read the shape.

// CascadeBypass returns σ±[d] when branch is a cascade's branch
// [Π](Pos(σ±[d](…))), and nil otherwise.
func CascadeBypass(branch Op) *BypassSelect {
	if x, ok := branch.(*Project); ok {
		branch = x.Child
	}
	if s, ok := branch.(*Stream); ok && s.Positive {
		bp, _ := s.Source.(*BypassSelect)
		return bp
	}
	return nil
}

// CascadeInput walks from op, a cascade's stack, down the left input of
// each operator to bp's − stream, calling visit on every operator on
// the way, the stream included; a cascade on the way is left through the
// input of its first σ±. It reports false when an operator is not one a
// stack is built of, or visit returns false.
func CascadeInput(op Op, bp *BypassSelect, visit func(Op) bool) bool {
	for visit(op) {
		switch x := op.(type) {
		case *Project:
			op = x.Child
		case *Select:
			op = x.Child
		case *LeftOuterJoin:
			op = x.L
		case *BinaryGroup:
			op = x.L
		case *UnionDisjoint:
			first := x.L
			for u, ok := first.(*UnionDisjoint); ok; u, ok = first.(*UnionDisjoint) {
				first = u.L
			}
			b := CascadeBypass(first)
			if b == nil {
				return false
			}
			op = b.Child
		case *Stream:
			return !x.Positive && x.Source == bp
		default:
			return false
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Projection, rename, map

// Project is duplicate-preserving projection Π_A onto named attributes.
type Project struct {
	unary
	Attrs  []string
	schema *storage.Schema
}

// NewProject builds a projection; it panics if an attribute is missing
// from the child schema (a rewriter bug, not a user error). Onto the
// child's own attribute list it has the child's schema.
func NewProject(child Op, attrs []string) *Project {
	sch := child.Schema()
	mustHave(sch, attrs, "project")
	if !slices.Equal(attrs, sch.Attrs()) {
		sch = storage.NewSchema(attrs...)
	}
	return &Project{unary: unary{child}, Attrs: attrs, schema: sch}
}

// ProjectOnto builds the projection whose schema is sch: Π onto sch's
// attributes, sharing sch.
func ProjectOnto(child Op, sch *storage.Schema) *Project {
	mustHave(child.Schema(), sch.Attrs(), "project")
	return &Project{unary: unary{child}, Attrs: sch.Attrs(), schema: sch}
}

// mustHave panics when sch lacks one of attrs: an operator built over
// attributes its input does not carry is a rewriter bug.
func mustHave(sch *storage.Schema, attrs []string, op string) {
	for _, a := range attrs {
		if !sch.Has(a) {
			panic(fmt.Sprintf("algebra: %s: no attribute %q in %s", op, a, sch))
		}
	}
}

// Schema implements Op.
func (p *Project) Schema() *storage.Schema { return p.schema }

// Label implements Op.
func (p *Project) Label() string { return fmt.Sprintf("Π%s", p.schema) }

// Rename is ρ_{new←old}, renaming a set of attributes.
type Rename struct {
	unary
	Pairs  [][2]string // {new, old}
	schema *storage.Schema
}

// NewRename builds a rename node.
func NewRename(child Op, pairs [][2]string) (*Rename, error) {
	sch := child.Schema()
	var err error
	for _, p := range pairs {
		if sch, err = sch.Rename(p[1], p[0]); err != nil {
			return nil, err
		}
	}
	return &Rename{unary: unary{child}, Pairs: pairs, schema: sch}, nil
}

// Schema implements Op.
func (r *Rename) Schema() *storage.Schema { return r.schema }

// Label implements Op.
func (r *Rename) Label() string {
	s := "ρ["
	for i, p := range r.Pairs {
		if i > 0 {
			s += ", "
		}
		s += p[0] + "←" + p[1]
	}
	return s + "]"
}

// MapOp is χ_{a:e}: extends every tuple with a computed attribute.
type MapOp struct {
	unary
	Attr   string
	Expr   Expr
	schema *storage.Schema
}

// NewMap builds a map node.
func NewMap(child Op, attr string, e Expr) *MapOp {
	return &MapOp{unary: unary{child}, Attr: attr, Expr: e, schema: child.Schema().Extend(attr)}
}

// Schema implements Op.
func (m *MapOp) Schema() *storage.Schema { return m.schema }

// Label implements Op.
func (m *MapOp) Label() string { return fmt.Sprintf("χ[%s:%s]", m.Attr, m.Expr) }

// ---------------------------------------------------------------------
// Products and joins

// CrossProduct is ×.
type CrossProduct struct {
	binary
	schema *storage.Schema
}

// NewCross builds a cross product.
func NewCross(l, r Op) *CrossProduct {
	return &CrossProduct{binary: binary{l, r}, schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Op.
func (c *CrossProduct) Schema() *storage.Schema { return c.schema }

// Label implements Op.
func (c *CrossProduct) Label() string { return "×" }

// Join is the inner join ⋈_p.
type Join struct {
	binary
	Pred   Expr
	schema *storage.Schema
}

// NewJoin builds an inner join.
func NewJoin(l, r Op, pred Expr) *Join {
	return &Join{binary: binary{l, r}, Pred: pred, schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Op.
func (j *Join) Schema() *storage.Schema { return j.schema }

// Label implements Op.
func (j *Join) Label() string { return fmt.Sprintf("⋈[%s]", j.Pred) }

// SemiJoin is ⋉_p: keeps each left tuple that has at least one right
// partner satisfying p (once, regardless of partner count). The direct
// translation of a conjunctive correlated EXISTS / IN.
type SemiJoin struct {
	binary
	Pred Expr
}

// NewSemiJoin builds a semijoin.
func NewSemiJoin(l, r Op, pred Expr) *SemiJoin { return &SemiJoin{binary: binary{l, r}, Pred: pred} }

// Label implements Op.
func (j *SemiJoin) Label() string { return fmt.Sprintf("⋉[%s]", j.Pred) }

// AntiJoin is ▷_p: keeps each left tuple with NO right partner satisfying
// p — the direct translation of a conjunctive correlated NOT EXISTS.
// (Not sound for NOT IN, whose NULL semantics need the count-based form.)
type AntiJoin struct {
	binary
	Pred Expr
}

// NewAntiJoin builds an antijoin.
func NewAntiJoin(l, r Op, pred Expr) *AntiJoin { return &AntiJoin{binary: binary{l, r}, Pred: pred} }

// Label implements Op.
func (j *AntiJoin) Label() string { return fmt.Sprintf("▷[%s]", j.Pred) }

// Default assigns a value to an attribute for unmatched outer tuples of a
// LeftOuterJoin — the paper's g:f(∅) annotation that repairs the count
// bug.
type Default struct {
	Attr string
	Val  types.Value
}

// LeftOuterJoin is ⟕_p with per-attribute defaults for unmatched outer
// tuples: matched tuples are x◦y as in the join; an outer tuple with no
// partner is padded with NULLs except for the Defaults attributes, which
// receive their configured value (f(∅)).
type LeftOuterJoin struct {
	binary
	Pred     Expr
	Defaults []Default
	schema   *storage.Schema
}

// NewLeftOuterJoin builds a left outerjoin.
func NewLeftOuterJoin(l, r Op, pred Expr, defaults []Default) *LeftOuterJoin {
	return &LeftOuterJoin{binary: binary{l, r}, Pred: pred, Defaults: defaults,
		schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Op.
func (j *LeftOuterJoin) Schema() *storage.Schema { return j.schema }

// Label implements Op.
func (j *LeftOuterJoin) Label() string {
	d := ""
	for i, def := range j.Defaults {
		if i > 0 {
			d += ","
		}
		d += fmt.Sprintf("%s:%s", def.Attr, def.Val)
	}
	return fmt.Sprintf("⟕[%s][%s]", j.Pred, d)
}

// ---------------------------------------------------------------------
// Grouping

// AggItem is one aggregate computed by a grouping operator: spec, output
// attribute, and argument. For Star specs Arg is nil and ArgAttrs names
// the attributes forming the * tuple (so COUNT(DISTINCT *) of an inner
// block counts distinct inner tuples even after joins widened the row).
type AggItem struct {
	Out      string
	Spec     agg.Spec
	Arg      Expr
	ArgAttrs []string
}

// Label renders "out:COUNT(DISTINCT *)" for EXPLAIN.
func (a AggItem) Label() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	mod := ""
	if a.Spec.Distinct {
		mod = "DISTINCT "
	}
	return fmt.Sprintf("%s:%s(%s%s)", a.Out, a.Spec.Kind, mod, arg)
}

// GroupBy is the unary grouping operator Γ_{g;=A;f}: one output tuple per
// distinct grouping-attribute combination, carrying the group attributes
// and the aggregates. With no group attributes and Global set, it emits
// exactly one tuple (the SQL global aggregate); without Global an empty
// input produces no groups.
type GroupBy struct {
	unary
	Attrs  []string // grouping attributes
	Aggs   []AggItem
	Global bool
	schema *storage.Schema
}

// NewGroupBy builds a unary grouping node.
func NewGroupBy(child Op, attrs []string, aggs []AggItem, global bool) *GroupBy {
	mustHave(child.Schema(), attrs, "groupby")
	names := make([]string, 0, len(attrs)+len(aggs))
	names = append(names, attrs...)
	for _, a := range aggs {
		names = append(names, a.Out)
	}
	return &GroupBy{unary: unary{child}, Attrs: attrs, Aggs: aggs, Global: global,
		schema: storage.NewSchema(names...)}
}

// Schema implements Op.
func (g *GroupBy) Schema() *storage.Schema { return g.schema }

// Label implements Op.
func (g *GroupBy) Label() string {
	aggs := ""
	for i, a := range g.Aggs {
		if i > 0 {
			aggs += ","
		}
		aggs += a.Label()
	}
	if g.Global {
		return fmt.Sprintf("Γ[global][%s]", aggs)
	}
	return fmt.Sprintf("Γ[%v][%s]", g.Attrs, aggs)
}

// BinaryGroup is the binary grouping operator e1 Γ_{g;p;f} e2 (Fig. 1):
// every e1 tuple x is extended with g = f({y ∈ e2 | p(x, y)}). Empty
// match sets receive f(∅) directly — binary grouping has no count bug.
// The predicate may be an arbitrary expression over both schemas;
// internal/exec specializes equality conjunctions to a hash
// implementation (May & Moerkotte's main-memory algorithms).
//
// A non-empty Tag (set after construction) names a truth-valued
// attribute of e2 and makes the match condition p(x, y) ∨ y.Tag — Eqv. 5's tagged form: the tuples
// whose tag is TRUE belong to every x's group, the rest only where p
// holds, so the group is σ_tag(e2) ∪̇ σ_p(σ_{¬tag}(e2)) per x and the
// complement pairs are never built.
type BinaryGroup struct {
	binary
	Pred   Expr
	Tag    string
	Aggs   []AggItem
	schema *storage.Schema
}

// NewBinaryGroup builds a binary grouping node.
func NewBinaryGroup(l, r Op, pred Expr, aggs []AggItem) *BinaryGroup {
	names := make([]string, 0, l.Schema().Len()+len(aggs))
	names = append(names, l.Schema().Attrs()...)
	for _, a := range aggs {
		names = append(names, a.Out)
	}
	return &BinaryGroup{binary: binary{l, r}, Pred: pred, Aggs: aggs, schema: storage.NewSchema(names...)}
}

// Schema implements Op.
func (b *BinaryGroup) Schema() *storage.Schema { return b.schema }

// Label implements Op.
func (b *BinaryGroup) Label() string {
	aggs := ""
	for i, a := range b.Aggs {
		if i > 0 {
			aggs += ","
		}
		aggs += a.Label()
	}
	if b.Tag != "" {
		return fmt.Sprintf("Γ²[%s ∨ %s][%s]", b.Pred, b.Tag, aggs)
	}
	return fmt.Sprintf("Γ²[%s][%s]", b.Pred, aggs)
}

// ---------------------------------------------------------------------
// Set operations and the rest

// UnionDisjoint is ∪̇ — union of streams known to be disjoint (the two
// outputs of a bypass operator). The executor concatenates without
// duplicate checks; schemas must be equal.
type UnionDisjoint struct {
	binary
}

// NewUnionDisjoint builds a disjoint union; it panics on schema mismatch
// (a rewriter bug).
func NewUnionDisjoint(l, r Op) *UnionDisjoint {
	if !l.Schema().Equal(r.Schema()) {
		panic(fmt.Sprintf("algebra: disjoint union schema mismatch: %s vs %s", l.Schema(), r.Schema()))
	}
	return &UnionDisjoint{binary: binary{l, r}}
}

// Label implements Op.
func (u *UnionDisjoint) Label() string { return "∪̇" }

// UnionAll is bag union (concatenation) of two inputs with equal schemas.
// Unlike UnionDisjoint it carries no disjointness claim: the S2 baseline's
// OR-expansion unions overlapping branches and relies on a Distinct above.
type UnionAll struct {
	binary
}

// NewUnionAll builds a bag union; it panics on schema mismatch.
func NewUnionAll(l, r Op) *UnionAll {
	if !l.Schema().Equal(r.Schema()) {
		panic(fmt.Sprintf("algebra: union-all schema mismatch: %s vs %s", l.Schema(), r.Schema()))
	}
	return &UnionAll{binary: binary{l, r}}
}

// Label implements Op.
func (u *UnionAll) Label() string { return "∪all" }

// Distinct removes duplicate tuples (Identical semantics).
type Distinct struct {
	unary
}

// NewDistinct builds a duplicate-elimination node.
func NewDistinct(child Op) *Distinct { return &Distinct{unary: unary{child}} }

// Label implements Op.
func (d *Distinct) Label() string { return "distinct" }

// Limit keeps the first N input tuples (applied after Sort for the SQL
// ORDER BY … LIMIT pattern).
type Limit struct {
	unary
	N int64
}

// NewLimit builds a limit node.
func NewLimit(child Op, n int64) *Limit { return &Limit{unary: unary{child}, N: n} }

// Label implements Op.
func (l *Limit) Label() string { return fmt.Sprintf("limit[%d]", l.N) }

// SortKey is one ORDER BY key.
type SortKey struct {
	Attr string
	Desc bool
}

// Sort orders tuples by the keys (stable; NULLs first).
type Sort struct {
	unary
	Keys []SortKey
}

// NewSort builds a sort node.
func NewSort(child Op, keys []SortKey) *Sort { return &Sort{unary: unary{child}, Keys: keys} }

// Label implements Op.
func (s *Sort) Label() string {
	out := "sort["
	for i, k := range s.Keys {
		if i > 0 {
			out += ", "
		}
		out += k.Attr
		if k.Desc {
			out += " DESC"
		}
	}
	return out + "]"
}
