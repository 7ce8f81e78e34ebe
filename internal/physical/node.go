// Package physical defines disqo's physical plan layer: the executable
// operator tree the planner lowers logical algebra into. Where the
// logical algebra (internal/algebra) says *what* to compute — join,
// bypass selection, binary grouping — a physical node says *how*, in
// its fields: hash join vs. nested loops, sort-based vs. hash-based
// binary grouping, which column positions carry the keys, and which
// predicate fragments remain residual. One node type stands for each
// operator whatever its algorithm. All algorithm choices the executor
// used to make inline now happen once, in Planner.Lower, where they are
// visible to EXPLAIN and testable in isolation; every node carries the
// estimated output cardinality from internal/stats.
package physical

import (
	"fmt"
	"slices"
	"strings"

	"disqo/internal/algebra"
	"disqo/internal/storage"
	"disqo/internal/types"
	"disqo/internal/vec"
)

// Node is one physical operator. Children() returns the physical
// inputs; Logical() the algebra operator this node was lowered from
// (several physical nodes may share one logical operator's schema and
// EXPLAIN ANALYZE attributes its row counts through this link).
type Node interface {
	// Logical returns the algebra operator this node implements.
	Logical() algebra.Op
	// Schema returns the schema of the rows the node produces: the
	// logical operator's, or the part of it the node's consumer reads
	// when the planner pruned the rest (see Planner). Consumers resolve
	// columns against it by name.
	Schema() *storage.Schema
	// Children returns the physical inputs in evaluation order.
	Children() []Node
	// Label renders the operator with its physical details.
	Label() string
	// EstRows is the planner's estimated output cardinality.
	EstRows() float64
	// ID is the planner-assigned ordinal, dense in [0, Planner.NodeCount).
	// The executor's runtime metrics are slices indexed by it.
	ID() int
	setID(int)
	// Correlated reports whether the node's rows depend on the
	// parameter frame of the block it is in: it, or a node below it,
	// reads a column of an enclosing block, so its result holds for one
	// outer binding only.
	Correlated() bool
	setCorrelated(bool)
	// Shared reports whether more than one consumer reads the node's
	// output: two operators of the plan, or two expressions embedding
	// its block.
	Shared() bool
	// Output is what comes back of the node's output once its consumer
	// has read it (see Output).
	Output() Output
	setShared(bool)
	setOutput(Output)
}

// base carries the fields every node shares.
type base struct {
	logical algebra.Op
	sch     *storage.Schema
	est     float64
	id      int
	corr    bool
	shared  bool
	out     Output
}

func (b *base) Logical() algebra.Op     { return b.logical }
func (b *base) Schema() *storage.Schema { return b.sch }
func (b *base) EstRows() float64        { return b.est }
func (b *base) ID() int                 { return b.id }
func (b *base) setID(id int)            { b.id = id }
func (b *base) Correlated() bool        { return b.corr }
func (b *base) setCorrelated(c bool)    { b.corr = c }
func (b *base) Shared() bool            { return b.shared }
func (b *base) setShared(s bool)        { b.shared = s }
func (b *base) Output() Output          { return b.out }
func (b *base) setOutput(o Output)      { b.out = o }

// JoinMode selects what a join emits: matched pairs (inner), or left
// tuples with a match (semi) or without one (anti).
type JoinMode uint8

// The join modes.
const (
	JoinInner JoinMode = iota
	JoinSemi
	JoinAnti
)

func (m JoinMode) String() string { return [...]string{"inner", "semi", "anti"}[m] }

// Scan reads a base table.
type Scan struct {
	base
	Table string
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string { return "Scan(" + s.Table + ")" }

// Filter keeps tuples satisfying the predicate (σ).
type Filter struct {
	base
	Child Node
	Pred  algebra.Expr
	// VecPred is the compiled columnar program for Pred (with AND/OR
	// operands cost-ordered), set by the planner when the predicate
	// compiles; nil means Pred is interpreted per row.
	VecPred *vec.Pred
	// Bound is Pred bound to the input row (see bind.go): what the row
	// path interprets.
	Bound *Bound
}

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *Filter) Label() string { return fmt.Sprintf("Filter[%s]", f.Pred) }

// Project restricts tuples to the named columns; Cols are the resolved
// positions in the child schema.
type Project struct {
	base
	Child Node
	Cols  []int
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Prefix reports whether the projected columns are a prefix of the
// input's: each output row is then that prefix of its input row.
func (p *Project) Prefix() bool {
	for j, c := range p.Cols {
		if c != j {
			return false
		}
	}
	return true
}

// Label implements Node.
func (p *Project) Label() string { return fmt.Sprintf("Project%s", p.Schema()) }

// Rename relabels attributes; tuples pass through untouched.
type Rename struct {
	base
	Child Node
}

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Child} }

// Label implements Node.
func (r *Rename) Label() string { return "Rename" + r.Schema().String() }

// Map extends each tuple with one computed attribute (χ). Emit is as in
// Join, over the input row ◦ the computed value.
type Map struct {
	base
	Child Node
	Attr  string
	Expr  algebra.Expr
	// VecExpr is the compiled columnar program for Expr; nil means Expr
	// is interpreted per row.
	VecExpr *vec.Scalar
	Bound   *Bound // Expr bound to the input row
	Emit    []int
}

// Children implements Node.
func (m *Map) Children() []Node { return []Node{m.Child} }

// Label implements Node.
func (m *Map) Label() string {
	return fmt.Sprintf("Map[%s:%s]", m.Attr, m.Expr) + emitLabel(m, m.Emit, m.Child.Schema().Len()+1)
}

// equiKeys renders hash key pairs as "l=r ∧ …" for labels.
func equiKeys(ls *storage.Schema, lcols []int, rs *storage.Schema, rcols []int) string {
	keys := make([]string, len(lcols))
	for i := range lcols {
		keys[i] = ls.Attr(lcols[i]) + "=" + rs.Attr(rcols[i])
	}
	return strings.Join(keys, " ∧ ")
}

// emitLabel renders the emit list of an operator that writes its own
// output rows, after its label: the columns it emits and how many of the
// in columns it assembles a row from those are. Nothing for a nil list
// (every column, in order).
func emitLabel(n Node, emit []int, in int) string {
	if emit == nil {
		return ""
	}
	return fmt.Sprintf(" → %s (%d of %d cols)", n.Schema(), len(emit), in)
}

// Join is every join: ⋈ and ×, ⋉ and ▷. There is no physical left
// outer join: the only ⟕ disqo plans, Eqv. 1's, is a BinaryGroup. The
// algorithm is read from the fields: with LCols/RCols set the join
// builds a hash table on the right input's key columns and probes it
// with the left's, and Pred is the residual re-checked per matched pair
// (nil when none); otherwise it runs nested loops, and Pred is the whole
// predicate (nil: a cross product). Emit lists the columns of a pair
// l ◦ r an inner join writes, as positions in it — what the node's
// consumer reads, in the consumer's order; nil means all of them.
// PassLeft, set by the planner when Emit is a prefix of the left input's
// columns, makes each output row the left row itself, cut to that width,
// instead of a copy. Semi and anti joins pass left rows through and have
// no emit list.
type Join struct {
	base
	L, R     Node
	Mode     JoinMode
	LCols    []int
	RCols    []int
	Pred     algebra.Expr
	Bound    *Bound // Pred bound to the pair l ◦ r (nil for none)
	Emit     []int
	PassLeft bool
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *Join) Label() string {
	algo, args := "NL", "cross"
	if j.Pred != nil {
		args = j.Pred.String()
	}
	if j.LCols != nil {
		algo, args = "Hash", equiKeys(j.L.Schema(), j.LCols, j.R.Schema(), j.RCols)
	}
	name := algo + "Join"
	if j.Mode != JoinInner {
		name += "(" + j.Mode.String() + ")"
	}
	out := name + "[" + args + "]"
	if j.LCols != nil && j.Pred != nil {
		out += " residual[" + j.Pred.String() + "]"
	}
	return out + emitLabel(j, j.Emit, j.L.Schema().Len()+j.R.Schema().Len())
}

// Group is the unary grouping operator Γ, hash-based with Identical key
// semantics. KeyCols are the grouping columns resolved in the child
// schema; Global groupings emit one row even on empty input.
type Group struct {
	base
	Child   Node
	KeyCols []int
	Attrs   []string
	Aggs    []algebra.AggItem
	Args    []AggArg // Aggs' arguments bound to the input row
	Global  bool
}

// Children implements Node.
func (g *Group) Children() []Node { return []Node{g.Child} }

// Label implements Node.
func (g *Group) Label() string {
	if g.Global {
		return fmt.Sprintf("HashGroup[global][%s]", aggLabels(g.Aggs))
	}
	return fmt.Sprintf("HashGroup[%v][%s]", g.Attrs, aggLabels(g.Aggs))
}

func aggLabels(aggs []algebra.AggItem) string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.Label()
	}
	return strings.Join(out, ",")
}

// BinaryGroup is Γ² over one left input L and an ordered list of
// groupings: each left tuple aggregates, per grouping, the right tuples
// of that grouping's R that match its Pred — and Eqv. 1's ⟕ over Γ,
// which a grouping then stands for, run over the Γ's input (see
// Planner). A list of one is one Γ²; a longer one is a chain of Γ²s,
// each the left input of the next, run as one pass over the bottom one's
// left input (see Planner), and its results are every grouping's, in
// order. Keep is a selection σ the planner fused into the Γ² (nil for
// none): it is evaluated on each left row ◦ its results, which Results
// names, and only the rows it holds TRUE on are written — the node then
// stands for the σ, its Logical(), or for the bypass cascade it runs.
// Bypass splits off Keep's disjuncts reading only L's columns, when the
// node emits no result and they compile over L, into VecBypass; on the
// vector path a left tuple it holds TRUE on is written without a lookup.
// Rest is the rest of Keep — all of it when there is no Bypass — as the
// disjuncts the vector path decides the other tuples by, lazily: in
// Keep's order, which is stats.Estimator.Order's, a grouping looked up
// the first time a disjunct reads its results, and no further once one
// holds. Emit is as in Join, over the left row ◦ the results, and
// PassLeft as in Join.
type BinaryGroup struct {
	base
	L         Node
	Groupings []Grouping
	Keep      algebra.Expr
	KeepBound *Bound // Keep bound to the pair left row ◦ results
	Bypass    algebra.Expr
	VecBypass *vec.Pred
	Rest      []Disjunct
	Results   *storage.Schema
	Emit      []int
	PassLeft  bool
	// one and rest back Groupings and Rest when they hold one element,
	// as most nodes' do, so that the lists cost no allocation of their
	// own.
	one  [1]Grouping
	rest [1]Disjunct
}

// Grouping is one binary grouping of a BinaryGroup. The algorithm is
// read from the fields. With LCols/RCols set and Theta EQ (the zero
// value), Pred is pure equality and R is folded per distinct key, in
// tables sized for Groups keys (an estimate); a left tuple looks its key
// up. With Theta an inequality <, ≤, > or ≥, Pred is LCols[0] θ RCols[0]
// alone, every aggregate folds in one pass (no DISTINCT or AVG) and the
// grouping runs sort-based: R is sorted on its column, its prefix or
// suffix results are folded once, and each left tuple binary-searches
// its own (May & Moerkotte). Otherwise Pred is evaluated per pair (nil
// means every pair matches). With a Tag it is Γ² on Pred ∨ Tag — Eqv.
// 5's tagged form: Tag is a predicate over the right tuples, evaluated
// once per tuple, and the tuples it holds TRUE on belong to every left
// tuple's group and are folded once into a shared base, and only the
// rest are matched. Tag is the χ's own predicate p when the planner
// fused the χ[tag:p] below into the Γ² (see Planner), else the tag
// column, and nil for an untagged Γ²; VecTag is its compiled columnar
// program (nil: Tag is interpreted per row). PredBound, TagBound and
// Args are Pred bound to the pair left row ◦ right row, and Tag and
// Aggs' arguments to the right row (see bind.go).
type Grouping struct {
	R         Node
	Pred      algebra.Expr
	Tag       algebra.Expr
	VecTag    *vec.Pred
	LCols     []int
	RCols     []int
	Theta     types.CompareOp
	Groups    float64
	Aggs      []algebra.AggItem
	PredBound *Bound
	TagBound  *Bound
	Args      []AggArg
}

// writesAny reports whether one of names is a result of g.
func (g *Grouping) writesAny(names []string) bool {
	for _, a := range g.Aggs {
		if slices.Contains(names, a.Out) {
			return true
		}
	}
	return false
}

// Disjunct is one operand of the disjunction a BinaryGroup's vector path
// decides a left tuple by, and the groupings whose results it reads: bit
// j for Groupings[j]. Vec is Pred compiled over the left row ◦ the
// results (nil: it does not compile, and is interpreted per row).
type Disjunct struct {
	Pred  algebra.Expr
	Bound *Bound // Pred's binding, within the node's KeepBound
	Reads uint64
	Vec   *vec.Pred
}

// Children implements Node.
func (b *BinaryGroup) Children() []Node {
	out := make([]Node, 1, 1+len(b.Groupings))
	out[0] = b.L
	for i := range b.Groupings {
		out = append(out, b.Groupings[i].R)
	}
	return out
}

// NumResults is the number of result columns, every grouping's.
func (b *BinaryGroup) NumResults() int {
	n := 0
	for i := range b.Groupings {
		n += len(b.Groupings[i].Aggs)
	}
	return n
}

// Label implements Node: each grouping's label, joined by " ∘ " for a
// chain, then the fused selection and the emit list.
func (b *BinaryGroup) Label() string {
	out := b.Groupings[0].label(b.L.Schema())
	for i := 1; i < len(b.Groupings); i++ {
		out += " ∘ " + b.Groupings[i].label(b.L.Schema())
	}
	if b.Keep != nil { // a fused selection, before the emit list
		out += fmt.Sprintf(" σ[%s]", b.Keep)
	}
	return out + emitLabel(b, b.Emit, b.L.Schema().Len()+b.NumResults())
}

// label renders one grouping over a left input of schema l.
func (g *Grouping) label(l *storage.Schema) string {
	hash := len(g.LCols) > 0
	switch {
	case g.Tag != nil:
		algo := "nl"
		if hash {
			algo = "hash"
		}
		return fmt.Sprintf("TagBinaryGroup(%s)[%s ∨ %s][%s]", algo, g.Pred, g.Tag, aggLabels(g.Aggs))
	case !hash:
		return fmt.Sprintf("NLBinaryGroup[%s][%s]", g.Pred, aggLabels(g.Aggs))
	case g.Theta != types.EQ:
		return fmt.Sprintf("SortBinaryGroup[%s %s %s][%s]",
			l.Attr(g.LCols[0]), g.Theta, g.R.Schema().Attr(g.RCols[0]), aggLabels(g.Aggs))
	default:
		return fmt.Sprintf("HashBinaryGroup[%s][%s]",
			equiKeys(l, g.LCols, g.R.Schema(), g.RCols), aggLabels(g.Aggs))
	}
}

// Union concatenates two inputs with equal schemas (∪, UNION ALL). A
// disjoint union ∪̇ has no node: the only one disqo plans, the bypass
// cascade's, lowers to the one pass it stands for (see Planner).
type Union struct {
	base
	L, R Node
}

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.L, u.R} }

// Label implements Node.
func (u *Union) Label() string { return "UnionAll" }

// Distinct removes duplicate tuples (Identical semantics, first-seen
// order).
type Distinct struct {
	base
	Child Node
}

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// Label implements Node.
func (d *Distinct) Label() string { return "Distinct" }

// Sort orders tuples by the resolved key columns (stable).
type Sort struct {
	base
	Child Node
	Cols  []int
	Desc  []bool
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Sort) Label() string {
	keys := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		keys[i] = s.Child.Schema().Attr(c)
		if s.Desc[i] {
			keys[i] += " DESC"
		}
	}
	return fmt.Sprintf("Sort[%s]", strings.Join(keys, ", "))
}

// Limit keeps the first N tuples.
type Limit struct {
	base
	Child Node
	N     int64
}

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit[%d]", l.N) }
