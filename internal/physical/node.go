// Package physical defines disqo's physical plan layer: the executable
// operator tree the planner lowers logical algebra into. Where the
// logical algebra (internal/algebra) says *what* to compute — join,
// bypass selection, binary grouping — a physical node says *how*: hash
// join vs. nested loops, sort-based vs. hash-based binary grouping,
// which column positions carry the keys, and which predicate fragments
// remain residual. All algorithm choices the executor used to make
// inline now happen once, in Planner.Lower, where they are visible to
// EXPLAIN and testable in isolation; every node carries the estimated
// output cardinality from internal/stats.
package physical

import (
	"fmt"
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
}

// base carries the fields every node shares.
type base struct {
	logical algebra.Op
	sch     *storage.Schema
	est     float64
	id      int
}

func (b *base) Logical() algebra.Op     { return b.logical }
func (b *base) Schema() *storage.Schema { return b.sch }
func (b *base) EstRows() float64        { return b.est }
func (b *base) ID() int                 { return b.id }
func (b *base) setID(id int)            { b.id = id }

// JoinMode selects what a join emits: matched pairs (inner), left
// tuples with a match (semi), or left tuples without one (anti).
type JoinMode uint8

// The join modes.
const (
	JoinInner JoinMode = iota
	JoinSemi
	JoinAnti
)

func (m JoinMode) String() string {
	switch m {
	case JoinSemi:
		return "semi"
	case JoinAnti:
		return "anti"
	default:
		return "inner"
	}
}

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
}

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *Filter) Label() string { return fmt.Sprintf("Filter[%s]", f.Pred) }

// BypassFilter partitions its input into a TRUE stream and a not-TRUE
// stream (σ±). It is only consumed through Stream nodes, which select
// one side; the executor evaluates both sides in a single pass.
type BypassFilter struct {
	base
	Child Node
	Pred  algebra.Expr
	// VecPred is the compiled columnar program for Pred; nil means Pred
	// is interpreted per row.
	VecPred *vec.Pred
}

// Children implements Node.
func (f *BypassFilter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *BypassFilter) Label() string { return fmt.Sprintf("Filter±[%s]", f.Pred) }

// Stream selects the positive or negative output of a bypass filter.
type Stream struct {
	base
	Source   Node
	Positive bool
}

// Children implements Node.
func (s *Stream) Children() []Node { return []Node{s.Source} }

// Label implements Node.
func (s *Stream) Label() string {
	if s.Positive {
		return "Stream+"
	}
	return "Stream-"
}

// Project restricts tuples to the named columns; Cols are the resolved
// positions in the child schema.
type Project struct {
	base
	Child Node
	Cols  []int
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

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
// HashJoin, over the input row ◦ the computed value.
type Map struct {
	base
	Child Node
	Attr  string
	Expr  algebra.Expr
	// VecExpr is the compiled columnar program for Expr; nil means Expr
	// is interpreted per row.
	VecExpr *vec.Scalar
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

// keepLabel renders a selection fused into the operator below it (its
// Keep), after the operator's own label and before its emit list.
func keepLabel(keep algebra.Expr) string {
	if keep == nil {
		return ""
	}
	return fmt.Sprintf(" σ[%s]", keep)
}

// HashJoin joins by building a hash table on the right input's key
// columns and probing with the left's. Residual holds the non-equality
// conjuncts re-checked per matched pair (nil when none). Emit lists the
// columns of a matched pair l ◦ r an inner join writes, as positions in
// it — what the node's consumer reads, in the consumer's order; nil
// means all of them. Semi and anti joins pass left rows through and have
// no emit list.
type HashJoin struct {
	base
	L, R     Node
	Mode     JoinMode
	LCols    []int
	RCols    []int
	Residual algebra.Expr
	Emit     []int
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *HashJoin) Label() string {
	name := "HashJoin"
	if j.Mode != JoinInner {
		name = fmt.Sprintf("HashJoin(%s)", j.Mode)
	}
	out := fmt.Sprintf("%s[%s]", name, equiKeys(j.L.Schema(), j.LCols, j.R.Schema(), j.RCols))
	if j.Residual != nil {
		out += fmt.Sprintf(" residual[%s]", j.Residual)
	}
	return out + emitLabel(j, j.Emit, pairWidth(j.L, j.R))
}

func pairWidth(l, r Node) int { return l.Schema().Len() + r.Schema().Len() }

// NLJoin joins by nested loops. A nil Pred is a cross product. Emit is
// as in HashJoin.
type NLJoin struct {
	base
	L, R Node
	Mode JoinMode
	Pred algebra.Expr
	Emit []int
}

// Children implements Node.
func (j *NLJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *NLJoin) Label() string {
	name := "NLJoin"
	if j.Mode != JoinInner {
		name = fmt.Sprintf("NLJoin(%s)", j.Mode)
	}
	pred := "cross"
	if j.Pred != nil {
		pred = j.Pred.String()
	}
	return name + "[" + pred + "]" + emitLabel(j, j.Emit, pairWidth(j.L, j.R))
}

// OuterJoin is the left outer join ⟕ with the paper's g:f(∅) defaults:
// unmatched left tuples are paired with Pad, a right row of NULLs except
// the Default attributes. Hash selects the algorithm; hash joins use
// LCols/RCols/Residual, nested-loop joins use Pred. Keep is a selection
// σ the planner fused into the join (nil for none): it is evaluated on
// each output pair, l ◦ r or l ◦ Pad, and only the pairs it holds TRUE
// on are written — the node then stands for the σ, its Logical(). Emit
// is as in HashJoin, over l ◦ r and l ◦ Pad alike.
type OuterJoin struct {
	base
	L, R     Node
	Hash     bool
	LCols    []int
	RCols    []int
	Residual algebra.Expr
	Pred     algebra.Expr
	Pad      []types.Value
	Keep     algebra.Expr
	Emit     []int
}

// Children implements Node.
func (j *OuterJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *OuterJoin) Label() string {
	tail := keepLabel(j.Keep) + emitLabel(j, j.Emit, pairWidth(j.L, j.R))
	if !j.Hash {
		return fmt.Sprintf("NLOuterJoin[%s]", j.Pred) + tail
	}
	out := fmt.Sprintf("HashOuterJoin[%s]", equiKeys(j.L.Schema(), j.LCols, j.R.Schema(), j.RCols))
	if j.Residual != nil {
		out += fmt.Sprintf(" residual[%s]", j.Residual)
	}
	return out + tail
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
	Global  bool
}

// Children implements Node.
func (g *Group) Children() []Node { return []Node{g.Child} }

// Label implements Node.
func (g *Group) Label() string {
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		aggs[i] = a.Label()
	}
	if g.Global {
		return fmt.Sprintf("HashGroup[global][%s]", strings.Join(aggs, ","))
	}
	return fmt.Sprintf("HashGroup[%v][%s]", g.Attrs, strings.Join(aggs, ","))
}

func binaryGroupAggs(aggs []algebra.AggItem) string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.Label()
	}
	return strings.Join(out, ",")
}

// BinaryGroupSort is Γ² over a single column inequality with
// decomposable aggregates: sort the right side, precompute prefix and
// suffix aggregates, binary-search per left tuple (May & Moerkotte).
// Keep, Results and Emit are as in BinaryGroup.
type BinaryGroupSort struct {
	base
	L, R    Node
	LIdx    int
	RIdx    int
	Op      types.CompareOp
	Aggs    []algebra.AggItem
	Keep    algebra.Expr
	Results *storage.Schema
	Emit    []int
}

// Children implements Node.
func (b *BinaryGroupSort) Children() []Node { return []Node{b.L, b.R} }

// Label implements Node.
func (b *BinaryGroupSort) Label() string {
	return fmt.Sprintf("SortBinaryGroup[%s %s %s][%s]",
		b.L.Schema().Attr(b.LIdx), b.Op, b.R.Schema().Attr(b.RIdx),
		binaryGroupAggs(b.Aggs)) + keepLabel(b.Keep) + emitLabel(b, b.Emit, b.L.Schema().Len()+len(b.Aggs))
}

// BinaryGroup is Γ² by probing: each left tuple aggregates the right
// tuples that match Pred — found by hash on LCols/RCols when Pred is
// pure equality, by evaluating Pred per pair (nil means every pair
// matches) otherwise. With TagCol >= 0 it is Γ² on Pred ∨ tag — Eqv. 5's
// tagged form: the right tuples whose tag column is TRUE belong to every
// left tuple's group and are folded once into a shared base, and only
// the rest are matched. TagCol is -1 when there is no tag. Keep is a
// selection σ the planner fused into the Γ² (nil for none): it is
// evaluated on each left row ◦ its aggregate results, which Results
// names, and only the rows it holds TRUE on are written — the node then
// stands for the σ, its Logical(). Emit is as in HashJoin, over the left
// row ◦ the aggregate results.
type BinaryGroup struct {
	base
	L, R    Node
	Pred    algebra.Expr
	TagCol  int
	LCols   []int
	RCols   []int
	Aggs    []algebra.AggItem
	Keep    algebra.Expr
	Results *storage.Schema
	Emit    []int
}

// Children implements Node.
func (b *BinaryGroup) Children() []Node { return []Node{b.L, b.R} }

// Label implements Node.
func (b *BinaryGroup) Label() string {
	hash := len(b.LCols) > 0
	var out string
	switch {
	case b.TagCol >= 0:
		algo := "nl"
		if hash {
			algo = "hash"
		}
		out = fmt.Sprintf("TagBinaryGroup(%s)[%s ∨ %s][%s]", algo, b.Pred,
			b.R.Schema().Attr(b.TagCol), binaryGroupAggs(b.Aggs))
	case !hash:
		out = fmt.Sprintf("NLBinaryGroup[%s][%s]", b.Pred, binaryGroupAggs(b.Aggs))
	default:
		out = fmt.Sprintf("HashBinaryGroup[%s][%s]",
			equiKeys(b.L.Schema(), b.LCols, b.R.Schema(), b.RCols), binaryGroupAggs(b.Aggs))
	}
	return out + keepLabel(b.Keep) + emitLabel(b, b.Emit, b.L.Schema().Len()+len(b.Aggs))
}

// Union concatenates two inputs with equal schemas. Disjoint records
// the rewriter's disjointness claim (the two streams of one bypass
// operator); execution is concatenation either way.
type Union struct {
	base
	L, R     Node
	Disjoint bool
}

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.L, u.R} }

// Label implements Node.
func (u *Union) Label() string {
	if u.Disjoint {
		return "UnionDisjoint"
	}
	return "UnionAll"
}

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
