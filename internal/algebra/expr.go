// Package algebra defines disqo's logical relational algebra: the core
// operators (σ, Π, ρ, ×, ⋈, ∪), the five extensions the paper introduces
// in Fig. 1 that plans still use (unary and binary grouping Γ,
// leftouterjoin with defaults, map χ), and the bypass selection σ± whose
// positive and negative output streams make unnesting in the presence
// of disjunction possible.
//
// As in the paper, subscripts may contain algebraic expressions: the
// expression language includes scalar and quantified subqueries whose
// operand is itself a plan (ScalarSubquery, QuantSubquery). The canonical
// translation of a nested SQL query is a Select whose predicate embeds
// such subplans; the rewriter in internal/rewrite removes them.
package algebra

import (
	"fmt"

	"disqo/internal/agg"
	"disqo/internal/storage"
	"disqo/internal/types"
)

// Expr is a scalar expression evaluated against an environment of named
// attribute bindings (the current tuple, chained to outer tuples for
// correlated evaluation).
type Expr interface {
	// String renders the expression in SQL-like syntax for EXPLAIN.
	String() string
	// Columns appends the names of all column references in the
	// expression, including those inside subquery plans that are free
	// there (i.e. the subquery's correlation attributes).
	Columns(into []string) []string
}

// binaryExpr and unaryExpr are embedded by the expression kinds with two
// operands and with one (LIKE names its own), so the column recursion is
// stated once per shape rather than once per kind.
type binaryExpr struct{ L, R Expr }

// Columns implements Expr.
func (b *binaryExpr) Columns(into []string) []string { return b.R.Columns(b.L.Columns(into)) }

type unaryExpr struct{ E Expr }

// Columns implements Expr.
func (u *unaryExpr) Columns(into []string) []string { return u.E.Columns(into) }

// ColRef references an attribute by its qualified name.
type ColRef struct {
	Name string
}

// Col is shorthand for a column reference expression.
func Col(name string) *ColRef { return &ColRef{Name: name} }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Columns implements Expr.
func (c *ColRef) Columns(into []string) []string { return append(into, c.Name) }

// ConstExpr is a literal value.
type ConstExpr struct {
	Val types.Value
}

// Const wraps a value as a literal expression.
func Const(v types.Value) *ConstExpr { return &ConstExpr{Val: v} }

// ConstInt is shorthand for an integer literal expression.
func ConstInt(v int64) *ConstExpr { return Const(types.NewInt(v)) }

// String implements Expr.
func (c *ConstExpr) String() string { return c.Val.String() }

// Columns implements Expr.
func (c *ConstExpr) Columns(into []string) []string { return into }

// CmpExpr is a comparison L θ R.
type CmpExpr struct {
	Op types.CompareOp
	binaryExpr
}

// Cmp builds a comparison expression.
func Cmp(op types.CompareOp, l, r Expr) *CmpExpr { return &CmpExpr{op, binaryExpr{l, r}} }

// String implements Expr.
func (c *CmpExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// AndExpr is Kleene conjunction.
type AndExpr struct{ binaryExpr }

// And builds a conjunction; nil operands are dropped and a fully nil
// conjunction is the constant TRUE.
func And(exprs ...Expr) Expr {
	return fold(exprs, true, func(l, r Expr) Expr { return &AndExpr{binaryExpr{l, r}} })
}

// fold left-folds the non-nil operands with mk; with none it returns the
// connective's identity.
func fold(exprs []Expr, identity bool, mk func(l, r Expr) Expr) Expr {
	var out Expr
	for _, e := range exprs {
		switch {
		case e == nil:
		case out == nil:
			out = e
		default:
			out = mk(out, e)
		}
	}
	if out == nil {
		return Const(types.NewBool(identity))
	}
	return out
}

// String implements Expr.
func (a *AndExpr) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// OrExpr is Kleene disjunction.
type OrExpr struct{ binaryExpr }

// Or builds a disjunction the same way; a fully nil one is FALSE.
func Or(exprs ...Expr) Expr {
	return fold(exprs, false, func(l, r Expr) Expr { return &OrExpr{binaryExpr{l, r}} })
}

// String implements Expr.
func (o *OrExpr) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// NotExpr is Kleene negation.
type NotExpr struct{ unaryExpr }

// Not negates an expression.
func Not(e Expr) *NotExpr { return &NotExpr{unaryExpr{e}} }

// String implements Expr.
func (n *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// ArithExpr is binary arithmetic.
type ArithExpr struct {
	Op types.ArithOp
	binaryExpr
}

// Arith builds an arithmetic expression.
func Arith(op types.ArithOp, l, r Expr) *ArithExpr { return &ArithExpr{op, binaryExpr{l, r}} }

// String implements Expr.
func (a *ArithExpr) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// LikeExpr is the LIKE predicate (negated via NotExpr).
type LikeExpr struct{ L, Pattern Expr }

// Like builds a LIKE predicate.
func Like(l, pattern Expr) *LikeExpr { return &LikeExpr{L: l, Pattern: pattern} }

// String implements Expr.
func (l *LikeExpr) String() string { return fmt.Sprintf("(%s LIKE %s)", l.L, l.Pattern) }

// Columns implements Expr.
func (l *LikeExpr) Columns(into []string) []string { return l.Pattern.Columns(l.L.Columns(into)) }

// IsNullExpr is the IS NULL predicate (IS NOT NULL via NotExpr).
type IsNullExpr struct{ unaryExpr }

// IsNull builds an IS NULL predicate.
func IsNull(e Expr) *IsNullExpr { return &IsNullExpr{unaryExpr{e}} }

// String implements Expr.
func (i *IsNullExpr) String() string { return fmt.Sprintf("(%s IS NULL)", i.E) }

// IsTrueExpr is TRUE iff its operand is TRUE, else FALSE, never UNKNOWN:
// how translate.TwoValued writes a two-valued leaf in three-valued logic.
type IsTrueExpr struct{ unaryExpr }

// IsTrue builds an IS TRUE predicate.
func IsTrue(e Expr) *IsTrueExpr { return &IsTrueExpr{unaryExpr{e}} }

// String implements Expr.
func (i *IsTrueExpr) String() string { return fmt.Sprintf("(%s IS TRUE)", i.E) }

// ScalarSubquery embeds a nested query block in an expression, exactly as
// the canonical SQL translation produces it: an aggregate f applied to
// the result of an algebraic plan whose free attributes are bound by the
// enclosing tuple. Evaluating it is the nested-loop strategy the paper's
// unnesting eliminates.
type ScalarSubquery struct {
	Agg agg.Spec
	// Arg is the aggregate's argument, evaluated in the subplan's output
	// schema (plus the outer environment). It is nil for Star specs.
	Arg Expr
	Block
}

// Block is the nested query block a subquery expression embeds. Only
// the constructors (Subquery, Quant, AllAny) can fill it in, so its free
// columns are always those of its plan.
type Block struct {
	// Plan is the block's algebraic translation.
	Plan Op
	free []string
}

// Free returns the block's correlation attributes, FreeColumns(Plan).
// Plans are immutable, so the list is computed once, at construction —
// eagerly, because cached logical plans are shared between goroutines.
func (b *Block) Free() []string { return b.free }

// Subquery builds a scalar subquery expression.
func Subquery(spec agg.Spec, arg Expr, plan Op) *ScalarSubquery {
	return &ScalarSubquery{Agg: spec, Arg: arg, Block: Block{plan, FreeColumns(plan)}}
}

// String implements Expr.
func (s *ScalarSubquery) String() string {
	arg := "*"
	if s.Arg != nil {
		arg = s.Arg.String()
	}
	mod := ""
	if s.Agg.Distinct {
		mod = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s){%s}", s.Agg.Kind, mod, arg, PlanInline(s.Plan))
}

// Columns implements Expr: the subquery contributes its *free* columns —
// references its own plan does not supply — which are exactly the
// correlation attributes: the plan's, and those of the aggregate's
// argument, which is evaluated over the plan's output.
func (s *ScalarSubquery) Columns(into []string) []string {
	into = append(into, s.free...)
	if s.Arg == nil {
		return into
	}
	n := len(into)
	into = s.Arg.Columns(into)
	free := into[:n]
	for _, c := range into[n:] {
		if !s.Plan.Schema().Has(c) {
			free = append(free, c)
		}
	}
	return free
}

// Quantifier enumerates the table-subquery linking operators of the
// technical-report extension.
type Quantifier uint8

const (
	// Exists is EXISTS(subquery).
	Exists Quantifier = iota
	// NotExists is NOT EXISTS(subquery).
	NotExists
	// In is expr IN (subquery).
	In
	// NotIn is expr NOT IN (subquery).
	NotIn
)

// String renders the quantifier keyword.
func (q Quantifier) String() string {
	switch q {
	case Exists:
		return "EXISTS"
	case NotExists:
		return "NOT EXISTS"
	case In:
		return "IN"
	default:
		return "NOT IN"
	}
}

// QuantSubquery is a quantified table subquery: EXISTS/NOT EXISTS take no
// left operand; IN/NOT IN compare L against the subquery's single output
// column.
type QuantSubquery struct {
	Quant Quantifier
	L     Expr // nil for EXISTS/NOT EXISTS
	Block
}

// Quant builds a quantified subquery predicate.
func Quant(q Quantifier, l Expr, plan Op) *QuantSubquery {
	return &QuantSubquery{Quant: q, L: l, Block: Block{plan, FreeColumns(plan)}}
}

// String implements Expr.
func (q *QuantSubquery) String() string {
	if q.L == nil {
		return fmt.Sprintf("%s{%s}", q.Quant, PlanInline(q.Plan))
	}
	return fmt.Sprintf("(%s %s {%s})", q.L, q.Quant, PlanInline(q.Plan))
}

// Columns implements Expr.
func (q *QuantSubquery) Columns(into []string) []string {
	if q.L != nil {
		into = q.L.Columns(into)
	}
	return append(into, q.free...)
}

// AllAnyExpr is a quantified comparison L θ ALL|ANY (plan): the Kleene
// fold of L θ y over the plan's single output column — AND for ALL
// (vacuously TRUE on empty input), OR for ANY (vacuously FALSE).
type AllAnyExpr struct {
	Op  types.CompareOp
	All bool
	L   Expr
	Block
}

// AllAny builds a quantified comparison predicate.
func AllAny(op types.CompareOp, all bool, l Expr, plan Op) *AllAnyExpr {
	return &AllAnyExpr{Op: op, All: all, L: l, Block: Block{plan, FreeColumns(plan)}}
}

// String implements Expr.
func (a *AllAnyExpr) String() string {
	quant := "ANY"
	if a.All {
		quant = "ALL"
	}
	return fmt.Sprintf("(%s %s %s {%s})", a.L, a.Op, quant, PlanInline(a.Plan))
}

// Columns implements Expr.
func (a *AllAnyExpr) Columns(into []string) []string {
	return append(a.L.Columns(into), a.free...)
}

// SplitConjuncts flattens nested ANDs into a conjunct list.
func SplitConjuncts(e Expr) []Expr {
	if a, ok := e.(*AndExpr); ok {
		return append(SplitConjuncts(a.L), SplitConjuncts(a.R)...)
	}
	return []Expr{e}
}

// SplitDisjuncts flattens nested ORs into a disjunct list.
func SplitDisjuncts(e Expr) []Expr {
	if o, ok := e.(*OrExpr); ok {
		return append(SplitDisjuncts(o.L), SplitDisjuncts(o.R)...)
	}
	return []Expr{e}
}

// EquiKeys splits a predicate over two inputs, of schemas ls and rs, into
// the conjuncts a hash can key on — an ls column = an rs column, either
// way round — given as the key columns' positions in each input, and the
// residual conjuncts still to evaluate per matched pair. A join or ⟕
// hashes when there are keys, a Γ² only when no residual is left; the
// physical planner and the cost model both decide it here.
func EquiKeys(pred Expr, ls, rs *storage.Schema) (lcols, rcols []int, residual []Expr) {
	if pred == nil {
		return nil, nil, nil
	}
	for _, c := range SplitConjuncts(pred) {
		if cmp, ok := c.(*CmpExpr); ok && cmp.Op == types.EQ {
			lc, lok := cmp.L.(*ColRef)
			rc, rok := cmp.R.(*ColRef)
			if lok && rok {
				li, ri := ls.Index(lc.Name), rs.Index(rc.Name)
				if li < 0 || ri < 0 {
					li, ri = ls.Index(rc.Name), rs.Index(lc.Name)
				}
				if li >= 0 && ri >= 0 {
					lcols, rcols = append(lcols, li), append(rcols, ri)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return lcols, rcols, residual
}
