package types

// TriBool is SQL's three-valued logic: TRUE, FALSE, or UNKNOWN.
// Predicates over NULLs evaluate to Unknown; a WHERE clause keeps a tuple
// only when its predicate is True, so Unknown and False filter alike —
// which is exactly the property that lets bypass operators route the
// "not true" complement into the negative stream (cf. DESIGN.md §5).
type TriBool uint8

const (
	// False is definite falsehood.
	False TriBool = iota
	// True is definite truth.
	True
	// Unknown is SQL's NULL truth value.
	Unknown
)

// TriOf lifts a Go bool into three-valued logic.
func TriOf(b bool) TriBool {
	if b {
		return True
	}
	return False
}

// String renders the truth value.
func (t TriBool) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// And is Kleene conjunction.
func (t TriBool) And(o TriBool) TriBool {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or is Kleene disjunction.
func (t TriBool) Or(o TriBool) TriBool {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not is Kleene negation.
func (t TriBool) Not() TriBool {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// IsTrue reports whether the truth value is definitely TRUE — the WHERE
// clause acceptance test.
func (t TriBool) IsTrue() bool { return t == True }

// Value converts the truth value into a SQL value (Unknown becomes NULL).
func (t TriBool) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null()
	}
}

// TriFromValue interprets a SQL value as a truth value: NULL is Unknown,
// booleans map directly, and any other kind is Unknown (no implicit
// casts; the planner type-checks predicates).
func TriFromValue(v Value) TriBool {
	if b, ok := v.BoolOk(); ok {
		return TriOf(b)
	}
	return Unknown
}

// CompareOp is a comparison operator θ ∈ {=, <>, <, <=, >, >=} — the
// linking and correlation operators the paper's equivalences support.
type CompareOp uint8

const (
	// EQ is =.
	EQ CompareOp = iota
	// NE is <>.
	NE
	// LT is <.
	LT
	// LE is <=.
	LE
	// GT is >.
	GT
	// GE is >=.
	GE
)

// String renders the operator in SQL syntax.
func (op CompareOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?cmp?"
	}
}

// Negate returns the complement operator (¬(a θ b) ≡ a θ' b for non-NULL
// operands).
func (op CompareOp) Negate() CompareOp {
	switch op {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	default: // GE
		return LT
	}
}

// Flip returns the operator with swapped operands (a θ b ≡ b flip(θ) a).
func (op CompareOp) Flip() CompareOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// CompareValues applies θ under SQL semantics: any NULL operand yields
// Unknown; incomparable kinds yield Unknown.
func CompareValues(op CompareOp, a, b Value) TriBool {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	switch op {
	case EQ:
		return TriOf(c == 0)
	case NE:
		return TriOf(c != 0)
	case LT:
		return TriOf(c < 0)
	case LE:
		return TriOf(c <= 0)
	case GT:
		return TriOf(c > 0)
	default: // GE
		return TriOf(c >= 0)
	}
}

// OrderValues gives a total order for ORDER BY and sort-based operators:
// NULLs sort first, then values by Compare; across incomparable kinds the
// Kind ordinal breaks the tie so sorting is deterministic.
func OrderValues(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	switch {
	case a.Kind() < b.Kind():
		return -1
	case a.Kind() > b.Kind():
		return 1
	default:
		return 0
	}
}

// OrderTuples compares two value slices lexicographically with OrderValues.
func OrderTuples(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := OrderValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
