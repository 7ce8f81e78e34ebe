package types

import (
	"fmt"
	"strings"
)

// ArithOp is a binary arithmetic operator.
type ArithOp uint8

const (
	// Add is +.
	Add ArithOp = iota
	// Sub is -.
	Sub
	// Mul is *.
	Mul
	// Div is /.
	Div
)

// String renders the operator in SQL syntax.
func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return "?arith?"
	}
}

// Arith applies op under SQL semantics: NULL in, NULL out; integer
// operands stay integral except for division, which promotes to float
// (matching how AVG and supply-cost arithmetic behave in the paper's
// queries). Division by zero yields NULL rather than an error so a single
// bad tuple cannot abort a whole plan.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null(), fmt.Errorf("types: %s applied to %s and %s", op, a.Kind(), b.Kind())
	}
	xi, xok := a.IntOk()
	yi, yok := b.IntOk()
	if xok && yok && op != Div {
		switch op {
		case Add:
			return NewInt(xi + yi), nil
		case Sub:
			return NewInt(xi - yi), nil
		default: // Mul
			return NewInt(xi * yi), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case Add:
		return NewFloat(x + y), nil
	case Sub:
		return NewFloat(x - y), nil
	case Mul:
		return NewFloat(x * y), nil
	default: // Div
		if y == 0 {
			return Null(), nil
		}
		return NewFloat(x / y), nil
	}
}

// Like implements the SQL LIKE predicate with % (any run) and _ (any one
// character) wildcards; there is no escape character. NULL operands yield
// Unknown.
func Like(s, pattern Value) TriBool {
	if s.IsNull() || pattern.IsNull() {
		return Unknown
	}
	str, sok := s.StrOk()
	pat, pok := pattern.StrOk()
	if !sok || !pok {
		return Unknown
	}
	return TriOf(LikeMatch(str, pat))
}

// LikeMatch reports whether s matches the LIKE pattern p: a linear-scan
// wildcard matcher (greedy % with backtracking), the standard
// two-pointer algorithm.
func LikeMatch(s, p string) bool {
	var si, pi int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// FormatTuple renders a tuple for test output and the CLI: values joined
// by ", " inside parentheses.
func FormatTuple(vs []Value) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range vs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}
