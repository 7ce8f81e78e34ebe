package translate

import (
	"fmt"

	"disqo/internal/algebra"
	"disqo/internal/sqlparser"
)

// BlockType is Kim's classification of a nested query block (paper §2.2).
type BlockType uint8

const (
	// TypeN is a table subquery without aggregate or correlation.
	TypeN BlockType = iota
	// TypeA is a scalar subquery (aggregate) without correlation.
	TypeA
	// TypeJ is a correlated table subquery.
	TypeJ
	// TypeJA is a correlated scalar subquery — the paper's focus.
	TypeJA
)

// String renders the Kim type name.
func (t BlockType) String() string {
	switch t {
	case TypeN:
		return "N"
	case TypeA:
		return "A"
	case TypeJ:
		return "J"
	default:
		return "JA"
	}
}

// Structure is Muralikrishna's nesting-structure classification extended
// by the paper with the "simple" case (§2.2).
type Structure uint8

const (
	// Flat has no nested block at all.
	Flat Structure = iota
	// Simple has exactly one nested block.
	Simple
	// Linear has several blocks, each nesting at most one block.
	Linear
	// Tree has a block with two or more blocks nested at the same level.
	Tree
)

// String renders the structure name.
func (s Structure) String() string {
	switch s {
	case Flat:
		return "flat"
	case Simple:
		return "simple"
	case Linear:
		return "linear"
	case Tree:
		return "tree"
	}
	return fmt.Sprintf("structure(%d)", uint8(s))
}

// ClassifyStructure determines the statement's nesting structure from the
// AST.
func ClassifyStructure(stmt *sqlparser.SelectStmt) Structure {
	total, maxFanout := 0, 0
	var walk func(s *sqlparser.SelectStmt)
	walk = func(s *sqlparser.SelectStmt) {
		subs := directSubqueries(s)
		if len(subs) > maxFanout {
			maxFanout = len(subs)
		}
		total += len(subs)
		for _, sub := range subs {
			walk(sub)
		}
	}
	walk(stmt)
	switch {
	case maxFanout >= 2:
		return Tree
	case total == 0:
		return Flat
	case total == 1:
		return Simple
	default:
		return Linear
	}
}

// directSubqueries collects the blocks nested directly in s's WHERE
// clause (not those nested deeper).
func directSubqueries(s *sqlparser.SelectStmt) []*sqlparser.SelectStmt {
	var out []*sqlparser.SelectStmt
	var visit func(e sqlparser.Expr)
	visit = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.SubqueryExpr:
			out = append(out, x.Stmt)
		case *sqlparser.ExistsExpr:
			out = append(out, x.Stmt)
		case *sqlparser.InExpr:
			visit(x.L)
			out = append(out, x.Stmt)
		case *sqlparser.QuantCmpExpr:
			visit(x.L)
			out = append(out, x.Stmt)
		case *sqlparser.BinaryExpr:
			visit(x.L)
			visit(x.R)
		case *sqlparser.NotExpr:
			visit(x.E)
		case *sqlparser.LikeExpr:
			visit(x.L)
			visit(x.Pattern)
		case *sqlparser.IsNullExpr:
			visit(x.E)
		case *sqlparser.BetweenExpr:
			visit(x.E)
			visit(x.Lo)
			visit(x.Hi)
		}
	}
	if s.Where != nil {
		visit(s.Where)
	}
	return out
}

// SubqueryInfo describes one nested block found in a translated plan.
type SubqueryInfo struct {
	Type       BlockType
	Correlated bool
	Scalar     bool
}

// ClassifySubqueries inspects a translated plan and reports Kim types for
// every directly nested block (not recursing into blocks within blocks),
// whichever operator's expression embeds it.
func ClassifySubqueries(plan algebra.Op) []SubqueryInfo {
	var out []SubqueryInfo
	algebra.Walk(plan, func(op algebra.Op) bool {
		for _, e := range algebra.Exprs(op) {
			for _, sq := range algebra.SubqueryExprs(e) {
				_, scalar := sq.(*algebra.ScalarSubquery)
				info := SubqueryInfo{Scalar: scalar,
					Correlated: len(sq.(interface{ Free() []string }).Free()) > 0}
				switch {
				case info.Scalar && info.Correlated:
					info.Type = TypeJA
				case info.Scalar:
					info.Type = TypeA
				case info.Correlated:
					info.Type = TypeJ
				default:
					info.Type = TypeN
				}
				out = append(out, info)
			}
		}
		return true
	})
	return out
}
