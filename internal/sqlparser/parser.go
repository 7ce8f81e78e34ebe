package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// aggFuncs are the function names recognized contextually (they are not
// reserved words).
var aggFuncs = wordSet("COUNT", "SUM", "AVG", "MIN", "MAX")

// Parse parses a single SELECT statement (an optional trailing semicolon
// is ignored).
func Parse(input string) (*SelectStmt, error) {
	input = strings.TrimSpace(input)
	input = strings.TrimSuffix(input, ";")
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected %s after end of statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token   { return p.toks[p.pos] }
func (p *parser) next() Token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(m int) { p.pos = m }

// at reports whether the current token matches kind (and text, unless
// empty).
func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && (text == "" || t.Text == text)
}

// accept consumes the current token when it matches.
func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token or errors.
func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return Token{}, p.errf("expected %q, found %s", want, p.peek())
}

func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	return fmt.Errorf("sql:%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	stmt.Distinct = p.accept(TokKeyword, "DISTINCT")

	// Select list.
	if p.accept(TokOp, "*") {
		stmt.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.accept(TokKeyword, "AS") {
				t, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				item.Alias = t.Text
			} else if p.at(TokIdent, "") {
				item.Alias = p.next().Text
			}
			stmt.Items = append(stmt.Items, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		var ref TableRef
		if p.at(TokOp, "(") {
			sub, err := p.parseParenSubquery()
			if err != nil {
				return nil, err
			}
			ref.Subquery = sub
			p.accept(TokKeyword, "AS")
			a, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, p.errf("a derived table requires an alias")
			}
			ref.Alias = a.Text
		} else {
			t, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			ref.Table = t.Text
			if p.accept(TokKeyword, "AS") {
				a, err := p.expect(TokIdent, "")
				if err != nil {
					return nil, err
				}
				ref.Alias = a.Text
			} else if p.at(TokIdent, "") {
				ref.Alias = p.next().Text
			}
		}
		stmt.From = append(stmt.From, ref)
		if !p.accept(TokOp, ",") {
			break
		}
	}

	if p.accept(TokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}

	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if p.accept(TokKeyword, "HAVING") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Having = e
		}
	}

	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(TokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(TokKeyword, "ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}

	if p.accept(TokKeyword, "LIMIT") {
		n, err := p.expect(TokInt, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil || v < 0 {
			return nil, p.errf("bad LIMIT %q", n.Text)
		}
		stmt.Limit = v
		stmt.HasLimit = true
	}
	return stmt, nil
}

// parseExpr parses with precedence OR < AND < NOT < predicate <
// additive < multiplicative < primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	// EXISTS (subquery) has no left operand.
	if p.accept(TokKeyword, "EXISTS") {
		stmt, err := p.parseParenSubquery()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Stmt: stmt}, nil
	}
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Comparison operators, including quantified comparisons
	// (θ ALL / θ SOME / θ ANY).
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.at(TokOp, op) {
			p.next()
			for _, q := range []string{"ALL", "SOME", "ANY"} {
				if p.accept(TokKeyword, q) {
					stmt, err := p.parseParenSubquery()
					if err != nil {
						return nil, err
					}
					return &QuantCmpExpr{Op: op, All: q == "ALL", L: l, Stmt: stmt}, nil
				}
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	negated := false
	mark := p.save()
	if p.accept(TokKeyword, "NOT") {
		negated = true
	}
	switch {
	case p.accept(TokKeyword, "LIKE"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{L: l, Pattern: r, Negated: negated}, nil
	case p.accept(TokKeyword, "IN"):
		stmt, err := p.parseParenSubquery()
		if err != nil {
			return nil, err
		}
		return &InExpr{L: l, Negated: negated, Stmt: stmt}, nil
	case p.accept(TokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Negated: negated}, nil
	case p.accept(TokKeyword, "IS"):
		neg := p.accept(TokKeyword, "NOT")
		if _, err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		if negated {
			return nil, p.errf("NOT before IS NULL is not supported; use IS NOT NULL")
		}
		return &IsNullExpr{E: l, Negated: neg}, nil
	}
	if negated {
		// The NOT belonged to an enclosing context (e.g. "x AND NOT y"
		// already handled by parseNot); restore and let the caller see it.
		p.restore(mark)
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.accept(TokOp, "-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOp, "*"):
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.accept(TokOp, "/"):
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

// literal parses the literal at the cursor; ok is false, and nothing is
// consumed, when the token starts none.
func (p *parser) literal() (e Expr, ok bool, err error) {
	t := p.peek()
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, true, p.errf("bad integer literal %q", t.Text)
		}
		return &IntLit{Val: v}, true, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, true, p.errf("bad float literal %q", t.Text)
		}
		return &FloatLit{Val: v}, true, nil
	case t.Kind == TokString:
		e = &StringLit{Val: t.Text}
	case t.Kind == TokKeyword && t.Text == "NULL":
		e = &NullLit{}
	case t.Kind == TokKeyword && t.Text == "TRUE":
		e = &BoolLit{Val: true}
	case t.Kind == TokKeyword && t.Text == "FALSE":
		e = &BoolLit{Val: false}
	default:
		return nil, false, nil
	}
	p.next()
	return e, true, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	if e, ok, err := p.literal(); ok {
		return e, err
	}
	t := p.peek()
	switch {
	case t.Kind == TokOp && t.Text == "-":
		p.next()
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: "-", L: &IntLit{Val: 0}, R: e}, nil
	case t.Kind == TokOp && t.Text == "(":
		p.next()
		if p.at(TokKeyword, "SELECT") {
			stmt, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Stmt: stmt}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		return p.parseIdentOrCall()
	default:
		return nil, p.errf("unexpected %s", t)
	}
}

func (p *parser) parseIdentOrCall() (Expr, error) {
	t := p.next() // the identifier
	if upper := lookupWord(aggFuncs, t.Text); upper != "" && p.at(TokOp, "(") {
		p.next()
		a := &AggExpr{Func: upper}
		a.Distinct = p.accept(TokKeyword, "DISTINCT")
		if p.accept(TokOp, "*") {
			a.Star = true
			if upper != "COUNT" {
				return nil, p.errf("%s(*) is not valid; only COUNT accepts *", upper)
			}
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			a.Arg = arg
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return a, nil
	}
	if p.accept(TokOp, ".") {
		col, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		return &Ident{Qualifier: t.Text, Name: col.Text}, nil
	}
	return &Ident{Name: t.Text}, nil
}

func (p *parser) parseParenSubquery() (*SelectStmt, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}
