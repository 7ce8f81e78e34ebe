package sqlparser

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface {
	Node
	stmt()
}

func (*SelectStmt) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Type string // normalized: INTEGER, DOUBLE, VARCHAR, BOOLEAN
}

// CreateTableStmt is CREATE TABLE name (col type, …).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// String implements Node.
func (c *CreateTableStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CREATE TABLE %s (", c.Name)
	for i, col := range c.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", col.Name, col.Type)
	}
	b.WriteString(")")
	return b.String()
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Name string
}

func (*DropTableStmt) stmt() {}

// String implements Node.
func (d *DropTableStmt) String() string { return "DROP TABLE " + d.Name }

// InsertStmt is INSERT INTO name VALUES (…), (…). Values are literal
// expressions (numbers, strings, booleans, NULL, and negated numbers).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// String implements Node.
func (i *InsertStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s VALUES ", i.Table)
	for r, row := range i.Rows {
		if r > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for c, v := range row {
			if c > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// columnTypes normalizes SQL type names.
var columnTypes = map[string]string{
	"INT": "INTEGER", "INTEGER": "INTEGER", "BIGINT": "INTEGER",
	"FLOAT": "DOUBLE", "DOUBLE": "DOUBLE", "REAL": "DOUBLE",
	"DECIMAL": "DOUBLE", "NUMERIC": "DOUBLE",
	"VARCHAR": "VARCHAR", "TEXT": "VARCHAR", "CHAR": "VARCHAR", "STRING": "VARCHAR",
	"BOOL": "BOOLEAN", "BOOLEAN": "BOOLEAN",
}

// ParseStatement parses any supported statement: SELECT, CREATE TABLE,
// DROP TABLE, or INSERT.
func ParseStatement(input string) (Statement, error) {
	input = strings.TrimSpace(input)
	input = strings.TrimSuffix(input, ";")
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out Statement
	switch {
	case p.at(TokKeyword, "SELECT"):
		out, err = p.parseSelect()
	case p.at(TokIdent, "create"):
		out, err = p.parseCreateViewOrTable()
	case p.at(TokIdent, "drop"):
		out, err = p.parseDropAny()
	case p.at(TokIdent, "insert"):
		out, err = p.parseInsert()
	case p.at(TokIdent, "delete"):
		out, err = p.parseDelete()
	case p.at(TokIdent, "update"):
		out, err = p.parseUpdate()
	default:
		return nil, p.errf("expected SELECT, CREATE, DROP, INSERT, DELETE or UPDATE, found %s", p.peek())
	}
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf("unexpected %s after end of statement", p.peek())
	}
	return out, nil
}

// acceptWord consumes an identifier with the given (lower-case) text.
func (p *parser) acceptWord(word string) bool {
	if p.at(TokIdent, word) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectWord(word string) error {
	if p.acceptWord(word) {
		return nil
	}
	return p.errf("expected %q, found %s", strings.ToUpper(word), p.peek())
}

// parseCreateTableRest parses from the table name onward ("CREATE TABLE"
// is already consumed).
func (p *parser) parseCreateTableRest() (*CreateTableStmt, error) {
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name.Text}
	for {
		col, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		norm, ok := columnTypes[strings.ToUpper(typ.Text)]
		if !ok {
			return nil, p.errf("unknown column type %q", typ.Text)
		}
		// Optional length such as VARCHAR(25) is accepted and ignored.
		if p.accept(TokOp, "(") {
			if _, err := p.expect(TokInt, ""); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: col.Text, Type: norm})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectWord("insert"); err != nil {
		return nil, err
	}
	if err := p.expectWord("into"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("values"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: name.Text}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return stmt, nil
}

// parseLiteral parses an INSERT value: a literal, a number with an
// optional leading minus.
func (p *parser) parseLiteral() (Expr, error) {
	neg := p.accept(TokOp, "-")
	t := p.peek()
	if neg && t.Kind != TokInt && t.Kind != TokFloat {
		return nil, p.errf("expected a number after -, found %s", t)
	}
	e, ok, err := p.literal()
	switch {
	case !ok:
		return nil, p.errf("expected a literal, found %s", t)
	case err != nil || !neg:
		return e, err
	}
	switch x := e.(type) {
	case *IntLit:
		x.Val = -x.Val
	case *FloatLit:
		x.Val = -x.Val
	}
	return e, nil
}
