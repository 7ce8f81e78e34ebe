package sqlparser

import (
	"strings"
	"testing"
)

// Q1, Q2 and Query 2d from the paper, used across the test suite.
const (
	paperQ1 = `SELECT DISTINCT * FROM R
	           WHERE A1 = (SELECT COUNT(DISTINCT *) FROM S WHERE A2 = B2)
	              OR A4 > 1500`
	paperQ2 = `SELECT DISTINCT * FROM R
	           WHERE A1 = (SELECT COUNT(*) FROM S WHERE A2 = B2 OR B4 > 1500)`
	paperQ2d = `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr,
	                   s_address, s_phone, s_comment
	            FROM part, supplier, partsupp, nation, region
	            WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	              AND p_size = 15 AND p_type LIKE '%BRASS'
	              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	              AND r_name = 'EUROPE'
	              AND (ps_supplycost = (SELECT MIN(ps_supplycost)
	                                    FROM partsupp ps2, supplier s2, nation n2, region r2
	                                    WHERE s2.s_suppkey = ps2.ps_suppkey
	                                      AND p_partkey = ps2.ps_partkey
	                                      AND s2.s_nationkey = n2.n_nationkey
	                                      AND n2.n_regionkey = r2.r_regionkey
	                                      AND r2.r_name = 'EUROPE')
	                   OR ps_availqty > 2000)
	            ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`
)

func mustParse(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 1.5 <> 'it''s' -- comment\n FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "1.5", "<>", "it's", "FROM", "t", ""}
	if len(texts) != len(want) {
		t.Fatalf("token texts = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokFloat ||
		kinds[4] != TokOp || kinds[5] != TokString {
		t.Errorf("token kinds = %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string must error")
	}
	if _, err := Lex("SELECT a ; b"); err == nil {
		t.Error("stray character must error")
	}
}

// TestLexUTF8 checks that identifiers are read as UTF-8 — a letter
// outside ASCII is a letter, not the Latin-1 reading of its first byte —
// and that a byte no UTF-8 sequence starts with is a positioned error:
// two different invalid bytes must not lex to one name.
func TestLexUTF8(t *testing.T) {
	for _, c := range []struct{ sql, name string }{
		{"SELECT é FROM r", "é"},
		{"SELECT größe FROM r", "größe"},
		{"SELECT GRÖSSE FROM r", "grösse"},
	} {
		stmt := mustParse(t, c.sql)
		if id, ok := stmt.Items[0].Expr.(*Ident); !ok || id.Name != c.name {
			t.Errorf("Parse(%q): select item %v, want the column %q", c.sql, stmt.Items[0].Expr, c.name)
		}
	}
	for _, c := range []struct{ sql, err string }{
		{"SELECT \xc3 FROM r", "sql:1:8: invalid UTF-8 byte 0xc3"},
		{"SELECT \xc4 FROM r", "sql:1:8: invalid UTF-8 byte 0xc4"},
		{"SELECT a\xc3 FROM r", "sql:1:9: invalid UTF-8 byte 0xc3"},
		{"SELECT a FROM r WHERE a = ‰", `sql:1:27: unexpected character "‰"`},
	} {
		if _, err := Parse(c.sql); err == nil || err.Error() != c.err {
			t.Errorf("Parse(%q) = %v, want %s", c.sql, err, c.err)
		}
	}
	// Keywords are ASCII: a word that folds to one only under Unicode
	// case rules (ſ, U+017F, upper-cases to S) is an identifier.
	toks, err := Lex("ſelect")
	if err != nil || toks[0].Kind != TokIdent {
		t.Errorf("Lex(ſelect) = %v, %v; want an identifier", toks, err)
	}
}

// TestWordTables checks that every reserved word and aggregate name is
// one lookupWord can match: upper-case ASCII of at most eight letters,
// found from its lower-case spelling.
func TestWordTables(t *testing.T) {
	for _, set := range []map[string]string{keywords, aggFuncs} {
		for w := range set {
			if got := lookupWord(set, strings.ToLower(w)); got != w {
				t.Errorf("lookupWord(%q) = %q, want %q", strings.ToLower(w), got, w)
			}
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT\n  a")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("position = %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestParseQ1(t *testing.T) {
	stmt := mustParse(t, paperQ1)
	if !stmt.Distinct || !stmt.Star {
		t.Error("Q1 must be SELECT DISTINCT *")
	}
	if len(stmt.From) != 1 || stmt.From[0].Table != "r" {
		t.Errorf("From = %v", stmt.From)
	}
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("Where = %s", stmt.Where)
	}
	cmp, ok := or.L.(*BinaryExpr)
	if !ok || cmp.Op != "=" {
		t.Fatalf("left disjunct = %s", or.L)
	}
	sub, ok := cmp.R.(*SubqueryExpr)
	if !ok {
		t.Fatalf("linking operand = %T", cmp.R)
	}
	aggItem, ok := sub.Stmt.Items[0].Expr.(*AggExpr)
	if !ok || aggItem.Func != "COUNT" || !aggItem.Distinct || !aggItem.Star {
		t.Fatalf("inner agg = %v", sub.Stmt.Items)
	}
}

func TestParseQ2InnerDisjunction(t *testing.T) {
	stmt := mustParse(t, paperQ2)
	cmp := stmt.Where.(*BinaryExpr)
	sub := cmp.R.(*SubqueryExpr)
	inner, ok := sub.Stmt.Where.(*BinaryExpr)
	if !ok || inner.Op != "OR" {
		t.Fatalf("inner where = %s", sub.Stmt.Where)
	}
}

func TestParseQuery2d(t *testing.T) {
	stmt := mustParse(t, paperQ2d)
	if len(stmt.Items) != 8 {
		t.Errorf("select list = %d items", len(stmt.Items))
	}
	if len(stmt.From) != 5 {
		t.Errorf("from = %d refs", len(stmt.From))
	}
	if len(stmt.OrderBy) != 4 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by = %v", stmt.OrderBy)
	}
	// The disjunction with the nested MIN subquery must survive.
	if !strings.Contains(stmt.String(), "OR (ps_availqty > 2000)") {
		t.Errorf("round trip lost the disjunction: %s", stmt)
	}
	if !strings.Contains(stmt.String(), "MIN(") {
		t.Errorf("round trip lost the aggregate: %s", stmt)
	}
}

func TestParseAliasesAndQualifiedNames(t *testing.T) {
	stmt := mustParse(t, "SELECT x.a AS col1, y.b FROM t1 x, t2 AS y WHERE x.a = y.b")
	if stmt.From[0].Binding() != "x" || stmt.From[1].Binding() != "y" {
		t.Errorf("bindings = %v", stmt.From)
	}
	if stmt.Items[0].Alias != "col1" {
		t.Errorf("alias = %q", stmt.Items[0].Alias)
	}
	id := stmt.Items[1].Expr.(*Ident)
	if id.Qualifier != "y" || id.Name != "b" {
		t.Errorf("qualified ident = %v", id)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := stmt.Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %s", or.Op)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND must bind tighter: %s", stmt.Where)
	}

	stmt = mustParse(t, "SELECT * FROM t WHERE a + 2 * b = c - 1 / d")
	cmp := stmt.Where.(*BinaryExpr)
	if cmp.Op != "=" {
		t.Fatalf("cmp loosest: %s", stmt.Where)
	}
	if got := stmt.Where.String(); got != "((a + (2 * b)) = (c - (1 / d)))" {
		t.Errorf("arith precedence: %s", got)
	}
}

func TestParseNotVariants(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE NOT a = 1")
	if _, ok := stmt.Where.(*NotExpr); !ok {
		t.Errorf("NOT: %s", stmt.Where)
	}
	stmt = mustParse(t, "SELECT * FROM t WHERE a NOT LIKE 'x%'")
	if l, ok := stmt.Where.(*LikeExpr); !ok || !l.Negated {
		t.Errorf("NOT LIKE: %s", stmt.Where)
	}
	stmt = mustParse(t, "SELECT * FROM t WHERE a IS NOT NULL")
	if n, ok := stmt.Where.(*IsNullExpr); !ok || !n.Negated {
		t.Errorf("IS NOT NULL: %s", stmt.Where)
	}
	stmt = mustParse(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b = 2")
	and := stmt.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("between binding: %s", stmt.Where)
	}
	if b, ok := and.L.(*BetweenExpr); !ok || b.Negated {
		t.Errorf("BETWEEN: %s", and.L)
	}
}

func TestParseQuantified(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a = b)")
	if e, ok := stmt.Where.(*ExistsExpr); !ok || e.Negated {
		t.Fatalf("EXISTS: %s", stmt.Where)
	}
	stmt = mustParse(t, "SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s)")
	n, ok := stmt.Where.(*NotExpr)
	if !ok {
		t.Fatalf("NOT EXISTS: %s", stmt.Where)
	}
	if _, ok := n.E.(*ExistsExpr); !ok {
		t.Fatalf("NOT EXISTS inner: %s", n.E)
	}
	stmt = mustParse(t, "SELECT * FROM r WHERE a IN (SELECT b FROM s) OR c NOT IN (SELECT d FROM t)")
	or := stmt.Where.(*BinaryExpr)
	if _, ok := or.L.(*InExpr); !ok {
		t.Errorf("IN: %s", or.L)
	}
	if in, ok := or.R.(*InExpr); !ok || !in.Negated {
		t.Errorf("NOT IN: %s", or.R)
	}
}

func TestParseAggregates(t *testing.T) {
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(DISTINCT *) FROM t",
		"SELECT COUNT(DISTINCT a) FROM t",
		"SELECT SUM(a + b) FROM t",
		"SELECT AVG(a), MIN(b), MAX(c) FROM t",
	} {
		mustParse(t, sql)
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Error("SUM(*) must be rejected")
	}
	// Aggregate names are not reserved: usable as column names.
	stmt := mustParse(t, "SELECT count FROM t WHERE min = 3")
	if id, ok := stmt.Items[0].Expr.(*Ident); !ok || id.Name != "count" {
		t.Errorf("agg name as ident: %v", stmt.Items[0].Expr)
	}
}

func TestParseLiterals(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM t WHERE a = -5 AND b = 2.5 AND c = 'x' AND d = NULL AND e = TRUE")
	s := stmt.Where.String()
	for _, frag := range []string{"(0 - 5)", "2.5", "'x'", "NULL", "TRUE"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in %s", frag, s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a =",
		"SELECT * FROM t ORDER a",
		"SELECT * FROM t WHERE a IN (1, 2)", // only subqueries after IN
		"SELECT * FROM t extra junk",
		"SELECT a FROM t WHERE (SELECT b FROM s", // unclosed subquery
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT * FROM t;")
}

func TestStringRoundTripReparses(t *testing.T) {
	for _, sql := range []string{paperQ1, paperQ2, paperQ2d} {
		stmt := mustParse(t, sql)
		again := mustParse(t, stmt.String())
		if stmt.String() != again.String() {
			t.Errorf("round trip unstable:\n%s\n%s", stmt, again)
		}
	}
}
