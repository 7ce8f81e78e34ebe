package main

import (
	"testing"

	"disqo"
	"disqo/internal/sqlparser"
)

// TestIsQuery: both shells route a statement by what it parses as, not
// by its first word.
func TestIsQuery(t *testing.T) {
	for _, c := range []struct {
		name, sql string
		want      bool
	}{
		{"plain", "SELECT a FROM t", true},
		{"as the REPL hands it over", "SELECT a FROM t;\n", true},
		{"leading comment", "-- note\nSELECT a FROM t", true},
		{"leading whitespace and newlines", " \n\t\n  SELECT a FROM t", true},
		{"lower case", "select a from t where a > 1", true},
		{"nested", "SELECT a FROM t WHERE a = (SELECT COUNT(*) FROM s WHERE b = a) OR a > 2", true},
		{"insert", "INSERT INTO t VALUES (1)", false},
		{"insert after a comment", "-- SELECT\nINSERT INTO t VALUES (1)", false},
		{"insert … select has no grammar: Exec reports it", "INSERT INTO t SELECT a FROM s", false},
		{"create view over a select", "CREATE VIEW v AS SELECT a FROM t", false},
		{"update", "UPDATE t SET a = 1", false},
		{"delete", "DELETE FROM t", false},
		{"drop", "DROP TABLE t", false},
		{"a select that does not parse: Exec reports it", "SELECT FROM", false},
		{"no statement", "", false},
	} {
		if got := isQuery(c.sql); got != c.want {
			t.Errorf("%s: isQuery(%q) = %v, want %v", c.name, c.sql, got, c.want)
		}
	}

	// What does not parse is answered by Exec with the parser's error,
	// not with "use Query for SELECT statements".
	db, err := disqo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, want := sqlparser.ParseStatement("SELECT FROM")
	if _, err := db.Exec("SELECT FROM"); err == nil || err.Error() != want.Error() {
		t.Errorf("Exec of a broken SELECT = %v, want the parser's %v", err, want)
	}
}
