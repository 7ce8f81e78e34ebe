package main

import (
	"flag"
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

// TestConnectRejectsUnhonouredFlags: -connect honours -e, -timeout and
// one flag per setting; every other flag main defines is a fatal error
// there, not silently dropped (an ignored -explain used to execute the
// statement it was meant to explain).
func TestConnectRejectsUnhonouredFlags(t *testing.T) {
	honoured := map[string]bool{"connect": true, "e": true, "timeout": true}
	for _, st := range disqo.SettingsTable() {
		honoured[st.Name] = true
	}
	parse := func(args ...string) *flag.FlagSet {
		t.Helper()
		fs := flag.NewFlagSet("disqo", flag.ContinueOnError)
		defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	rejected := 0
	parse().VisitAll(func(f *flag.Flag) {
		_, got := visitFlags(parse("-connect", "localhost:1", "-"+f.Name+"="+f.DefValue))
		switch {
		case honoured[f.Name] && len(got) != 0:
			t.Errorf("-%s: rejected %v, want honoured", f.Name, got)
		case !honoured[f.Name] && (len(got) != 1 || got[0] != "-"+f.Name):
			t.Errorf("-%s: rejected %v, want [-%s]", f.Name, got, f.Name)
		case !honoured[f.Name]:
			rejected++
		}
	})
	if rejected < 14 {
		t.Errorf("%d flags rejected with -connect, want every one of the 14 it does not honour", rejected)
	}
	if _, got := visitFlags(parse("-connect", "localhost:1", "-explain", "-rst", "1", "-e", "SELECT 1")); len(got) != 2 {
		t.Errorf("-explain -rst with -connect: rejected %v, want both", got)
	}

	// A setting's flag reaches the table, and a bad value is an error
	// whichever mode runs.
	pairs, _ := visitFlags(parse("-strategy", "canonical", "-rst", "1"))
	if len(pairs) != 1 || pairs["strategy"] != "canonical" {
		t.Errorf("settings from flags = %v, want only strategy=canonical", pairs)
	}
	pairs, _ = visitFlags(parse("-strategy", "bogus"))
	if _, err := (disqo.Settings{}).With(pairs); err == nil {
		t.Error("-strategy bogus accepted")
	}
}
