package sqlparser

import "testing"

// FuzzParse drives both grammar entry points — the SELECT parser and
// the DDL/DML statement parser — with arbitrary input. The contract
// under fuzzing is the robustness_test one: return a statement or an
// error, never panic and never hang. Seeds are the paper queries plus
// the hand-picked shapes TestParserNeverPanics mutates, so the fuzzer
// starts from inputs that reach deep into the grammar (nested blocks,
// quantifiers, BETWEEN, GROUP/HAVING, DDL).
//
// verify.sh runs this for a 10s smoke on every full verification;
// longer sessions: go test -fuzz=FuzzParse ./internal/sqlparser
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		paperQ1, paperQ2, paperQ2d,
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC",
		"SELECT * FROM (SELECT a FROM t) x WHERE x.a > ALL (SELECT b FROM s)",
		"SELECT a FROM t WHERE a NOT IN (SELECT b FROM s) AND b BETWEEN 1 AND 2",
		"SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500",
		"SELECT a FROM t WHERE s LIKE '%BRASS' AND b IS NOT NULL",
		"CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)",
		"INSERT INTO t VALUES (1, 'x', 2.5, TRUE), (2, NULL, -0.5, FALSE)",
		"DELETE FROM t WHERE a = 1 OR b LIKE 'x%'",
		"UPDATE t SET a = a + 1 WHERE b IS NULL",
		"SELECT é FROM r", "SELECT größe FROM r", "SELECT \xc3 FROM r", "SELECT \xc4 FROM r",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if stmt, err := Parse(sql); err == nil && stmt == nil {
			t.Errorf("Parse(%q): nil statement with nil error", sql)
		}
		if stmt, err := ParseStatement(sql); err == nil && stmt == nil {
			t.Errorf("ParseStatement(%q): nil statement with nil error", sql)
		}
	})
}
