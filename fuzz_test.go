package disqo_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"disqo"
	"disqo/internal/scenario"
	"disqo/internal/sqlparser"
	"disqo/internal/types"
)

// fuzzDB builds the tiny catalog the end-to-end fuzzer queries: the
// paper's r/s/t shape with a handful of rows, plus a string column so
// LIKE and type-mismatch paths are reachable.
func fuzzDB(tb testing.TB) *disqo.DB {
	db, _ := disqo.Open()
	for _, spec := range []struct{ name, p string }{{"r", "a"}, {"s", "b"}, {"t", "c"}} {
		if err := db.CreateTable(spec.name, []disqo.Column{
			{Name: spec.p + "1", Type: types.KindInt},
			{Name: spec.p + "2", Type: types.KindInt},
			{Name: spec.p + "3", Type: types.KindString},
			{Name: spec.p + "4", Type: types.KindInt},
		}); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := db.Insert(spec.name, []disqo.Value{
				types.NewInt(int64(i % 3)), types.NewInt(int64(i % 2)),
				types.NewString(string(rune('a' + i))), types.NewInt(int64(i * 500)),
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// fuzzFingerprint renders a result for identity comparison.
func fuzzFingerprint(res *disqo.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, ","))
	b.WriteByte('\n')
	for _, row := range res.Rows {
		b.WriteString(types.FormatTuple(row))
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzQuery fuzzes the full pipeline — parse, translate, rewrite,
// lower, execute — against a tiny catalog under both the unnested and
// canonical strategies. The contract is the engine's robustness
// guarantee end to end: any input string produces rows or an error;
// panics anywhere in the lifecycle fail the fuzz run. Timeout and
// tuple-limit budgets keep pathological inputs (cross joins, deep
// nesting) from stalling the fuzzer.
//
// Every parseable input is additionally round-tripped through the
// caching tiers: Prepare, then Stmt.Query twice — the first run
// executes and fills the result cache, the second is (normally) a warm
// hit — and any successful runs of one statement under one strategy
// must agree byte-for-byte with each other and with the ad-hoc
// db.Query path. A cache key collision, a stale entry, or a
// fingerprint that conflates two different plans all surface here as
// an identity mismatch.
//
// Each strategy also runs on both execution paths (vectorized and
// tuple-at-a-time row), and successes are compared across paths too:
// the row path is the correctness oracle, so a vectorized kernel that
// filters, projects, or joins differently — even in row order — fails
// the fuzz run as a differential mismatch.
//
// verify.sh runs this for a 10s smoke on every full verification;
// longer sessions: go test -fuzz=FuzzQuery .
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500",
		"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
		"SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 2500) OR a4 > 1500",
		"SELECT a1, COUNT(*) FROM r GROUP BY a1 HAVING COUNT(*) > 1 ORDER BY a1 DESC",
		"SELECT * FROM r, s WHERE a1 = b1 AND a3 LIKE 'a%'",
		"SELECT a1 FROM r WHERE a1 > ALL (SELECT b1 FROM s WHERE b2 = a2)",
		"SELECT a1 + a2 * a4 / a1 FROM r WHERE a3 IS NOT NULL",
	} {
		f.Add(seed)
	}
	db := fuzzDB(f)
	strategies := []disqo.Strategy{disqo.Unnested, disqo.Canonical}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, s := range strategies {
			// Successful fingerprints under this strategy, across both
			// execution paths and all cache tiers: every pair must agree.
			var prints []string
			for _, path := range []disqo.ExecutionPath{disqo.PathVector, disqo.PathRow} {
				opts := []disqo.Option{
					disqo.WithStrategy(s),
					disqo.WithExecutionPath(path),
					disqo.WithTimeout(2 * time.Second),
					disqo.WithTupleLimit(100_000),
					disqo.WithWorkers(2),
				}
				// Errors are expected on arbitrary input; crashes, hangs, and
				// identity mismatches are the failures being hunted.
				adhoc, adhocErr := db.Query(sql, opts...)
				stmt, err := db.Prepare(sql)
				if err != nil {
					if adhocErr == nil {
						t.Fatalf("%s: db.Query accepted what Prepare rejected: %v", s, err)
					}
					continue
				}
				cold, coldErr := stmt.Query(opts...)
				warm, warmErr := stmt.Query(opts...)
				// Nondeterministic budgets (timeout) may fail one run and not
				// another, so identity is only asserted between successes.
				for _, r := range []struct {
					res *disqo.Result
					err error
				}{{adhoc, adhocErr}, {cold, coldErr}, {warm, warmErr}} {
					if r.err == nil {
						prints = append(prints, fuzzFingerprint(r.res))
					}
				}
				stmt.Close()
			}
			for i := 1; i < len(prints); i++ {
				if prints[i] != prints[0] {
					t.Fatalf("%s: runs of %q disagree across paths/caches:\n--- run 0 ---\n%s--- run %d ---\n%s",
						s, sql, prints[0], i, prints[i])
				}
			}
		}
	})
}

// FuzzNormalizeSQL fuzzes the key normalisation the plan cache and the
// telemetry registry compare statements by. The key may merge only
// texts the lexer cannot tell apart: whenever s lexes, its key lexes to
// the same tokens (kind and text, positions aside) and is a fixed
// point; and two texts that differ only inside a string literal or
// inside a comment keep different keys — a hit must never return
// another statement's plan.
//
// verify.sh runs this for a 10s smoke on every full verification.
func FuzzNormalizeSQL(f *testing.F) {
	seeds := []string{
		"INSERT INTO p VALUES ('a  b', 2), ('x\ty', 3)",
		"INSERT INTO p -- a note\n VALUES (7)",
		"SELECT v FROM p WHERE name = 'a  b'",
		"SELECT 'it''s',\r\n\t'--' FROM p -- tail",
	}
	for i := uint64(1); i <= 32; i++ {
		seeds = append(seeds, scenario.Generate(i).Query.SQL())
	}
	for _, s := range seeds {
		f.Add(s, "a b", "a  b")
	}
	tokens := func(s string) ([]string, bool) {
		toks, err := sqlparser.Lex(s)
		if err != nil {
			return nil, false
		}
		out := make([]string, len(toks))
		for i, tok := range toks {
			out[i] = fmt.Sprint(tok.Kind, ":", tok.Text)
		}
		return out, true
	}
	f.Fuzz(func(t *testing.T, s, x, y string) {
		want, ok := tokens(s)
		if !ok {
			return
		}
		key := disqo.NormalizeSQL(s)
		if got, ok := tokens(key); !ok || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%q lexes to %q, its key %q to %q", s, want, key, got)
		}
		if again := disqo.NormalizeSQL(key); again != key {
			t.Fatalf("key %q of %q is not a fixed point: %q", key, s, again)
		}
		// A comment ends at the first line break; what follows is code.
		x, _, _ = strings.Cut(x, "\n")
		y, _, _ = strings.Cut(y, "\n")
		if x == y {
			return
		}
		quote := func(v string) string { return " '" + strings.ReplaceAll(v, "'", "''") + "'" }
		if disqo.NormalizeSQL(s+quote(x)) == disqo.NormalizeSQL(s+quote(y)) {
			t.Fatalf("literals %q and %q after %q share a key", x, y, s)
		}
		if disqo.NormalizeSQL(s+" --"+x) == disqo.NormalizeSQL(s+" --"+y) {
			t.Fatalf("comments %q and %q after %q share a key", x, y, s)
		}
	})
}
