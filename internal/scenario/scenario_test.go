package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"disqo"
	"disqo/internal/strategy"
	"disqo/internal/testutil"
)

// TestGeneratorDeterminism: the whole point of seeding — the same seed
// must reproduce the identical scenario, byte for byte, across calls.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Query.SQL() != b.Query.SQL() {
			t.Fatalf("seed %d: SQL differs:\n%s\n%s", seed, a.Query.SQL(), b.Query.SQL())
		}
		aj, _ := json.Marshal(ToSeedFile(a, "", "", ""))
		bj, _ := json.Marshal(ToSeedFile(b, "", "", ""))
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: serialized scenarios differ", seed)
		}
	}
}

// TestGeneratorVariety: the grammar must actually cover its axes —
// every shape, NULLs somewhere, correlation disjunctions somewhere.
func TestGeneratorVariety(t *testing.T) {
	shapes := map[Shape]bool{}
	var nulls, orGuards, subforms int
	forms := map[SubForm]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		sc := Generate(seed)
		shapes[sc.Query.Shape] = true
		if sc.HasNulls() {
			nulls++
		}
		for _, d := range sc.Query.Disjuncts {
			if d.Sub != nil {
				forms[d.Sub.Form] = true
				subforms++
				if d.Sub.OrGuard != nil {
					orGuards++
				}
			}
		}
	}
	if len(shapes) != 3 {
		t.Errorf("200 seeds covered shapes %v, want all 3", shapes)
	}
	if len(forms) != 5 {
		t.Errorf("200 seeds covered subquery forms %v, want all 5", forms)
	}
	if nulls < 100 {
		t.Errorf("only %d/200 scenarios have NULLs", nulls)
	}
	if orGuards == 0 {
		t.Error("no scenario generated a correlation disjunction")
	}
}

// TestGeneratedQueriesParse: every generated query must be accepted by
// the engine — the generator emits valid SQL by construction, so a
// parse or plan error is a generator bug, not an engine finding.
func TestGeneratedQueriesParse(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		sc := Generate(seed)
		db, err := buildDB(sc, true)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		if _, err := db.Explain(sc.Query.SQL()); err != nil {
			t.Errorf("seed %d: %q does not plan: %v", seed, sc.Query.SQL(), err)
		}
		db.Close()
	}
}

// TestRunnerSweep runs a seed range through the full matrix and
// requires zero divergences — the engine's strategy-equivalence
// contract, enforced differentially. Default is a modest range so
// `go test ./...` stays quick; verify.sh sets SCENARIO_SEEDS=500 for
// the full sweep under -race.
func TestRunnerSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	r := &Runner{}
	seeds := uint64(40)
	if testing.Short() {
		seeds = 10
	}
	if env := os.Getenv("SCENARIO_SEEDS"); env != "" {
		n, err := strconv.ParseUint(env, 10, 64)
		if err != nil {
			t.Fatalf("bad SCENARIO_SEEDS %q: %v", env, err)
		}
		seeds = n
	}
	for seed := uint64(0); seed < seeds; seed++ {
		out, err := r.Check(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged: %s", seed, out.Divergence.Error())
		}
	}
}

// TestMinimizerConvergence plants an unsound "rewrite" (the tamper
// seam flips the unnested strategy's top-level OR to AND), confirms
// the differential runner catches it, and requires the minimizer to
// shrink the witness to at most 3 disjuncts and a handful of rows —
// then round-trips the minimized witness through a seed file.
func TestMinimizerConvergence(t *testing.T) {
	tamper := func(s disqo.Strategy, sql string) string {
		if s == disqo.Unnested {
			return strings.Replace(sql, " OR ", " AND ", 1)
		}
		return sql
	}
	r := &Runner{Tamper: tamper}
	var sc *Scenario
	var firstDiv *Divergence
	for seed := uint64(0); seed < 50; seed++ {
		cand := Generate(seed)
		out, err := r.Check(cand)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Divergence != nil {
			sc, firstDiv = cand, out.Divergence
			break
		}
	}
	if sc == nil {
		t.Fatal("planted OR→AND bug was not caught in 50 seeds")
	}

	min := Minimize(sc, func(c *Scenario) bool {
		out, err := r.Check(c)
		return err == nil && out.Divergence != nil
	})
	if n := len(min.Query.Disjuncts); n > 3 {
		t.Errorf("minimized to %d disjuncts, want <= 3", n)
	}
	var rows int
	for _, tb := range min.Tables {
		rows += len(tb.Rows)
	}
	if orig := totalRows(sc); rows > orig {
		t.Errorf("minimization grew the data: %d rows from %d", rows, orig)
	}
	out, err := r.Check(min)
	if err != nil {
		t.Fatal(err)
	}
	if out.Divergence == nil {
		t.Fatal("minimized scenario no longer diverges")
	}

	// Emit and replay the seed file: with the tamper still planted the
	// divergence must reproduce from disk; with it removed the replay
	// must come back clean.
	path := filepath.Join(t.TempDir(), "planted.json")
	sf := ToSeedFile(min, "planted OR→AND tamper", firstDiv.ConfigA, firstDiv.ConfigB)
	if err := sf.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSeedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := loaded.Replay(r); err != nil || out.Divergence == nil {
		t.Fatalf("replay with planted bug: err=%v divergence=%v, want a divergence", err, out.Divergence)
	}
	if out, err := loaded.Replay(&Runner{}); err != nil || out.Divergence != nil {
		t.Fatalf("replay on healthy engine: err=%v divergence=%v, want clean", err, out.Divergence)
	}
}

func totalRows(sc *Scenario) int {
	var n int
	for _, tb := range sc.Tables {
		n += len(tb.Rows)
	}
	return n
}

// TestSeedFileRoundTrip: serialization preserves values exactly,
// NULLs included.
func TestSeedFileRoundTrip(t *testing.T) {
	sc := Generate(7)
	path := filepath.Join(t.TempDir(), "roundtrip.json")
	if err := ToSeedFile(sc, "roundtrip", "", "").Write(path); err != nil {
		t.Fatal(err)
	}
	f, err := LoadSeedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.SQL != sc.Query.SQL() {
		t.Fatalf("SQL mismatch: %q vs %q", f.SQL, sc.Query.SQL())
	}
	got := f.tables()
	if len(got) != len(sc.Tables) {
		t.Fatalf("table count %d, want %d", len(got), len(sc.Tables))
	}
	for i, tb := range got {
		want := sc.Tables[i]
		if len(tb.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, want %d", tb.Name, len(tb.Rows), len(want.Rows))
		}
		for j, row := range tb.Rows {
			for k, v := range row {
				w := want.Rows[j][k]
				if v.IsNull() != w.IsNull() || v.String() != w.String() {
					t.Fatalf("%s[%d][%d]: %v, want %v", tb.Name, j, k, v, w)
				}
			}
		}
	}
}

// TestNullModesAgainstHandResults checks both null modes against
// answers worked out by hand, not by another run of the engine, on one
// fixture (N is NULL):
//
//	r(a1 a2 a3 a4)   (1 1 1 1) (2 N 2 2) (N 3 3 3) (4 4 N 4) (5 1 0 N)
//	s(b1 b2 b3 b4)   (1 1 1 1) (N 1 2 2) (3 N 3 3) (4 4 4 N) (0 4 N 0)
//	t(c1)            ('ab') ('xb') (N)
//
// In the two OR-correlated blocks, S(r) = {b1 : b2 = a2 OR b4 = a4} is
// {1, N} for a1 = 1 and 5, {N} for 2, {3} for N, and {4, 0} for 4. Every
// row runs under every strategy and both evaluators.
func TestNullModesAgainstHandResults(t *testing.T) {
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		"CREATE TABLE r (a1 INTEGER, a2 INTEGER, a3 INTEGER, a4 INTEGER)",
		"INSERT INTO r VALUES (1, 1, 1, 1), (2, NULL, 2, 2), (NULL, 3, 3, 3), (4, 4, NULL, 4), (5, 1, 0, NULL)",
		"CREATE TABLE s (b1 INTEGER, b2 INTEGER, b3 INTEGER, b4 INTEGER)",
		"INSERT INTO s VALUES (1, 1, 1, 1), (NULL, 1, 2, 2), (3, NULL, 3, 3), (4, 4, 4, NULL), (0, 4, NULL, 0)",
		"CREATE TABLE t (c1 VARCHAR)",
		"INSERT INTO t VALUES ('ab'), ('xb'), (NULL)",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	const orBlock = "(SELECT b1 FROM s WHERE b2 = a2 OR b4 = a4)"
	cases := []struct {
		name, sql      string
		three, two     []string // rows, values comma-separated
		why3vl, why2vl string
	}{
		{"not over a comparison", "SELECT a1 FROM r WHERE NOT (a2 = 1)",
			[]string{"4", "NULL"}, []string{"2", "4", "NULL"},
			"NULL = 1 is UNKNOWN, and so is its NOT", "NULL = 1 is FALSE, so its NOT keeps a1 = 2"},
		{"predicate as a select item", "SELECT a1, a3 = 1 AS p FROM r",
			[]string{"1,TRUE", "2,FALSE", "NULL,FALSE", "4,NULL", "5,FALSE"},
			[]string{"1,TRUE", "2,FALSE", "NULL,FALSE", "4,FALSE", "5,FALSE"},
			"a3 = NULL renders UNKNOWN as NULL", "a3 = NULL is FALSE"},
		{"not in with a null member", "SELECT a1 FROM r WHERE a2 NOT IN (SELECT b1 FROM s)",
			nil, []string{"2"},
			"the NULL in s.b1 leaves no NOT IN TRUE", "NULLs equal nothing: only the NULL probe a2 is in no member"},
		{"not in with a null probe", "SELECT a1 FROM r WHERE a2 NOT IN (SELECT b2 FROM s WHERE b2 IS NOT NULL)",
			[]string{"NULL"}, []string{"2", "NULL"},
			"members {1, 4}: a2 = 3 passes, the NULL probe is UNKNOWN", "the NULL probe equals no member and passes too"},
		{"not in as a select item over a null probe", "SELECT a1, a2 NOT IN (SELECT b2 FROM s WHERE b2 IS NOT NULL) AS p FROM r",
			[]string{"1,FALSE", "2,NULL", "NULL,TRUE", "4,FALSE", "5,FALSE"},
			[]string{"1,FALSE", "2,TRUE", "NULL,TRUE", "4,FALSE", "5,FALSE"},
			"members {1, 4}: the NULL probe's IN is UNKNOWN, rendered NULL", "the NULL probe's IN is FALSE, so its NOT IN is TRUE"},
		{"<> all as a select item over a null member", "SELECT a1, a1 <> ALL (SELECT b1 FROM s) AS p FROM r",
			[]string{"1,FALSE", "2,NULL", "NULL,NULL", "4,FALSE", "5,NULL"},
			[]string{"1,FALSE", "2,TRUE", "NULL,TRUE", "4,FALSE", "5,TRUE"},
			"<> ALL is NOT IN; members {1, N, 3, 4, 0}: 2, N and 5 meet the NULL member, so their IN is UNKNOWN",
			"the IN of 2, N and 5 is FALSE, so their NOT IN is TRUE"},
		{"not (> all) over an or-correlated block", "SELECT a1 FROM r WHERE NOT (a1 > ALL " + orBlock + ")",
			[]string{"1", "4"}, []string{"1", "2", "NULL", "4", "5"},
			"1 > 1 and 4 > 4 are FALSE; 2 > N, N > 3 and 5 > N are UNKNOWN",
			"every comparison with a NULL is FALSE, so no ALL holds and every NOT does"},
		{"not (= any) over an or-correlated block", "SELECT a1 FROM r WHERE NOT (a1 = ANY " + orBlock + ")",
			nil, []string{"2", "NULL", "5"},
			"1 and 4 are members; the other three meet a NULL on one side",
			"2, N and 5 equal no member once NULL comparisons are FALSE"},
		{"not like on null", "SELECT c1 FROM t WHERE c1 NOT LIKE 'a%'",
			[]string{"'xb'"}, []string{"'xb'", "NULL"},
			"NULL LIKE 'a%' is UNKNOWN", "NULL LIKE 'a%' is FALSE"},
		{"not over a scalar-subquery comparison", "SELECT a1 FROM r WHERE NOT (a3 = (SELECT MAX(b3) FROM s WHERE b2 = a2))",
			[]string{"1", "5"}, []string{"1", "2", "NULL", "4", "5"},
			"the MAX is 2, NULL, NULL, 4, 2: only 1 = 2 and 0 = 2 are decided",
			"the three comparisons with a NULL are FALSE, so their NOTs pass"},
		{"having not", "SELECT a2, COUNT(*) AS n FROM r GROUP BY a2 HAVING NOT (MAX(a3) > 1)",
			[]string{"1,2"}, []string{"1,2", "4,1"},
			"the group a2 = 4 has MAX(a3) NULL, so its HAVING is UNKNOWN", "NULL > 1 is FALSE, so the group a2 = 4 passes"},
		{"not exists over a negated correlation", "SELECT a1 FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE NOT (b1 = a1) AND b2 = a2)",
			[]string{"1", "2", "NULL"}, []string{"2", "NULL"},
			"for a1 = 1 the block's only candidate has b1 NULL: UNKNOWN, so the block is empty",
			"NOT (NULL = 1) is TRUE: the block is not empty and 2VL returns fewer rows"},
	}
	for _, c := range cases {
		for _, m := range []struct {
			mode disqo.NullMode
			want []string
			why  string
		}{{disqo.ThreeValuedNulls, c.three, c.why3vl}, {disqo.TwoValuedNulls, c.two, c.why2vl}} {
			want := append([]string(nil), m.want...)
			sort.Strings(want)
			for _, row := range strategy.Rows() {
				s := disqo.Strategy(row.Name)
				for _, path := range []disqo.ExecutionPath{disqo.PathRow, disqo.PathVector} {
					res, err := db.Query(c.sql, disqo.WithNullMode(m.mode), disqo.WithStrategy(s), disqo.WithExecutionPath(path))
					if err != nil {
						t.Fatalf("%s %s %s %s: %v", c.name, m.mode, s, path, err)
					}
					got := make([]string, len(res.Rows))
					for i, row := range res.Rows {
						vals := make([]string, len(row))
						for j, v := range row {
							vals[j] = v.String()
						}
						got[i] = strings.Join(vals, ",")
					}
					sort.Strings(got)
					if strings.Join(got, " ") != strings.Join(want, " ") {
						t.Errorf("%s under %s, %s, %s: rows %v, want %v (%s)", c.name, m.mode, s, path, got, want, m.why)
					}
				}
			}
		}
	}
}
