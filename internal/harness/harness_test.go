package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/testutil"
)

// tinyConfig keeps harness tests fast: minuscule data, two strategies.
func tinyConfig() Config {
	return Config{
		RSTScale:   0.004, // 40 rows at SF1
		TPCHSFs:    []float64{0.002},
		Strategies: []disqo.Strategy{disqo.Canonical, disqo.Unnested},
		Timeout:    30 * time.Second,
	}
}

func TestFig7aProducesFullGrid(t *testing.T) {
	tab, err := Fig7a(tinyConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Params) != 9 {
		t.Fatalf("params = %v", tab.Params)
	}
	for _, s := range tab.Strats {
		for _, p := range tab.Params {
			c, ok := tab.Cells[s][p]
			if !ok {
				t.Fatalf("missing cell %s/%s", s, p)
			}
			if c.Err != nil {
				t.Fatalf("cell %s/%s error: %v", s, p, c.Err)
			}
		}
	}
	// Both strategies must return identical row counts per cell.
	for _, p := range tab.Params {
		a := tab.Cells[disqo.Canonical][p]
		b := tab.Cells[disqo.Unnested][p]
		if a.Rows != b.Rows {
			t.Errorf("row count mismatch at %s: canonical %d vs unnested %d", p, a.Rows, b.Rows)
		}
	}
}

func TestFig7bAndCRun(t *testing.T) {
	for _, fn := range []func(Config, func(string)) (*Table, error){Fig7b, Fig7c} {
		tab, err := fn(tinyConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tab.Params {
			a := tab.Cells[disqo.Canonical][p]
			b := tab.Cells[disqo.Unnested][p]
			if a.Err != nil || b.Err != nil {
				t.Fatalf("errors at %s: %v / %v", p, a.Err, b.Err)
			}
			if a.Rows != b.Rows {
				t.Errorf("%s row mismatch at %s: %d vs %d", tab.ID, p, a.Rows, b.Rows)
			}
		}
	}
}

func TestTreeLinearQuantified(t *testing.T) {
	for _, id := range []string{"tree", "linear", "quant"} {
		tab, err := Run(id, tinyConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Params) != 3 {
			t.Errorf("%s params = %v", id, tab.Params)
		}
		for _, p := range tab.Params {
			a := tab.Cells[disqo.Canonical][p]
			b := tab.Cells[disqo.Unnested][p]
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s errors at %s: %v / %v", id, p, a.Err, b.Err)
			}
			if a.Rows != b.Rows {
				t.Errorf("%s row mismatch at %s: %d vs %d", id, p, a.Rows, b.Rows)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", tinyConfig(), nil); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFormatAndTimeouts(t *testing.T) {
	tab := newTable("x", "demo", nil)
	tab.set(disqo.Canonical, "SF1", Cell{Seconds: 1.234, Rows: 10})
	tab.set(disqo.Canonical, "SF5", Cell{TimedOut: true})
	tab.set(disqo.Unnested, "SF1", Cell{Seconds: 0.001, Rows: 10})
	out := tab.Format()
	if !strings.Contains(out, "n/a") || !strings.Contains(out, "1.23") {
		t.Errorf("Format:\n%s", out)
	}
	if !strings.Contains(out, "canonical") || !strings.Contains(out, "unnested") {
		t.Errorf("Format rows:\n%s", out)
	}
}

func TestFormatSeconds(t *testing.T) {
	if formatSeconds(123.4) != "123" {
		t.Error("large")
	}
	if formatSeconds(1.5) != "1.50" {
		t.Error("mid")
	}
	if formatSeconds(0.01234) != "0.0123" {
		t.Error("small")
	}
}

func TestSpeedups(t *testing.T) {
	tab := newTable("x", "demo", nil)
	tab.set(disqo.Canonical, "p", Cell{Seconds: 2.0})
	tab.set(disqo.Unnested, "p", Cell{Seconds: 0.5})
	sp := tab.Speedups()
	if math.Abs(sp["p"]-4) > 1e-9 {
		t.Errorf("speedup = %v", sp)
	}
}

func TestTimeoutCellsBecomeNA(t *testing.T) {
	cfg := Config{
		RSTScale:   0.05,
		Strategies: []disqo.Strategy{disqo.S1},
		Timeout:    time.Millisecond,
	}
	db, _ := disqo.Open()
	if err := db.LoadRST(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Directly exercise measure with a giant query and a tiny timeout.
	c := measure(db, Q1, disqo.S1, cfg)
	if !c.TimedOut {
		t.Skip("machine too fast for 1ms timeout; skipping")
	}
}

func TestAblationRuns(t *testing.T) {
	cfg := Config{RSTScale: 0.002, Timeout: 30 * time.Second}
	tab, err := Run("ablation", cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]bool{}
	for _, s := range tab.Strats {
		variants[string(s)] = true
	}
	for _, want := range []string{"canonical", "unnested", "costbased"} {
		if !variants[want] {
			t.Errorf("missing variant %s", want)
		}
	}
	// All finishing variants must agree on the row count per point.
	for _, p := range tab.Params {
		rows := -1
		for _, s := range tab.Strats {
			c := tab.Cells[s][p]
			if c.Err != nil {
				t.Fatalf("%s/%s: %v", s, p, c.Err)
			}
			if c.TimedOut || c.OverMem {
				continue
			}
			if rows == -1 {
				rows = c.Rows
			} else if rows != c.Rows {
				t.Errorf("%s/%s rows = %d, others %d", s, p, c.Rows, rows)
			}
		}
	}
}

// TestForcedEqv5FitsTheBudget: Eqv. 5 on Q2 at RST SF 1 (10 000 rows a
// table) used to build the |R|·|σ¬p(S)| ≈ 3·10⁷ complement pairs and
// abort on the harness's 20 M-tuple budget; the tagged form holds the
// inputs and one output row per outer tuple, so plain unnesting completes
// under a budget four hundred times smaller and agrees with (unbudgeted)
// canonical evaluation.
func TestForcedEqv5FitsTheBudget(t *testing.T) {
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: 1, SFS: 1, SFT: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Timeout: time.Minute, MaxTuples: 50_000}
	unnested := measureVariant(cat, Q2, "unnested", cfg)
	if unnested.Err != nil || unnested.OverMem || unnested.TimedOut {
		t.Fatalf("Eqv. 5 under a %d-tuple budget: %+v", cfg.MaxTuples, unnested)
	}
	if testutil.RaceEnabled {
		return // canonical nested loops over 10⁸ pairs take most of a minute under -race
	}
	if canonical := measureVariant(cat, Q2, "canonical", Config{Timeout: time.Minute}); canonical.Err != nil || canonical.Rows != unnested.Rows {
		t.Errorf("canonical returns %+v, unnested %d rows", canonical, unnested.Rows)
	}
}

// TestClassifyCellOverloaded pins the admission-shedding contract: a
// query the gate sheds is recorded aborted (transient back-pressure),
// never as a failed cell.
func TestClassifyCellOverloaded(t *testing.T) {
	c := classifyCell(fmt.Errorf("query wrapper: %w", disqo.ErrOverloaded))
	if !c.Aborted {
		t.Fatal("ErrOverloaded must classify as Aborted")
	}
	if c.TimedOut || c.OverMem || c.Err == nil {
		t.Fatalf("unexpected classification: %+v", c)
	}
}
