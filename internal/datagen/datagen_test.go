package datagen

import (
	"slices"
	"strings"
	"testing"

	"disqo/internal/catalog"
	"disqo/internal/types"
)

func TestRngDeterminismAndRange(t *testing.T) {
	a, b := newRng(7), newRng(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix64 not deterministic")
		}
	}
	r := newRng(1)
	for i := 0; i < 1000; i++ {
		if v := r.intn(10); v < 0 || v >= 10 {
			t.Fatalf("intn out of range: %d", v)
		}
		if f := r.float(); f < 0 || f >= 1 {
			t.Fatalf("float out of range: %g", f)
		}
	}
	if newRng(1).intn(0) != 0 {
		t.Error("intn(0) must be 0")
	}
}

func TestLoadRSTSizesAndDistributions(t *testing.T) {
	cat := catalog.New()
	if err := LoadRST(cat, RSTConfig{SFR: 0.1, SFS: 0.5, SFT: 1}); err != nil {
		t.Fatal(err)
	}
	r, _ := cat.Lookup("r")
	s, _ := cat.Lookup("s")
	tt, _ := cat.Lookup("t")
	if r.Rel.Cardinality() != 1000 || s.Rel.Cardinality() != 5000 || tt.Rel.Cardinality() != 10000 {
		t.Fatalf("sizes = %d/%d/%d", r.Rel.Cardinality(), s.Rel.Cardinality(), tt.Rel.Cardinality())
	}
	// x4 > 1500 should keep roughly half.
	over := 0
	for _, row := range r.Rel.Tuples {
		if row[3].Int() > 1500 {
			over++
		}
	}
	frac := float64(over) / 1000
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("a4>1500 selectivity = %g, want ≈0.5", frac)
	}
	// Correlation domain is rows/10.
	if d := r.ColumnStats(r.Rel.Schema.Index("r.a2")).Distinct; d < 80 || d > 100 {
		t.Errorf("a2 distinct = %d, want ≈100", d)
	}
}

func TestLoadRSTDeterministic(t *testing.T) {
	c1, c2 := catalog.New(), catalog.New()
	LoadRST(c1, RSTConfig{SFR: 0.05, SFS: 0.05, SFT: 0.05})
	LoadRST(c2, RSTConfig{SFR: 0.05, SFS: 0.05, SFT: 0.05})
	r1, _ := c1.Lookup("r")
	r2, _ := c2.Lookup("r")
	for i := range r1.Rel.Tuples {
		if !slices.EqualFunc(r1.Rel.Tuples[i], r2.Rel.Tuples[i], types.Identical) {
			t.Fatal("RST generation not deterministic")
		}
	}
}

func TestLoadRSTValidation(t *testing.T) {
	if err := LoadRST(catalog.New(), RSTConfig{}); err == nil {
		t.Error("zero scale factors must error")
	}
}

func TestLoadTPCHQuery2dTables(t *testing.T) {
	cat := catalog.New()
	if err := LoadTPCH(cat, TPCHConfig{SF: 0.01}); err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"region": 5, "nation": 25, "supplier": 100, "part": 2000, "partsupp": 8000,
	}
	for name, want := range checks {
		tbl, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Rel.Cardinality(); got != want {
			t.Errorf("%s rows = %d, want %d", name, got, want)
		}
	}
	if _, err := cat.Lookup("lineitem"); err == nil {
		t.Error("lineitem must not be generated by default")
	}
	// Every partsupp row must reference existing keys.
	ps, _ := cat.Lookup("partsupp")
	for _, row := range ps.Rel.Tuples {
		if p := row[0].Int(); p < 1 || p > 2000 {
			t.Fatalf("dangling ps_partkey %d", p)
		}
		if s := row[1].Int(); s < 1 || s > 100 {
			t.Fatalf("dangling ps_suppkey %d", s)
		}
	}
	// A part has 4 distinct suppliers.
	suppliers := map[int64]map[int64]bool{}
	for _, row := range ps.Rel.Tuples {
		p := row[0].Int()
		if suppliers[p] == nil {
			suppliers[p] = map[int64]bool{}
		}
		suppliers[p][row[1].Int()] = true
	}
	for p, set := range suppliers {
		if len(set) != 4 {
			t.Fatalf("part %d has %d distinct suppliers, want 4", p, len(set))
		}
	}
}

func TestTPCHSelectivityAnchors(t *testing.T) {
	cat := catalog.New()
	if err := LoadTPCH(cat, TPCHConfig{SF: 0.05}); err != nil {
		t.Fatal(err)
	}
	part, _ := cat.Lookup("part")
	brass, size15 := 0, 0
	for _, row := range part.Rel.Tuples {
		if strings.HasSuffix(row[4].Str(), "BRASS") {
			brass++
		}
		if row[5].Int() == 15 {
			size15++
		}
	}
	n := float64(part.Rel.Cardinality())
	if f := float64(brass) / n; f < 0.15 || f > 0.25 {
		t.Errorf("%%BRASS fraction = %g, want ≈0.2", f)
	}
	if f := float64(size15) / n; f < 0.01 || f > 0.04 {
		t.Errorf("size=15 fraction = %g, want ≈0.02", f)
	}
	// EUROPE nations exist and suppliers cover them.
	nation, _ := cat.Lookup("nation")
	europe := 0
	for _, row := range nation.Rel.Tuples {
		if row[2].Int() == 3 {
			europe++
		}
	}
	if europe != 5 {
		t.Errorf("EUROPE nations = %d, want 5", europe)
	}
}

func TestLoadTPCHFullSchema(t *testing.T) {
	cat := catalog.New()
	if err := LoadTPCH(cat, TPCHConfig{SF: 0.001, Tables: TPCHAllTables}); err != nil {
		t.Fatal(err)
	}
	for _, name := range TPCHAllTables {
		tbl, err := cat.Lookup(name)
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if tbl.Rel.Cardinality() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	// lineitem references valid orders.
	li, _ := cat.Lookup("lineitem")
	ord, _ := cat.Lookup("orders")
	maxOrder := int64(ord.Rel.Cardinality())
	for _, row := range li.Rel.Tuples {
		if k := row[0].Int(); k < 1 || k > maxOrder {
			t.Fatalf("dangling l_orderkey %d", k)
		}
	}
}

func TestLoadTPCHValidation(t *testing.T) {
	if err := LoadTPCH(catalog.New(), TPCHConfig{}); err == nil {
		t.Error("zero SF must error")
	}
}

func TestLoadTPCHDeterministic(t *testing.T) {
	c1, c2 := catalog.New(), catalog.New()
	LoadTPCH(c1, TPCHConfig{SF: 0.01})
	LoadTPCH(c2, TPCHConfig{SF: 0.01})
	s1, _ := c1.Lookup("supplier")
	s2, _ := c2.Lookup("supplier")
	for i := range s1.Rel.Tuples {
		if !slices.EqualFunc(s1.Rel.Tuples[i], s2.Rel.Tuples[i], types.Identical) {
			t.Fatal("TPC-H generation not deterministic")
		}
	}
}
