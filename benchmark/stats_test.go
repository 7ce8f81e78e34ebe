package main

import (
	"math"
	"testing"

	"disqo"
	"disqo/internal/types"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 30}, {0.9, 50}, {0.2, 10}, {0.21, 20}, {1, 50}, {0.0001, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), tc.p); got != tc.want {
			t.Errorf("percentile(p=%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// Ten samples: p90 is the ninth, so exactly one sample lies beyond it.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	rounds := [][]float64{
		{12, 13, 40}, // a burst in the tail does not move the round's median
		{10, 11, 12},
		nil, // a round without samples of the class is skipped
		{30, 31, 32},
	}
	// Per-round medians are 13, 11 and 31: the middle one is reported,
	// not the quietest round's 11 and not the pooled median 13 of nine
	// samples, which a fourth slow round would move to 30.
	if got := medianOfRounds(rounds, p50); got != 13 {
		t.Errorf("median of rounds = %g, want 13", got)
	}
	// One disturbed round in six moves neither of the two middle rounds.
	p90 := func(xs []float64) float64 { return percentile(xs, 0.9) }
	six := [][]float64{{1, 2}, {1, 2}, {1, 90}, {1, 3}, {1, 2}, {1, 3}}
	if got := medianOfRounds(six, p90); got != 2.5 {
		t.Errorf("median of six rounds' p90 = %g, want 2.5", got)
	}
	if got := medianOfRounds(nil, p50); got != 0 {
		t.Errorf("median of no rounds = %g, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %g, want 4", got)
	}
	// Classes without samples report 0 and must not zero the mean.
	if got := geomean([]float64{0, 2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(0, 2, 8) = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %g, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4),
// whose default method is exclusive.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20, 40, 80, 160})
	if q1 != 15 || q3 != 120 {
		t.Errorf("quartiles(10 20 40 80 160) = %g, %g, want 15, 120", q1, q3)
	}
}

// The Eqv. 5 plan shape: the numbered outer stream feeds both the binary
// grouping and, through the bypass join, the grouping's other input. It
// is evaluated once; only its first parent pays for it.
func TestSelfTimesSharedNode(t *testing.T) {
	ops := []opWall{
		{id: 0, wall: 100, children: []int{1, 2}}, // Γ²
		{id: 1, wall: 10, children: []int{5}},     // ν, shared
		{id: 2, wall: 70, children: []int{3}},     // rename/project chain
		{id: 3, wall: 60, children: []int{1, 4}},  // ⋈±, also reads ν
		{id: 4, wall: 5},                          // inner scan
		{id: 5, wall: 4},                          // outer scan
	}
	self := selfTimes(ops)
	want := map[int]float64{0: 20, 1: 6, 2: 10, 3: 55, 4: 5, 5: 4}
	sum := 0.0
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %g, want %g", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != ops[0].wall {
		t.Errorf("self times sum to %g, want the root's %g", sum, ops[0].wall)
	}
}

func TestOperatorClass(t *testing.T) {
	for label, want := range map[string]string{
		"Scan(r)":                      "scan",
		"Filter[r.a4 > 1500]":          "select",
		"Filter±[r.a4 > 1500]":         "bypass_select",
		"HashJoin[r.a2=s.b2]":          "join",
		"HashJoin(semi)[r.a2=s.b2]":    "join",
		"NLJoin[cross]":                "join",
		"HashOuterJoin[r.a2=s.b2]":     "outer_join",
		"NLOuterJoin[r.a2 < s.b2]":     "outer_join",
		"BypassJoin(hash+)[r.a2=s.b2]": "bypass_join",
		"HashGroup[global][COUNT(*)]":  "group",
		"HashBinaryGroup[t=t2][COUNT]": "binary_group",
		"NLBinaryGroup[t=t2][COUNT]":   "binary_group",
		"Map[g:COUNT]":                 "map",
		"Number[t]":                    "map",
		"Project(a1,a2)":               "project",
		"Rename(t2)":                   "project",
		"UnionDisjoint":                "union",
		"UnionAll":                     "union",
		"Distinct":                     "distinct",
		"Sort[s_acctbal DESC]":         "sort",
		"Limit[10]":                    "sort",
		"Stream+":                      "",
	} {
		if got := operatorClass(label); got != want {
			t.Errorf("operatorClass(%q) = %q, want %q", label, got, want)
		}
	}
}

func TestFingerprintIgnoresOrderAndCountsDuplicates(t *testing.T) {
	row := func(vs ...disqo.Value) []disqo.Value { return vs }
	a := row(types.NewInt(1), types.NewString("x"), types.Null())
	b := row(types.NewInt(2), types.NewFloat(2.5), types.NewBool(true))
	if fingerprint([][]disqo.Value{a, b}) != fingerprint([][]disqo.Value{b, a}) {
		t.Error("fingerprint depends on row order")
	}
	if fingerprint([][]disqo.Value{a, b}) == fingerprint([][]disqo.Value{a, b, b}) {
		t.Error("fingerprint ignores a duplicate row")
	}
	if fingerprint([][]disqo.Value{a}) == fingerprint([][]disqo.Value{b}) {
		t.Error("different rows share a fingerprint")
	}
	// An integer and the float of the same value are different results.
	if fingerprint([][]disqo.Value{row(types.NewInt(2))}) == fingerprint([][]disqo.Value{row(types.NewFloat(2))}) {
		t.Error("fingerprint confuses 2 and 2.0")
	}
}
