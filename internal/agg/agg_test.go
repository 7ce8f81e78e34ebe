package agg

import (
	"math/rand"
	"testing"

	"disqo/internal/types"
)

func feed(spec Spec, vals ...types.Value) types.Value {
	a := NewAcc(spec)
	for _, v := range vals {
		a.Add([]types.Value{v})
	}
	return a.Result()
}

func TestKindAndSpecStrings(t *testing.T) {
	if Count.String() != "COUNT" || Avg.String() != "AVG" {
		t.Error("Kind.String wrong")
	}
	s := Spec{Kind: Count, Distinct: true, Star: true}
	if s.String() != "COUNT(DISTINCT *)" {
		t.Errorf("Spec.String = %q", s.String())
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{Kind: Sum, Star: true}).Validate(); err == nil {
		t.Error("SUM(*) must be invalid")
	}
	if err := (Spec{Kind: Count, Star: true}).Validate(); err != nil {
		t.Errorf("COUNT(*) must validate: %v", err)
	}
}

func TestEmptyDefaults(t *testing.T) {
	if !types.Identical((Spec{Kind: Count}).Empty(), types.NewInt(0)) {
		t.Error("COUNT f(∅) must be 0")
	}
	for _, k := range []Kind{Sum, Avg, Min, Max} {
		if !(Spec{Kind: k}).Empty().IsNull() {
			t.Errorf("%s f(∅) must be NULL", k)
		}
	}
}

func TestAccBasics(t *testing.T) {
	i := types.NewInt
	if got := feed(Spec{Kind: Count}, i(1), types.Null(), i(3)); !types.Identical(got, i(2)) {
		t.Errorf("COUNT skips NULL: got %v", got)
	}
	if got := feed(Spec{Kind: Sum}, i(1), i(2), types.Null()); !types.Identical(got, i(3)) {
		t.Errorf("SUM = %v", got)
	}
	if got := feed(Spec{Kind: Avg}, i(1), i(2)); !types.Identical(got, types.NewFloat(1.5)) {
		t.Errorf("AVG = %v", got)
	}
	if got := feed(Spec{Kind: Min}, i(5), i(2), i(9)); !types.Identical(got, i(2)) {
		t.Errorf("MIN = %v", got)
	}
	if got := feed(Spec{Kind: Max}, i(5), i(2), i(9)); !types.Identical(got, i(9)) {
		t.Errorf("MAX = %v", got)
	}
}

func TestAccEmpty(t *testing.T) {
	if got := feed(Spec{Kind: Count}); !types.Identical(got, types.NewInt(0)) {
		t.Errorf("COUNT(∅) = %v", got)
	}
	for _, k := range []Kind{Sum, Avg, Min, Max} {
		if got := feed(Spec{Kind: k}); !got.IsNull() {
			t.Errorf("%s(∅) = %v, want NULL", k, got)
		}
	}
	// All-NULL input behaves like empty.
	if got := feed(Spec{Kind: Sum}, types.Null(), types.Null()); !got.IsNull() {
		t.Errorf("SUM(all NULL) = %v", got)
	}
}

func TestAccDistinct(t *testing.T) {
	i := types.NewInt
	if got := feed(Spec{Kind: Count, Distinct: true}, i(1), i(1), i(2)); !types.Identical(got, i(2)) {
		t.Errorf("COUNT(DISTINCT) = %v", got)
	}
	if got := feed(Spec{Kind: Sum, Distinct: true}, i(3), i(3), i(4)); !types.Identical(got, i(7)) {
		t.Errorf("SUM(DISTINCT) = %v", got)
	}
	if got := feed(Spec{Kind: Avg, Distinct: true}, i(2), i(2), i(4)); !types.Identical(got, types.NewFloat(3)) {
		t.Errorf("AVG(DISTINCT) = %v", got)
	}
}

func TestCountStar(t *testing.T) {
	a := NewAcc(Spec{Kind: Count, Star: true})
	a.Add([]types.Value{types.Null(), types.Null()}) // all-NULL row still counts
	a.Add([]types.Value{types.NewInt(1), types.NewInt(2)})
	if got := a.Result(); !types.Identical(got, types.NewInt(2)) {
		t.Errorf("COUNT(*) = %v", got)
	}
}

func TestCountDistinctStar(t *testing.T) {
	a := NewAcc(Spec{Kind: Count, Distinct: true, Star: true})
	row1 := []types.Value{types.NewInt(1), types.NewInt(2)}
	row2 := []types.Value{types.NewInt(1), types.NewInt(3)}
	a.Add(row1)
	a.Add(row1)
	a.Add(row2)
	if got := a.Result(); !types.Identical(got, types.NewInt(2)) {
		t.Errorf("COUNT(DISTINCT *) = %v", got)
	}
}

func TestSumPromotesToFloat(t *testing.T) {
	got := feed(Spec{Kind: Sum}, types.NewInt(1), types.NewFloat(0.5))
	if !types.Identical(got, types.NewFloat(1.5)) {
		t.Errorf("mixed SUM = %v", got)
	}
	// Int-only stays integral.
	got = feed(Spec{Kind: Sum}, types.NewInt(1), types.NewInt(2))
	if got.Kind() != types.KindInt {
		t.Errorf("int SUM kind = %v", got.Kind())
	}
}

// TestOverlayEqualsFreshFold: for every spec, overlays of one base give
// what a fresh accumulator folded over base‖own gives — with duplicates
// straddling base and own, NULL arguments, int→float promotion on either
// side, an empty base, and several overlays sharing the base, which must
// come through untouched.
func TestOverlayEqualsFreshFold(t *testing.T) {
	var specs []Spec
	for _, k := range []Kind{Count, Sum, Avg, Min, Max} {
		for _, d := range []bool{false, true} {
			specs = append(specs, Spec{Kind: k, Distinct: d})
		}
	}
	specs = append(specs, Spec{Kind: Count, Star: true}, Spec{Kind: Count, Star: true, Distinct: true})

	rng := rand.New(rand.NewSource(7))
	draw := func(spec Spec, n int) [][]types.Value {
		out := make([][]types.Value, n)
		for i := range out {
			v := func() types.Value {
				switch r := rng.Intn(8); {
				case r == 0:
					return types.Null()
				case r == 1:
					return types.NewFloat(float64(rng.Intn(4)) + 0.5)
				default:
					return types.NewInt(int64(rng.Intn(4)))
				}
			}
			if spec.Star {
				out[i] = []types.Value{v(), v()} // all-NULL rows still count
			} else {
				out[i] = []types.Value{v()}
			}
		}
		return out
	}
	fold := func(a *Acc, rows [][]types.Value) *Acc {
		for _, r := range rows {
			a.Add(r)
		}
		return a
	}
	for _, spec := range specs {
		for _, nBase := range []int{0, 1, 12} {
			baseRows := draw(spec, nBase)
			base := fold(NewAcc(spec), baseRows)
			before := base.Result()
			for trial := 0; trial < 20; trial++ {
				own := draw(spec, rng.Intn(10))
				got := fold(Overlay(base), own).Result()
				want := fold(fold(NewAcc(spec), baseRows), own).Result()
				if !types.Identical(got, want) {
					t.Fatalf("%s: overlay of %v with %v = %v, fresh fold = %v", spec, baseRows, own, got, want)
				}
			}
			if after := base.Result(); !types.Identical(before, after) || (base.seen != nil && base.seen.Len() > nBase) {
				t.Fatalf("%s: overlays changed their base: %v → %v", spec, before, after)
			}
		}
	}
}

// TestDistinctAddRetainsItsArgument: a DISTINCT accumulator keeps the
// slice it is handed instead of copying it — a thousand new arguments
// cost the set's growth steps, not an allocation each — and duplicates
// cost nothing.
func TestDistinctAddRetainsItsArgument(t *testing.T) {
	rows := make([][]types.Value, 1000)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
	}
	spec := Spec{Kind: Count, Star: true, Distinct: true}
	if got := testing.AllocsPerRun(10, func() {
		a := NewAcc(spec)
		for _, r := range rows {
			a.Add(r)
		}
	}); got > 20 {
		t.Errorf("1000 distinct arguments made %.0f allocations; Add is allocating per argument", got)
	}
	a := NewAcc(spec)
	for _, r := range rows {
		a.Add(r)
	}
	if got := testing.AllocsPerRun(10, func() {
		for _, r := range rows {
			a.Add(r)
		}
	}); got != 0 {
		t.Errorf("1000 duplicate arguments made %.0f allocations, want none", got)
	}
	if &a.seen.Row(3)[0] != &rows[3][0] {
		t.Error("the DISTINCT set holds a copy of its argument, not the argument")
	}
}
