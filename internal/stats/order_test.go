package stats

import (
	"testing"

	"disqo/internal/agg"
	"disqo/internal/algebra"
	"disqo/internal/types"
)

// operand is one AND/OR operand as the ordering rule sees it: the share
// of rows it keeps and its per-row cost.
type operand struct{ s, c float64 }

// shortCircuitCost is the expected per-row cost of evaluating ops in
// order, each only over the rows the earlier ones left undecided.
func shortCircuitCost(ops []operand, or bool) float64 {
	cost, undecided := 0.0, 1.0
	for _, o := range ops {
		cost += undecided * o.c
		if or {
			undecided *= 1 - o.s
		} else {
			undecided *= o.s
		}
	}
	return cost
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestOrderMinimizesExpectedCost pins the ordering rule against brute
// force: for every list of up to four operands drawn from a grid of
// selectivities and costs, the order sortByKey picks by decidedPerCost
// costs, in expectation, the least of all the list's orders — for AND
// and for OR.
func TestOrderMinimizesExpectedCost(t *testing.T) {
	var grid []operand
	for _, s := range []float64{0, .1, .5, .9, 1} {
		for _, c := range []float64{.1, 1, 10, 100} {
			grid = append(grid, operand{s, c})
		}
	}
	pool := make([]algebra.Expr, 4)
	index := map[algebra.Expr]int{}
	for i := range pool {
		pool[i] = algebra.ConstInt(int64(i))
		index[pool[i]] = i
	}
	perms := make([][][]int, len(pool)+1)
	for n := range perms {
		perms[n] = permutations(n)
	}
	ops, chosen := make([]operand, len(pool)), make([]operand, len(pool))
	keys := make([]float64, len(pool))
	checked := 0
	var each func(list []operand)
	each = func(list []operand) {
		if n := len(list); n > 0 {
			for _, or := range []bool{false, true} {
				parts := append([]algebra.Expr{}, pool[:n]...)
				for i, o := range list {
					keys[i] = decidedPerCost(o.s, o.c, or)
				}
				sortByKey(parts, keys[:n])
				for i, p := range parts {
					chosen[i] = list[index[p]]
				}
				got, best := shortCircuitCost(chosen[:n], or), shortCircuitCost(list, or)
				for _, perm := range perms[n] {
					for i, j := range perm {
						ops[i] = list[j]
					}
					best = min(best, shortCircuitCost(ops[:n], or))
				}
				if got > best*(1+1e-12) {
					t.Fatalf("or=%v %v: chosen order %v costs %g, the best %g", or, list, chosen[:n], got, best)
				}
				checked++
			}
		}
		if len(list) == len(pool) {
			return
		}
		for _, o := range grid {
			each(append(list[:len(list):len(list)], o))
		}
	}
	each(nil)
	if want := 2 * (20 + 20*20 + 20*20*20 + 20*20*20*20); checked != want {
		t.Fatalf("checked %d lists, want %d", checked, want)
	}
}

// TestOrderAtFormerSites puts Order on the predicates where the rules it
// replaced disagreed. The bypass cascade and S3 sorted an OR's operands
// ascending by the conjunctive rank (sel−1)/cost; the compiled programs
// sorted them descending by sel/cost and looked through NOT. Each case
// checks the order Order picks and that its expected cost undercuts the
// order the replaced rule picked.
func TestOrderAtFormerSites(t *testing.T) {
	cat, r, s := fixture(t)
	e := New(cat)
	col, num := algebra.Col, algebra.ConstInt
	every := algebra.Cmp(types.GT, col("r.a1"), num(-1)) // keeps every row
	corr := algebra.NewSelect(s, algebra.Cmp(types.EQ, col("r.a2"), col("s.b2")))
	sub := algebra.Cmp(types.EQ, col("r.a1"), algebra.Subquery(agg.Spec{Kind: agg.Count, Star: true}, nil, corr))
	few := algebra.Cmp(types.GT, col("r.a1"), num(89))   // ≈ 0.1
	most := algebra.Cmp(types.GT, col("r.a1"), num(9))   // ≈ 0.9
	narrow := algebra.Cmp(types.EQ, col("r.a2"), num(3)) // 0.1

	cost := func(parts ...algebra.Expr) float64 {
		ops := make([]operand, len(parts))
		for i, p := range parts {
			ops[i] = operand{e.Selectivity(p, r), e.PredCost(p)}
		}
		return shortCircuitCost(ops, true)
	}
	t.Run("cascade", func(t *testing.T) {
		// Every a1 exceeds −1: bypassing the comparison first leaves the
		// subquery an empty negative stream (Eqv. 2); the conjunctive
		// rank ran the subquery on every row first (Eqv. 3).
		parts := []algebra.Expr{sub, every}
		e.OrderDisjuncts(parts, r)
		if parts[0] != every || parts[1] != sub {
			t.Fatalf("OrderDisjuncts = %v; want the comparison first", parts)
		}
		if now, was := cost(every, sub), cost(sub, every); now >= was {
			t.Errorf("expected cost %g, the replaced order's %g", now, was)
		}
	})
	t.Run("s3", func(t *testing.T) {
		// At equal cost the disjunct that accepts more rows goes first;
		// the conjunctive rank put the one that accepts fewer first. The
		// conjunction around it was already in order and keeps it.
		pred := algebra.And(narrow, algebra.Or(few, most))
		want := algebra.And(narrow, algebra.Or(most, few)).String()
		if got := e.Order(pred, r).String(); got != want {
			t.Fatalf("Order = %s; want %s", got, want)
		}
		if now, was := cost(most, few), cost(few, most); now >= was {
			t.Errorf("expected cost %g, the replaced order's %g", now, was)
		}
	})
	t.Run("vectorize", func(t *testing.T) {
		// The compiled programs' rule, now everyone's: through NOT and
		// IS TRUE, and the predicate itself back when nothing moves.
		pred := algebra.IsTrue(algebra.Not(algebra.Or(few, most)))
		want := algebra.IsTrue(algebra.Not(algebra.Or(most, few))).String()
		ordered := e.Order(pred, r)
		if got := ordered.String(); got != want {
			t.Fatalf("Order = %s; want %s", got, want)
		}
		if again := e.Order(ordered, r); again != ordered {
			t.Errorf("an ordered predicate came back rebuilt: %s", again)
		}
		if now, was := cost(most, few), cost(few, most); now >= was {
			t.Errorf("expected cost %g, the replaced order's %g", now, was)
		}
	})
}
