// Package strategy states once what every evaluation strategy does: how
// it turns the canonical translation into the plan to lower, and how
// much of that plan the executor memoizes. The root package offers the
// product rows by name; the baselines S1–S3, models of the paper's
// anonymized commercial systems, are rows only the figure harness names.
package strategy

import (
	"fmt"
	"strings"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/rewrite"
	"disqo/internal/stats"
)

// The strategy names, untyped so that disqo.Strategy takes them.
const (
	Unnested  = "unnested"  // the paper's full rewrite set (Eqv. 1–5)
	Canonical = "canonical" // the canonical nested plan
	CostBased = "costbased" // the cheapest by estimate of canonical, reordered and unnested
	S1        = "s1"        // the canonical plan with nothing memoized
	S2        = "s2"        // OR-expansion and conjunctive unnesting, no disjunctive unnesting
	S3        = "s3"        // operands ordered for short-circuiting (stats.Estimator.Order), no decorrelation
)

// A Row is one strategy.
type Row struct {
	Name string
	// Plan turns the canonical translation into the plan to lower and
	// returns it with the rewrite trace; nil runs the canonical plan as
	// it is, and EXPLAIN then shows no optimized plan.
	Plan func(src catalog.Reader, est *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error)
	// Cache is how much of the plan the executor memoizes. Conventional
	// engines keep base-table pages resident (CacheScans) but rebuild
	// intermediate results per outer tuple.
	Cache exec.CacheMode
	// Baseline marks a model of a commercial system: measured against,
	// not offered as a setting.
	Baseline bool
}

var rows = []Row{
	{Name: Canonical, Cache: exec.CacheScans},
	{Name: Unnested, Plan: unnest, Cache: exec.CacheAll},
	{Name: CostBased, Plan: costBased, Cache: exec.CacheAll},
	{Name: S1, Cache: exec.CacheNone, Baseline: true},
	{Name: S2, Plan: orExpand, Cache: exec.CacheScans, Baseline: true},
	{Name: S3, Plan: reorder, Cache: exec.CacheScans, Baseline: true},
}

// Rows lists every strategy, the product ones first. The slice is
// shared: do not modify it.
func Rows() []Row { return rows }

// Lookup finds a strategy by name; the error of an unknown one names
// every row.
func Lookup(name string) (Row, error) {
	for _, r := range rows {
		if r.Name == name {
			return r, nil
		}
	}
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	return Row{}, fmt.Errorf("unknown strategy %q (have %s)", name, strings.Join(names, ", "))
}

// Systems lists the paper's five systems in presentation order, the
// figure harness's default.
func Systems() []string { return []string{S1, S2, S3, Canonical, Unnested} }

func unnest(src catalog.Reader, _ *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error) {
	return rewriteWith(src, canonical, rewrite.AllCaps())
}

func orExpand(src catalog.Reader, _ *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error) {
	return rewriteWith(src, canonical, rewrite.Caps{ORExpansion: true})
}

func rewriteWith(src catalog.Reader, canonical algebra.Op, caps rewrite.Caps) (algebra.Op, []string, error) {
	rw := rewrite.New(src, caps)
	plan, err := rw.Rewrite(canonical)
	return plan, rw.Trace, err
}

func reorder(_ catalog.Reader, est *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error) {
	plan, n, err := rewrite.Reorder(canonical, est)
	var trace []string
	if n > 0 {
		trace = []string{fmt.Sprintf("reordered %d predicates by rank", n)}
	}
	return plan, trace, err
}

// costBased compares the estimated cost of the canonical plan, the
// reordered plan (S3's), and the fully unnested plan, and returns the
// cheapest; only the unnested candidate brings a trace of its own.
func costBased(src catalog.Reader, est *stats.Estimator, canonical algebra.Op) (algebra.Op, []string, error) {
	unnested, trace, err := unnest(src, est, canonical)
	if err != nil {
		return nil, nil, err
	}
	reordered, _, err := rewrite.Reorder(canonical, est)
	if err != nil {
		return nil, nil, err
	}
	names := [...]string{"canonical", "reordered", "unnested"}
	plans := [...]algebra.Op{canonical, reordered, unnested}
	var costs [len(plans)]float64
	best := 0
	for i, p := range plans {
		if costs[i] = est.PlanCost(p); costs[i] < costs[best] {
			best = i
		}
	}
	if names[best] != "unnested" {
		trace = nil
	}
	trace = append(append([]string(nil), trace...), fmt.Sprintf(
		"cost-based choice: %s (canonical=%.3g, reordered=%.3g, unnested=%.3g)",
		names[best], costs[0], costs[1], costs[2]))
	return plans[best], trace, nil
}
