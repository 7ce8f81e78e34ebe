// Package harness regenerates the paper's evaluation artifacts: the
// three timing tables of Fig. 7 (Q1 on RST, Query 2d on TPC-H, Q2 on
// RST), plus the technical report's linear/tree and quantified-subquery
// experiments. Each experiment sweeps dataset sizes and evaluates every
// strategy with a per-cell timeout, printing a paper-style table where
// timed-out cells read "n/a" — the paper's six-hour cutoff in miniature.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"disqo"
	"disqo/internal/telemetry"
)

// Q1, Q2, Q3, Q4 are the paper's example queries (§3); Query2d is the
// disjunctive TPC-H Q2 variant from the introduction.
const (
	Q1 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	         OR a4 > 1500`
	Q2 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)`
	Q3 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	         OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`
	Q4 = `SELECT DISTINCT * FROM r
	      WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
	                   OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))`
	Query2d = `SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
	           FROM part, supplier, partsupp, nation, region
	           WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	             AND p_size = 15 AND p_type LIKE '%BRASS'
	             AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	             AND r_name = 'EUROPE'
	             AND (ps_supplycost = (SELECT MIN(ps_supplycost)
	                                   FROM partsupp, supplier, nation, region
	                                   WHERE s_suppkey = ps_suppkey
	                                     AND p_partkey = ps_partkey
	                                     AND s_nationkey = n_nationkey
	                                     AND n_regionkey = r_regionkey
	                                     AND r_name = 'EUROPE')
	                  OR ps_availqty > 2000)
	           ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`
	QuantExists = `SELECT DISTINCT * FROM r
	               WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 2500)
	                  OR a4 > 1500`
)

// Config tunes an experiment run.
type Config struct {
	// Timeout per cell; zero means none. Timed-out cells print "n/a".
	Timeout time.Duration
	// RSTScale multiplies the paper's RST scale factors (1, 5, 10). The
	// paper's SF 1 is 10,000 rows; the default 0.1 keeps canonical
	// baselines tractable on one core. Results compare growth ratios, so
	// the multiplier cancels out of the shapes.
	RSTScale float64
	// TPCHSFs are the TPC-H scale factors swept by Fig. 7(b).
	TPCHSFs []float64
	// Strategies to evaluate; defaults to all five.
	Strategies []disqo.Strategy
	// Repeat re-runs each cell and keeps the minimum (noise control).
	Repeat int
	// MaxTuples bounds per-query materialization; exceeding it marks the
	// cell "mem" (default 20 million tuples ≈ a few GB).
	MaxTuples int64
	// Workers is the morsel-parallel pool size passed to every query;
	// zero uses the engine default (GOMAXPROCS).
	Workers int
	// OpBreakdown re-runs each finished cell once with metrics enabled
	// and attaches a per-operator breakdown (Cell.Ops). The extra run is
	// separate so instrumentation never pollutes the timed measurements.
	OpBreakdown bool
	// Ctx cancels the remaining work of a sweep: each query runs under
	// it, and a cell cut short by cancellation is recorded Aborted —
	// distinct from a timeout, which is a property of the cell itself.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.RSTScale == 0 {
		c.RSTScale = 0.1
	}
	if len(c.TPCHSFs) == 0 {
		c.TPCHSFs = []float64{0.01, 0.02, 0.05}
	}
	if len(c.Strategies) == 0 {
		c.Strategies = disqo.Strategies()
	}
	if c.Repeat == 0 {
		c.Repeat = 1
	}
	if c.MaxTuples == 0 {
		c.MaxTuples = 20_000_000
	}
	return c
}

// Cell is one measured table entry.
type Cell struct {
	Seconds  float64
	Rows     int
	TimedOut bool
	OverMem  bool
	// Aborted marks a cell cut short by external cancellation
	// (Config.Ctx) rather than by its own timeout or memory budget.
	Aborted bool
	Err     error
	// Ops is the per-operator breakdown from a separate metrics-enabled
	// run; set only under Config.OpBreakdown.
	Ops []OpBreakdown
	// Percentiles summarizes the cell's per-query latency distribution
	// (log2-bucketed, so each estimate is the upper bound of its bucket).
	// Present when the cell measured more than a single latency sample;
	// Seconds remains the historical headline (the minimum).
	Percentiles *Percentiles
}

// Percentiles is a cell's latency distribution summary in seconds,
// estimated from a log2-bucketed histogram of every sample the cell
// measured (all repeats).
type Percentiles struct {
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Samples int64   `json:"samples"`
}

// percentilesOf summarizes a histogram, or nil when it holds fewer than
// two samples (a single measurement has no distribution to report).
func percentilesOf(h *telemetry.Histogram) *Percentiles {
	if h.Count() < 2 {
		return nil
	}
	return &Percentiles{
		P50:     h.Quantile(0.50).Seconds(),
		P95:     h.Quantile(0.95).Seconds(),
		P99:     h.Quantile(0.99).Seconds(),
		Samples: h.Count(),
	}
}

// OpBreakdown is one physical operator's share of a cell's work.
type OpBreakdown struct {
	ID      int     `json:"id"`
	Op      string  `json:"op"`
	EstRows float64 `json:"est_rows"`
	Rows    int64   `json:"rows"`
	Calls   int64   `json:"calls"`
	Seconds float64 `json:"seconds"`
}

// Table is one experiment's output grid: strategies × parameter points.
type Table struct {
	ID, Title string
	Params    []string
	Strats    []disqo.Strategy
	Cells     map[disqo.Strategy]map[string]Cell
	// Meta records the measurement environment; set by the caller
	// (cmd/bench stamps every table before writing JSON).
	Meta *RunMeta
}

func newTable(id, title string, strats []disqo.Strategy) *Table {
	return &Table{ID: id, Title: title, Strats: strats,
		Cells: make(map[disqo.Strategy]map[string]Cell)}
}

func (t *Table) set(s disqo.Strategy, param string, c Cell) {
	if t.Cells[s] == nil {
		t.Cells[s] = make(map[string]Cell)
		t.Strats = appendUnique(t.Strats, s)
	}
	if !contains(t.Params, param) {
		t.Params = append(t.Params, param)
	}
	t.Cells[s][param] = c
}

func appendUnique(ss []disqo.Strategy, s disqo.Strategy) []disqo.Strategy {
	for _, x := range ss {
		if x == s {
			return ss
		}
	}
	return append(ss, s)
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// JSON renders the table as a machine-readable document: experiment id,
// title, and one object per (system, parameter) cell.
func (t *Table) JSON() ([]byte, error) {
	type cellJSON struct {
		System      string        `json:"system"`
		Param       string        `json:"param"`
		Seconds     float64       `json:"seconds,omitempty"`
		Rows        int           `json:"rows"`
		TimedOut    bool          `json:"timed_out,omitempty"`
		OverMem     bool          `json:"over_memory,omitempty"`
		Aborted     bool          `json:"aborted,omitempty"`
		Error       string        `json:"error,omitempty"`
		Ops         []OpBreakdown `json:"ops,omitempty"`
		Percentiles *Percentiles  `json:"percentiles,omitempty"`
	}
	doc := struct {
		ID    string     `json:"experiment"`
		Title string     `json:"title"`
		Meta  *RunMeta   `json:"meta,omitempty"`
		Cells []cellJSON `json:"cells"`
	}{ID: t.ID, Title: t.Title, Meta: t.Meta}
	for _, s := range t.Strats {
		for _, p := range t.Params {
			c, ok := t.Cells[s][p]
			if !ok {
				continue
			}
			cj := cellJSON{System: string(s), Param: p, Seconds: c.Seconds,
				Rows: c.Rows, TimedOut: c.TimedOut, OverMem: c.OverMem,
				Aborted: c.Aborted, Ops: c.Ops, Percentiles: c.Percentiles}
			if c.Err != nil {
				cj.Error = c.Err.Error()
			}
			doc.Cells = append(doc.Cells, cj)
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Format renders the table in the paper's layout: one row per system,
// one column per parameter point, seconds with "n/a" for timeouts.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	width := 10
	fmt.Fprintf(&b, "%-12s", "system")
	for _, p := range t.Params {
		fmt.Fprintf(&b, "%*s", width, p)
	}
	b.WriteByte('\n')
	for _, s := range t.Strats {
		fmt.Fprintf(&b, "%-12s", string(s))
		for _, p := range t.Params {
			c, ok := t.Cells[s][p]
			switch {
			case !ok:
				fmt.Fprintf(&b, "%*s", width, "-")
			case c.TimedOut:
				fmt.Fprintf(&b, "%*s", width, "n/a")
			case c.OverMem:
				fmt.Fprintf(&b, "%*s", width, "mem")
			case c.Aborted:
				fmt.Fprintf(&b, "%*s", width, "abrt")
			case c.Err != nil:
				fmt.Fprintf(&b, "%*s", width, "err")
			default:
				fmt.Fprintf(&b, "%*s", width, formatSeconds(c.Seconds))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatSeconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// measure runs one query under one strategy against a prepared DB.
func measure(db *disqo.DB, sql string, s disqo.Strategy, cfg Config) Cell {
	best := Cell{Seconds: math.Inf(1)}
	var lat telemetry.Histogram
	for i := 0; i < cfg.Repeat; i++ {
		opts := []disqo.Option{disqo.WithStrategy(s), disqo.WithTupleLimit(cfg.MaxTuples)}
		if cfg.Timeout > 0 {
			opts = append(opts, disqo.WithTimeout(cfg.Timeout))
		}
		if cfg.Workers > 0 {
			opts = append(opts, disqo.WithWorkers(cfg.Workers))
		}
		if cfg.Ctx != nil {
			opts = append(opts, disqo.WithContext(cfg.Ctx))
		}
		start := time.Now()
		res, err := db.Query(sql, opts...)
		wall := time.Since(start)
		elapsed := wall.Seconds()
		if err != nil {
			return classifyCell(err)
		}
		lat.Record(wall)
		if elapsed < best.Seconds {
			best = Cell{Seconds: elapsed, Rows: len(res.Rows)}
		}
	}
	best.Percentiles = percentilesOf(&lat)
	if cfg.OpBreakdown {
		best.Ops = opBreakdown(db, sql, s, cfg)
	}
	return best
}

// classifyCell maps a query failure to a cell. The engine wraps
// execution failures in *disqo.QueryError, so classification must follow
// the unwrap chain. Admission shedding (ErrOverloaded) is transient
// back-pressure, not a property of the query, so it records the cell
// aborted — like external cancellation — rather than failed.
func classifyCell(err error) Cell {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return Cell{Aborted: true, Err: err}
	case errors.Is(err, disqo.ErrOverloaded):
		return Cell{Aborted: true, Err: err}
	case errors.Is(err, disqo.ErrTimeout):
		return Cell{TimedOut: true}
	case errors.Is(err, disqo.ErrMemoryLimit):
		return Cell{OverMem: true}
	}
	return Cell{Err: err}
}

// opBreakdown runs the query once more with metrics enabled and
// flattens the per-operator report. Failures simply omit the breakdown;
// the timed cell already recorded the outcome.
func opBreakdown(db *disqo.DB, sql string, s disqo.Strategy, cfg Config) []OpBreakdown {
	opts := []disqo.Option{disqo.WithStrategy(s), disqo.WithTupleLimit(cfg.MaxTuples), disqo.WithMetrics()}
	if cfg.Timeout > 0 {
		opts = append(opts, disqo.WithTimeout(cfg.Timeout))
	}
	if cfg.Workers > 0 {
		opts = append(opts, disqo.WithWorkers(cfg.Workers))
	}
	res, err := db.Query(sql, opts...)
	if err != nil || res.Metrics() == nil {
		return nil
	}
	pm := res.Metrics()
	out := make([]OpBreakdown, 0, len(pm.Ops))
	for _, op := range pm.Ops {
		out = append(out, OpBreakdown{ID: op.ID, Op: op.Op, EstRows: op.EstRows,
			Rows: op.RowsOut, Calls: op.Calls, Seconds: op.Wall.Seconds()})
	}
	return out
}

// rstPairs is the paper's SF1×SF2 grid.
var rstPairs = [][2]float64{
	{1, 1}, {1, 5}, {1, 10},
	{5, 1}, {5, 5}, {5, 10},
	{10, 1}, {10, 5}, {10, 10},
}

// runRSTSweep runs a query over the Fig. 7 RST grid.
func runRSTSweep(id, title, sql string, cfg Config, progress func(string)) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := newTable(id, title, cfg.Strategies)
	for _, pair := range rstPairs {
		// Timing experiments measure execution, not the result cache:
		// every harness DB runs cache-cold so Repeat keeps honest minima.
		db, _ := disqo.Open(disqo.WithoutCache())
		if err := db.LoadRST(pair[0]*cfg.RSTScale, pair[1]*cfg.RSTScale, pair[1]*cfg.RSTScale); err != nil {
			return nil, err
		}
		param := fmt.Sprintf("%gx%g", pair[0], pair[1])
		for _, s := range cfg.Strategies {
			if progress != nil {
				progress(fmt.Sprintf("%s %s %s", id, param, s))
			}
			tab.set(s, param, measure(db, sql, s, cfg))
		}
	}
	return tab, nil
}

// Fig7a regenerates Fig. 7(a): Q1 (disjunctive linking) on RST.
func Fig7a(cfg Config, progress func(string)) (*Table, error) {
	return runRSTSweep("fig7a", "Q1: disjunctive linking, COUNT(DISTINCT *) on RST (SF1×SF2)", Q1, cfg, progress)
}

// Fig7c regenerates Fig. 7(c): Q2 (disjunctive correlation) on RST.
func Fig7c(cfg Config, progress func(string)) (*Table, error) {
	return runRSTSweep("fig7c", "Q2: disjunctive correlation, COUNT(*) on RST (SF1×SF2)", Q2, cfg, progress)
}

// Fig7b regenerates Fig. 7(b): Query 2d on TPC-H.
func Fig7b(cfg Config, progress func(string)) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := newTable("fig7b", "Query 2d: disjunctive linking, MIN on TPC-H (SF)", cfg.Strategies)
	for _, sf := range cfg.TPCHSFs {
		db, _ := disqo.Open(disqo.WithoutCache())
		if err := db.LoadTPCH(sf); err != nil {
			return nil, err
		}
		param := fmt.Sprintf("SF%g", sf)
		for _, s := range cfg.Strategies {
			if progress != nil {
				progress(fmt.Sprintf("fig7b %s %s", param, s))
			}
			tab.set(s, param, measure(db, Query2d, s, cfg))
		}
	}
	return tab, nil
}

// equalSFPoints is the sweep used by the TR-style linear/tree/quantified
// experiments: equal scale factors for all three relations.
var equalSFPoints = []float64{1, 5, 10}

func runEqualSweep(id, title, sql string, scaleShrink float64, cfg Config, progress func(string)) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := newTable(id, title, cfg.Strategies)
	for _, sf := range equalSFPoints {
		db, _ := disqo.Open(disqo.WithoutCache())
		eff := sf * cfg.RSTScale * scaleShrink
		if err := db.LoadRST(eff, eff, eff); err != nil {
			return nil, err
		}
		param := fmt.Sprintf("SF%g", sf)
		for _, s := range cfg.Strategies {
			if progress != nil {
				progress(fmt.Sprintf("%s %s %s", id, param, s))
			}
			tab.set(s, param, measure(db, sql, s, cfg))
		}
	}
	return tab, nil
}

// Tree runs the Q3 tree-query experiment (TR extension).
func Tree(cfg Config, progress func(string)) (*Table, error) {
	return runEqualSweep("tree", "Q3: tree query, two disjunctive linking predicates", Q3, 0.5, cfg, progress)
}

// Linear runs the Q4 linear-query experiment (TR extension). The inner
// blocks nest two deep, so the sweep shrinks the data further: the
// canonical baseline is O(|R|·|S|·|T|).
func Linear(cfg Config, progress func(string)) (*Table, error) {
	return runEqualSweep("linear", "Q4: linear query, nested disjunctive correlation", Q4, 0.2, cfg, progress)
}

// Quantified runs the EXISTS-in-disjunction experiment (TR extension).
func Quantified(cfg Config, progress func(string)) (*Table, error) {
	return runEqualSweep("quant", "EXISTS in disjunction (quantified subqueries)", QuantExists, 1, cfg, progress)
}

// Ablation quantifies cost-based application, the design decision
// DESIGN.md calls out: the optimizer should decline unnesting where the
// rewrite is estimated slower than canonical. On Q2 it sets canonical
// (nested-loop evaluation) and unnested (Eqv. 5, the one rule for
// disjunctive correlation) beside the CostBased strategy, which runs
// the cheapest by estimate of those two and the reordered plan.
func Ablation(cfg Config, progress func(string)) (*Table, error) {
	cfg.Strategies = []disqo.Strategy{disqo.Canonical, disqo.Unnested, disqo.CostBased}
	return runEqualSweep("ablation", "Q2 ablation: canonical vs unnested vs cost-based", Q2, 1, cfg, progress)
}

// WorkerSweep measures morsel-parallel scaling: the unnested strategy
// on Q1 at the largest RST grid point (10×10, scaled by RSTScale), once
// per worker count. Each run's result set must be byte-identical to the
// first worker count's — the executor's determinism guarantee — and a
// mismatch is an error, not a cell.
func WorkerSweep(cfg Config, workers []int, progress func(string)) (*Table, error) {
	cfg = cfg.withDefaults()
	if len(workers) == 0 {
		workers = []int{1, 2, 4}
	}
	db, _ := disqo.Open(disqo.WithoutCache())
	sf := 10 * cfg.RSTScale
	if err := db.LoadRST(sf, sf, sf); err != nil {
		return nil, err
	}
	tab := newTable("workers",
		fmt.Sprintf("Q1 unnested on RST 10x10 (scale %g): morsel-parallel worker sweep", cfg.RSTScale),
		[]disqo.Strategy{disqo.Unnested})
	var baseline []string
	for _, w := range workers {
		if progress != nil {
			progress(fmt.Sprintf("workers w=%d", w))
		}
		best := Cell{Seconds: math.Inf(1)}
		var lat telemetry.Histogram
		var canon []string
		for i := 0; i < cfg.Repeat; i++ {
			opts := []disqo.Option{disqo.WithStrategy(disqo.Unnested),
				disqo.WithTupleLimit(cfg.MaxTuples), disqo.WithWorkers(w)}
			if cfg.Timeout > 0 {
				opts = append(opts, disqo.WithTimeout(cfg.Timeout))
			}
			start := time.Now()
			res, err := db.Query(Q1, opts...)
			wall := time.Since(start)
			elapsed := wall.Seconds()
			if err != nil {
				return nil, fmt.Errorf("harness: worker sweep w=%d: %w", w, err)
			}
			lat.Record(wall)
			if elapsed < best.Seconds {
				best = Cell{Seconds: elapsed, Rows: len(res.Rows)}
			}
			canon = canonicalRows(res)
		}
		best.Percentiles = percentilesOf(&lat)
		if baseline == nil {
			baseline = canon
		} else if !sameRows(baseline, canon) {
			return nil, fmt.Errorf("harness: worker count %d changed the result set", w)
		}
		tab.set(disqo.Unnested, fmt.Sprintf("w=%d", w), best)
	}
	return tab, nil
}

// canonicalRows renders a result's rows sorted, for order-insensitive
// identity comparison across worker counts.
func canonicalRows(res *disqo.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, ",")
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Experiment names in presentation order.
var Order = []string{"fig7a", "fig7b", "fig7c", "tree", "linear", "quant", "ablation", "workers"}

// Run dispatches an experiment by id.
func Run(id string, cfg Config, progress func(string)) (*Table, error) {
	switch id {
	case "fig7a":
		return Fig7a(cfg, progress)
	case "fig7b":
		return Fig7b(cfg, progress)
	case "fig7c":
		return Fig7c(cfg, progress)
	case "tree":
		return Tree(cfg, progress)
	case "linear":
		return Linear(cfg, progress)
	case "quant":
		return Quantified(cfg, progress)
	case "ablation":
		return Ablation(cfg, progress)
	case "workers":
		return WorkerSweep(cfg, nil, progress)
	default:
		return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(Order, ", "))
	}
}

// Speedups summarizes a table: for each parameter point, the ratio of the
// slowest finished baseline to the unnested strategy.
func (t *Table) Speedups() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range t.Params {
		un, ok := t.Cells[disqo.Unnested][p]
		if !ok || un.TimedOut || un.Err != nil || un.Seconds == 0 {
			continue
		}
		worst := 0.0
		for _, s := range t.Strats {
			if s == disqo.Unnested {
				continue
			}
			c, ok := t.Cells[s][p]
			if ok && !c.TimedOut && c.Err == nil && c.Seconds > worst {
				worst = c.Seconds
			}
		}
		if worst > 0 {
			out[p] = worst / un.Seconds
		}
	}
	return out
}
