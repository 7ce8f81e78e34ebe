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
	"slices"
	"sort"
	"strings"
	"time"

	"disqo"
	"disqo/internal/strategy"
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
	// Strategies to evaluate, each a row of internal/strategy; defaults
	// to the paper's five systems (strategy.Systems).
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
		for _, s := range strategy.Systems() {
			c.Strategies = append(c.Strategies, disqo.Strategy(s))
		}
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
		if !slices.Contains(t.Strats, s) {
			t.Strats = append(t.Strats, s)
		}
	}
	if !slices.Contains(t.Params, param) {
		t.Params = append(t.Params, param)
	}
	t.Cells[s][param] = c
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

// measure runs one query under one strategy against a prepared DB,
// cfg.Repeat times, and returns the fastest run's cell and the last
// run's result; a failed run ends it with the failure's cell and error.
func measure(db *disqo.DB, sql string, s disqo.Strategy, cfg Config) (Cell, *disqo.Result, error) {
	best := Cell{Seconds: math.Inf(1)}
	var lat telemetry.Histogram
	var res *disqo.Result
	for i := 0; i < cfg.Repeat; i++ {
		start := time.Now()
		var err error
		res, err = db.Query(sql, queryOptions(s, cfg)...)
		wall := time.Since(start)
		if err != nil {
			return classifyCell(err), nil, err
		}
		lat.Record(wall)
		if wall.Seconds() < best.Seconds {
			best = Cell{Seconds: wall.Seconds(), Rows: len(res.Rows)}
		}
	}
	best.Percentiles = percentilesOf(&lat)
	if cfg.OpBreakdown {
		best.Ops = opBreakdown(db, sql, s, cfg)
	}
	return best, res, nil
}

// queryOptions are the options every harness query runs under.
func queryOptions(s disqo.Strategy, cfg Config) []disqo.Option {
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
	return opts
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
	res, err := db.Query(sql, append(queryOptions(s, cfg), disqo.WithMetrics())...)
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

// A point is one column of a table: its label and the data it loads.
type point struct {
	param string
	load  func(*disqo.DB) error
}

// sweep returns an experiment that runs sql under every strategy at
// every point points yields for the run's Config.
func sweep(id, title, sql string, points func(Config) []point) func(Config, func(string)) (*Table, error) {
	return func(cfg Config, progress func(string)) (*Table, error) {
		cfg = cfg.withDefaults()
		tab := newTable(id, title, cfg.Strategies)
		for _, pt := range points(cfg) {
			// Timing experiments measure execution, not the result cache:
			// every harness DB runs cache-cold so Repeat keeps honest minima.
			db, _ := disqo.Open(disqo.WithoutCache())
			if err := pt.load(db); err != nil {
				return nil, err
			}
			for _, s := range cfg.Strategies {
				if progress != nil {
					progress(fmt.Sprintf("%s %s %s", id, pt.param, s))
				}
				c, _, _ := measure(db, sql, s, cfg)
				tab.set(s, pt.param, c)
			}
		}
		return tab, nil
	}
}

// rstGrid is the paper's Fig. 7 RST grid, SF1×SF2 ∈ {1,5,10}²: R at SF1,
// S and T at SF2.
func rstGrid(cfg Config) []point {
	var pts []point
	for _, sf1 := range []float64{1, 5, 10} {
		for _, sf2 := range []float64{1, 5, 10} {
			r, st := sf1*cfg.RSTScale, sf2*cfg.RSTScale
			pts = append(pts, point{fmt.Sprintf("%gx%g", sf1, sf2),
				func(db *disqo.DB) error { return db.LoadRST(r, st, st) }})
		}
	}
	return pts
}

// tpchSFs are Fig. 7(b)'s TPC-H scale factors.
func tpchSFs(cfg Config) []point {
	var pts []point
	for _, sf := range cfg.TPCHSFs {
		pts = append(pts, point{fmt.Sprintf("SF%g", sf),
			func(db *disqo.DB) error { return db.LoadTPCH(sf) }})
	}
	return pts
}

// equalSFs is the sweep of the TR-style experiments: equal scale factors
// 1, 5 and 10 for all three relations, shrunk by shrink.
func equalSFs(shrink float64) func(Config) []point {
	return func(cfg Config) []point {
		var pts []point
		for _, sf := range []float64{1, 5, 10} {
			eff := sf * cfg.RSTScale * shrink
			pts = append(pts, point{fmt.Sprintf("SF%g", sf),
				func(db *disqo.DB) error { return db.LoadRST(eff, eff, eff) }})
		}
		return pts
	}
}

// experiments are the tables the harness regenerates, in presentation
// order: Fig. 7(a)–(c), the technical report's tree, linear and
// quantified-subquery experiments, the ablation and the worker sweep.
var experiments = []struct {
	id  string
	run func(Config, func(string)) (*Table, error)
}{
	{"fig7a", sweep("fig7a", "Q1: disjunctive linking, COUNT(DISTINCT *) on RST (SF1×SF2)", Q1, rstGrid)},
	{"fig7b", sweep("fig7b", "Query 2d: disjunctive linking, MIN on TPC-H (SF)", Query2d, tpchSFs)},
	{"fig7c", sweep("fig7c", "Q2: disjunctive correlation, COUNT(*) on RST (SF1×SF2)", Q2, rstGrid)},
	{"tree", sweep("tree", "Q3: tree query, two disjunctive linking predicates", Q3, equalSFs(0.5))},
	// Q4's inner blocks nest two deep, so the sweep shrinks the data
	// further: the canonical baseline is O(|R|·|S|·|T|).
	{"linear", sweep("linear", "Q4: linear query, nested disjunctive correlation", Q4, equalSFs(0.2))},
	{"quant", sweep("quant", "EXISTS in disjunction (quantified subqueries)", QuantExists, equalSFs(1))},
	// The ablation quantifies cost-based application, the design
	// decision DESIGN.md calls out: the optimizer should decline
	// unnesting where the rewrite is estimated slower than canonical. On
	// Q2 it sets canonical (nested-loop evaluation) and unnested (Eqv. 5,
	// the one rule for disjunctive correlation) beside the CostBased
	// strategy, which runs the cheapest by estimate of those two and the
	// reordered plan.
	{"ablation", func(cfg Config, progress func(string)) (*Table, error) {
		cfg.Strategies = []disqo.Strategy{disqo.Canonical, disqo.Unnested, disqo.CostBased}
		return sweep("ablation", "Q2 ablation: canonical vs unnested vs cost-based", Q2, equalSFs(1))(cfg, progress)
	}},
	{"workers", func(cfg Config, progress func(string)) (*Table, error) { return WorkerSweep(cfg, nil, progress) }},
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
		cfg.Workers = w
		best, res, err := measure(db, Q1, disqo.Unnested, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: worker sweep w=%d: %w", w, err)
		}
		canon := canonicalRows(res)
		if baseline == nil {
			baseline = canon
		} else if !slices.Equal(baseline, canon) {
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

// Order lists the experiment ids in presentation order.
var Order = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}()

// Run runs an experiment by id, after checking that every configured
// strategy is one internal/strategy defines.
func Run(id string, cfg Config, progress func(string)) (*Table, error) {
	for _, s := range cfg.Strategies {
		if _, err := strategy.Lookup(string(s)); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	for _, e := range experiments {
		if e.id == id {
			return e.run(cfg, progress)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(Order, ", "))
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
