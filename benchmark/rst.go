package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/types"
)

// The statements are the paper's example queries (§3), the disjunctive
// TPC-H Query 2d of its introduction and the Eqv. 5 family, on the RST
// schema of §4.1. Where the paper compares a column with a constant
// (a4 > 1500 on a domain of 3000), the benchmark asks for the same
// selectivity and takes the constant from the generated rows, the way
// TPC-H's qgen substitutes parameters: the share of rows a filter keeps
// is then the same for every seed, and a run costs the same whichever
// seed generated its data.

// threshold returns the constant v for which "col > v" keeps the share
// keep of the table's rows (as nearly as ties allow).
func threshold(cat *catalog.Catalog, table, col string, keep float64) (int64, error) {
	rows, idx, err := columns(cat, table, col)
	if err != nil {
		return 0, err
	}
	vals := make([]int64, 0, len(rows))
	for _, row := range rows {
		if v, ok := row[idx[0]].IntOk(); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return 0, fmt.Errorf("benchmark: column %s.%s holds too few integers for a threshold", table, col)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	pass := int(math.Round(keep * float64(len(vals))))
	pass = min(max(pass, 1), len(vals)-1)
	return vals[len(vals)-pass-1], nil
}

// namedStmt is one class's statement.
type namedStmt struct {
	class string
	sql   string
}

// stmtBuilder turns a generated catalog into a workload's statements.
type stmtBuilder func(cat *catalog.Catalog) ([]namedStmt, error)

// cut names a filter "col > v" by the share of the table's rows it keeps.
type cut struct {
	table, col string
	keep       float64
}

// thresholds resolves the constants of several cuts, ready for Sprintf.
func thresholds(cat *catalog.Catalog, cuts ...cut) ([]any, error) {
	out := make([]any, len(cuts))
	for i, c := range cuts {
		v, err := threshold(cat, c.table, c.col, c.keep)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sqlQ1 and sqlQ2 are also served_mixed's q1_link and q2_corr.
func sqlQ1(cat *catalog.Catalog) (string, error) {
	v, err := threshold(cat, "r", "a4", 0.5)
	return fmt.Sprintf(`SELECT DISTINCT * FROM r
	         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	            OR a4 > %d`, v), err
}

func sqlQ2(cat *catalog.Catalog) (string, error) {
	v, err := threshold(cat, "s", "b4", 0.5)
	return fmt.Sprintf(`SELECT DISTINCT * FROM r
	         WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > %d)`, v), err
}

const sqlQ3 = `SELECT DISTINCT * FROM r
	         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
	            OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)`

// fig7Stmts are Fig. 7's queries: Q1 (7a, linking disjunction), Q2 (7c,
// disjunctive correlation, Eqv. 4), the tree query Q3, a quantified
// variant, and Query 2d on TPC-H (7b).
func fig7Stmts(cat *catalog.Catalog) ([]namedStmt, error) {
	q1, err := sqlQ1(cat)
	if err != nil {
		return nil, err
	}
	q2, err := sqlQ2(cat)
	if err != nil {
		return nil, err
	}
	c, err := thresholds(cat, cut{"s", "b4", 1.0 / 6}, cut{"r", "a4", 0.5}, cut{"partsupp", "ps_availqty", 0.8})
	if err != nil {
		return nil, err
	}
	size, region, err := tpchParams(cat)
	if err != nil {
		return nil, err
	}
	quant := fmt.Sprintf(`SELECT DISTINCT * FROM r
	                  WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > %d)
	                     OR a4 > %d`, c[0], c[1])
	q2d := fmt.Sprintf(`SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
	              FROM part, supplier, partsupp, nation, region
	              WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
	                AND p_size = %[1]d AND p_type LIKE '%%BRASS'
	                AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	                AND r_name = '%[2]s'
	                AND (ps_supplycost = (SELECT MIN(ps_supplycost)
	                                      FROM partsupp, supplier, nation, region
	                                      WHERE s_suppkey = ps_suppkey
	                                        AND p_partkey = ps_partkey
	                                        AND s_nationkey = n_nationkey
	                                        AND n_regionkey = r_regionkey
	                                        AND r_name = '%[2]s')
	                     OR ps_availqty > %[3]d)
	              ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`, size, region, c[2])
	return []namedStmt{{"q1_link", q1}, {"q2_corr", q2}, {"q3_tree", sqlQ3},
		{"quant_exists", quant}, {"tpch_q2d", q2d}}, nil
}

// columns returns a table's rows and the positions of the named columns
// in them.
func columns(cat *catalog.Catalog, table string, cols ...string) ([][]types.Value, []int, error) {
	t, err := cat.Lookup(table)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(cols))
	for i, col := range cols {
		idx[i] = -1
		for j, c := range t.Columns {
			if strings.EqualFold(c.Name, col) {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return nil, nil, fmt.Errorf("benchmark: table %s has no column %s", table, col)
		}
	}
	return t.Rel.Tuples, idx, nil
}

// nearest returns the key whose count is closest to target, the smallest
// such key on a tie.
func nearest[K int64 | string](counts map[K]int, target float64) K {
	var best K
	found := false
	for k, n := range counts {
		d, bd := math.Abs(float64(n)-target), math.Abs(float64(counts[best])-target)
		if !found || d < bd || (d == bd && k < best) {
			best, found = k, true
		}
	}
	return best
}

// tpchParams picks Query 2d's substitution parameters, which TPC-H leaves
// to the query generator: the part size and the region. At SF 0.01 there
// are 100 suppliers and about 8 brass parts of a size, so the share of
// either that a fixed parameter selects swings by a third from seed to
// seed; the parameters chosen are the ones whose share is closest to the
// expected one (a fifth of the suppliers, a fiftieth of the brass parts).
func tpchParams(cat *catalog.Catalog) (size int64, region string, err error) {
	parts, pc, err := columns(cat, "part", "p_type", "p_size")
	if err != nil {
		return 0, "", err
	}
	nations, nc, err := columns(cat, "nation", "n_nationkey", "n_regionkey")
	if err != nil {
		return 0, "", err
	}
	regions, rc, err := columns(cat, "region", "r_regionkey", "r_name")
	if err != nil {
		return 0, "", err
	}
	suppliers, sc, err := columns(cat, "supplier", "s_nationkey")
	if err != nil {
		return 0, "", err
	}

	sizes, brass := map[int64]int{}, 0
	for _, row := range parts {
		if strings.HasSuffix(row[pc[0]].Str(), "BRASS") {
			sizes[row[pc[1]].Int()]++
			brass++
		}
	}
	regionName := map[int64]string{}
	for _, row := range regions {
		regionName[row[rc[0]].Int()] = row[rc[1]].Str()
	}
	nationRegion := map[int64]string{}
	for _, row := range nations {
		nationRegion[row[nc[0]].Int()] = regionName[row[nc[1]].Int()]
	}
	perRegion := map[string]int{}
	for _, row := range suppliers {
		perRegion[nationRegion[row[sc[0]].Int()]]++
	}
	return nearest(sizes, float64(brass)/50),
		nearest(perRegion, float64(len(suppliers))/float64(len(regions))), nil
}

// eqv5Stmts is the Eqv. 5 family: a linear nest in the shape of the
// paper's Q4 and Q2 with aggregates that do not decompose, which rules
// Eqv. 4 out. All three rewrite to ν + ⋈± + σ + Γ². On 200-row tables
// the paper's own texts select nothing (Q4's a1 = COUNT and b4 = c2
// almost never hold) and an empty result checks nothing, so the linking
// columns and operators are chosen to return rows: Q4 links through a3
// and correlates t through b2, COUNT(DISTINCT *) links with <= and
// SUM(DISTINCT b3) with >.
func eqv5Stmts(cat *catalog.Catalog) ([]namedStmt, error) {
	c, err := thresholds(cat, cut{"s", "b4", 0.5}, cut{"s", "b4", 0.27})
	if err != nil {
		return nil, err
	}
	return []namedStmt{
		{"q4_linear", `SELECT DISTINCT * FROM r
	         WHERE a3 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2
	                      OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b2 = c2))`},
		{"q2_count_distinct", fmt.Sprintf(`SELECT DISTINCT * FROM r
	         WHERE a1 <= (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b4 > %d)`, c[0])},
		{"q2_sum_distinct", fmt.Sprintf(`SELECT DISTINCT * FROM r
	         WHERE a4 > (SELECT SUM(DISTINCT b3) FROM s WHERE a2 = b2 OR b4 > %d)`, c[1])},
	}, nil
}

// rstSpec sizes an embedded RST workload.
type rstSpec struct {
	sf, tpch             float64
	oracleSF, oracleTPCH float64
	stmts                stmtBuilder
}

// generate builds the seed's RST tables (and TPC-H when tpch > 0) in a
// private catalog; the engine under test only ever sees the rows.
func generate(seed uint64, sf, tpch float64) (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: sf, SFS: sf, SFT: sf, Seed: seed}); err != nil {
		return nil, err
	}
	if tpch > 0 {
		if err := datagen.LoadTPCH(cat, datagen.TPCHConfig{SF: tpch, Seed: seed}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// loadInto copies every table of cat into db through the public API and
// returns the number of rows loaded.
func loadInto(db *disqo.DB, cat *catalog.Catalog) (int, error) {
	rows := 0
	for _, name := range cat.Names() {
		t, err := cat.Lookup(name)
		if err != nil {
			return rows, err
		}
		if err := db.CreateTable(t.Name, t.Columns); err != nil {
			return rows, err
		}
		if err := db.Insert(t.Name, t.Rel.Tuples...); err != nil {
			return rows, err
		}
		rows += len(t.Rel.Tuples)
	}
	return rows, nil
}

// generateAndLoad runs the datagen and load phases of a set-up.
func generateAndLoad(in *instance, seed uint64, sf, tpch float64, opts ...disqo.OpenOption) error {
	start := time.Now()
	cat, err := generate(seed, sf, tpch)
	if err != nil {
		return err
	}
	in.phases.datagen = time.Since(start)
	start = time.Now()
	db, err := disqo.Open(opts...)
	if err != nil {
		return err
	}
	in.db, in.cat = db, cat
	in.phases.rowsLoaded, err = loadInto(db, cat)
	in.phases.load = time.Since(start)
	return err
}

// oracleCheck verifies the default strategy against the canonical
// (nested-loop) strategy on a down-scaled database built from the same
// seed: the two share the parser and the executor but not the rewriter,
// which is the layer the paper is about.
func (in *instance) oracleCheck(sf, tpch float64, build stmtBuilder) error {
	cat, err := generate(in.seed, sf, tpch)
	if err != nil {
		return err
	}
	stmts, err := build(cat)
	if err != nil {
		return err
	}
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := loadInto(db, cat); err != nil {
		return err
	}
	for _, st := range stmts {
		got, err := readOutcome(db.Query(st.sql, disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
		if err != nil {
			return fmt.Errorf("oracle %s: %w", st.class, err)
		}
		want, err := readOutcome(db.Query(st.sql, disqo.WithStrategy(disqo.Canonical),
			disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
		if err != nil {
			return fmt.Errorf("oracle %s (canonical): %w", st.class, err)
		}
		in.verifyChecks++
		if got.expect() != want.expect() {
			in.fail("oracle: %s unnested %+v, canonical %+v", st.class, got.expect(), want.expect())
		}
	}
	return nil
}

// setupRST builds an embedded, cache-less, single-worker RST instance:
// every operation parses, plans and executes from scratch, so the
// executor does nearly all of the work.
func setupRST(spec rstSpec) func(*workload, uint64, string) (*instance, error) {
	return func(w *workload, seed uint64, _ string) (*instance, error) {
		in := &instance{w: w, seed: seed, workers: 1}
		if err := generateAndLoad(in, seed, spec.sf, spec.tpch, disqo.WithoutCache()); err != nil {
			return nil, err
		}
		db := in.db
		stmts, err := spec.stmts(in.cat)
		if err != nil {
			return nil, err
		}
		for _, st := range stmts {
			sql := st.sql
			in.cycle = append(in.cycle, op{
				class: w.classIndex(st.class),
				stmts: []string{sql},
				do: func(int) (outcome, error) {
					return readOutcome(db.Query(sql, disqo.WithWorkers(1), disqo.WithTimeout(opDeadline)))
				},
				plansEveryCall: true,
			})
		}
		in.refPasses = 1
		in.oracle = func() error { return in.oracleCheck(spec.oracleSF, spec.oracleTPCH, spec.stmts) }
		in.teardown = func() (int, error) { return 0, db.Close() }
		return in, nil
	}
}

// readClasses lists read classes by name.
func readClasses(names ...string) []class {
	cs := make([]class, len(names))
	for i, n := range names {
		cs[i] = class{name: n}
	}
	return cs
}
