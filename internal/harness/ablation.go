package harness

import (
	"errors"
	"fmt"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
	"disqo/internal/exec"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/translate"
)

// Ablation quantifies cost-based application, the design decision
// DESIGN.md calls out: the optimizer should decline unnesting where the
// rewrite is estimated slower than canonical. On Q2 it sets canonical
// (nested-loop evaluation) and unnested (Eqv. 5, the one rule for
// disjunctive correlation) beside costbased, which picks one of the two
// by estimated cost.
func Ablation(cfg Config, progress func(string)) (*Table, error) {
	cfg = cfg.withDefaults()
	variants := []string{"canonical", "unnested", "costbased"}
	tab := newTable("ablation", "Q2 ablation: canonical vs unnested vs cost-based", nil)
	for _, sf := range equalSFPoints {
		eff := sf * cfg.RSTScale
		cat := catalog.New()
		if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: eff, SFS: eff, SFT: eff}); err != nil {
			return nil, err
		}
		param := fmt.Sprintf("SF%g", sf)
		for _, v := range variants {
			if progress != nil {
				progress(fmt.Sprintf("ablation %s %s", param, v))
			}
			cell := measureVariant(cat, Q2, v, cfg)
			tab.set(disqo.Strategy(v), param, cell)
		}
	}
	return tab, nil
}

// measureVariant plans Q2 under an ablation variant and times execution.
func measureVariant(cat *catalog.Catalog, sql, variant string, cfg Config) Cell {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return Cell{Err: err}
	}
	canonical, err := translate.New(cat).Translate(stmt)
	if err != nil {
		return Cell{Err: err}
	}
	plan := canonical
	cacheMode := exec.CacheScans
	switch variant {
	case "canonical":
	case "unnested", "costbased":
		// costbased approximates the public CostBased strategy with
		// internal parts so the whole ablation shares one catalog.
		unnested, err := rewrite.New(cat, rewrite.AllCaps()).Rewrite(canonical)
		if err != nil {
			return Cell{Err: err}
		}
		if est := newEstimator(cat); variant == "unnested" || est.PlanCost(unnested) < est.PlanCost(canonical) {
			plan = unnested
			cacheMode = exec.CacheAll
		}
	default:
		return Cell{Err: fmt.Errorf("unknown variant %q", variant)}
	}
	ex := exec.New(cat, exec.Options{Cache: cacheMode, Timeout: cfg.Timeout, MaxTuples: cfg.MaxTuples})
	start := time.Now()
	rel, err := ex.Run(plan)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		// Executor failures arrive wrapped in *exec.OpError, so identity
		// comparison would misclassify them; follow the unwrap chain.
		switch {
		case errors.Is(err, exec.ErrTimeout):
			return Cell{TimedOut: true}
		case errors.Is(err, exec.ErrMemoryLimit):
			return Cell{OverMem: true}
		}
		return Cell{Err: err}
	}
	return Cell{Seconds: elapsed, Rows: rel.Cardinality()}
}

// newEstimator builds a stats estimator; kept here to limit the ablation
// file's import surface in one place.
func newEstimator(cat *catalog.Catalog) *stats.Estimator { return stats.New(cat) }
