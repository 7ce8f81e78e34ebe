package disqo

import "disqo/internal/cache"

// PlanFingerprint returns the physical fingerprint of the plans sql
// lowers to under opts — the plan part of its result-cache key — built
// the way Explain builds them, uncached.
func (db *DB) PlanFingerprint(sql string, opts ...Option) (uint64, error) {
	cfg, err := db.enter(opts)
	if err != nil {
		return 0, err
	}
	defer db.end()
	st, err := db.Prepare(sql)
	if err != nil {
		return 0, err
	}
	pp, _, err := db.planStmt(db.cat.Snapshot(), st.stmt, cache.PlanKey{}, cfg)
	if err != nil {
		return 0, err
	}
	return pp.fingerprint(), nil
}

// withMorselSize sets the chunk length hot operators split their input
// into (exec.Options.MorselSize: default 1024, clamped to [64, 65536]),
// for tests that check a result does not depend on it.
func withMorselSize(n int) Option {
	return func(c *queryConfig) { c.MorselSize = n }
}
