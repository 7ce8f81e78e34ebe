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

// WithMorselSize is withMorselSize for the package's external tests.
func WithMorselSize(n int) Option { return withMorselSize(n) }

// withMaxQueued replaces the admission queue's length (default 4 ×
// MaxConcurrent); n < 0 leaves no queue, so a query that finds every
// slot busy is shed at once.
func withMaxQueued(n int) OpenOption {
	return func(o *openOptions) { o.maxQueued = n }
}

// withPlanCacheSize replaces the plan cache's 4 MiB bound with n bytes,
// for tests that need it to evict.
func withPlanCacheSize(n int64) OpenOption {
	return func(o *openOptions) { o.planCacheBytes = n }
}

// withClientRetry replaces the client's DefaultRetryPolicy, for tests
// that need a transport failure to surface on the first attempt.
func withClientRetry(p RetryPolicy) ClientOption {
	return func(o *clientOptions) { o.retry = p }
}
