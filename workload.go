package disqo

import (
	"errors"
	"strings"
	"time"

	"disqo/internal/physical"
	"disqo/internal/telemetry"
)

// observe records one finished query in the workload collector: the
// outcome classification (OK / error / shed on ErrOverloaded), the
// strategy split, and — for successes — rows and the wall time
// since API entry. Statements that fail before planning are not
// observed; the registry tracks planned statements. No-op when
// telemetry is disabled.
func (db *DB) observe(norm string, cfg queryConfig, planHit bool, rows int64, err error, src telemetry.Source) {
	if db.tele == nil {
		return
	}
	obs := telemetry.Obs{
		Strategy: string(cfg.strategy),
		Rows:     rows,
		PlanHit:  planHit,
		Source:   src,
	}
	switch {
	case err == nil:
		obs.Outcome = telemetry.OutcomeOK
		obs.Elapsed = time.Since(cfg.began)
	case errors.Is(err, ErrOverloaded):
		obs.Outcome = telemetry.OutcomeShed
	default:
		obs.Outcome = telemetry.OutcomeError
	}
	db.tele.Observe(norm, obs)
}

// captureSlow appends an executed query to the slow-query ring when a
// threshold is armed and the wall time since API entry is at or over it.
// A success carries its ANALYZE-annotated plan (an armed threshold turns
// metrics on for every query); a failure carries none — its metrics are
// partial.
func (db *DB) captureSlow(pp *prepared, cfg queryConfig, res *Result, err error) {
	th, elapsed := db.tele.SlowThreshold(), time.Since(cfg.began)
	if th <= 0 || elapsed < th {
		return
	}
	q := telemetry.SlowQuery{Time: time.Now(), SQL: pp.key.SQL, Strategy: string(cfg.strategy), Elapsed: elapsed}
	if err != nil {
		q.Err = err.Error()
	} else {
		q.Rows = int64(len(res.Rows))
		if res.metrics != nil {
			q.Plan = physical.ExplainAnnotated(pp.phys.Root, analyzeAnnot(res.metrics))
		}
	}
	db.tele.RecordSlow(q)
}

// opObs flattens a per-operator metrics report into the telemetry
// layer's est-vs-actual observations, one per executed operator. The
// operator class is the physical label cut at its first argument —
// "Filter[a1 = 1 (compiled)]" and "Filter[a4 > 1500]" both aggregate
// under "Filter" — which is the granularity the feedback-driven
// re-optimization loop consumes.
func opObs(pm *PlanMetrics) []telemetry.OpObs {
	if pm == nil {
		return nil
	}
	out := make([]telemetry.OpObs, 0, len(pm.Ops))
	for _, op := range pm.Ops {
		if op.Calls == 0 {
			continue
		}
		out = append(out, telemetry.OpObs{
			Class:      opClass(op.Op),
			EstRows:    op.EstRows,
			ActualRows: op.RowsOut,
		})
	}
	return out
}

// opClass cuts a physical label at its first argument delimiter:
// "Scan(r)" → "Scan", "Filter±[...]" → "Filter±".
func opClass(label string) string {
	if i := strings.IndexAny(label, "(["); i > 0 {
		return label[:i]
	}
	return label
}

// AdmissionStats is the admission gate's telemetry: the configured
// bounds, the instantaneous load, and the cumulative admission
// counters. A DB without admission control reports zeros.
type AdmissionStats struct {
	// MaxConcurrent / MaxQueued are the configured bounds.
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueued     int `json:"max_queued"`
	// Active / Queued are the instantaneous gauges.
	Active int `json:"active"`
	Queued int `json:"queued"`
	// Admitted counts granted slots; Shed counts ErrOverloaded
	// rejections; QueueWait sums every waiter's time in the queue.
	Admitted  int64         `json:"admitted"`
	Shed      int64         `json:"shed"`
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// BudgetStats is the shared tuple budget's telemetry. A DB without a
// shared budget (WithSharedTupleLimit unset) reports zeros.
type BudgetStats struct {
	// Limit is the configured bound; Resident the tuples currently
	// charged; Peak the high-water mark since Open or the last
	// ResetStats.
	Limit    int64 `json:"limit"`
	Resident int64 `json:"resident"`
	Peak     int64 `json:"peak"`
}

// WorkloadStats is the DB's full observability snapshot: the workload
// the telemetry layer aggregated (per-statement registry, latency
// distribution, slow-query ring) folded together with the cache tiers,
// the admission gate, and the shared tuple budget. The same numbers
// back the Prometheus /metrics endpoint.
type WorkloadStats struct {
	// Enabled reports whether the telemetry layer is collecting; with
	// WithoutTelemetry the workload sections are zero but Cache,
	// Admission, and Budget still carry live values.
	Enabled bool `json:"enabled"`
	// Uptime is the time since Open.
	Uptime time.Duration `json:"uptime_ns"`
	// Inflight is the number of public API calls currently inside the
	// engine (queries, writes, checkpoints) — the drain counter Close
	// waits on, wider than Admission.Active which counts only queries
	// holding execution slots.
	Inflight int `json:"inflight"`

	// Queries counts every observed query; Errors and Sheds classify the
	// failures (Sheds are ErrOverloaded rejections — back-pressure, not
	// bugs); RowsReturned sums successful queries' result sizes.
	Queries      int64 `json:"queries"`
	Errors       int64 `json:"errors"`
	Sheds        int64 `json:"sheds"`
	RowsReturned int64 `json:"rows_returned"`

	// Latency is the global successful-query latency distribution.
	Latency telemetry.LatencySnapshot `json:"latency"`

	// Statements is the per-fingerprint registry, sorted by total wall
	// time descending; DroppedStatements counts observations that found
	// the registry at capacity.
	Statements        []telemetry.StatementStats `json:"statements"`
	DroppedStatements int64                      `json:"dropped_statements,omitempty"`

	// SlowQueries is the slow-query ring, newest first; SlowTotal counts
	// every capture ever made (the ring overwrites).
	SlowQueries []telemetry.SlowQuery `json:"slow_queries,omitempty"`
	SlowTotal   int64                 `json:"slow_total"`

	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	Budget    BudgetStats    `json:"budget"`

	// WAL is the write-ahead log's counter snapshot; nil for a volatile
	// DB (WithDataDir unset). RecoveryReplayedRecords counts the log
	// records crash recovery replayed when this process opened the
	// directory (0 after a clean shutdown at a checkpoint).
	WAL                     *WALStats `json:"wal,omitempty"`
	RecoveryReplayedRecords uint64    `json:"recovery_replayed_records,omitempty"`
}

// WorkloadStats assembles the DB's observability snapshot. Safe to call
// from a monitoring goroutine at any frequency; the snapshot is
// consistent per counter, not across counters (queries keep finishing
// while it is taken).
func (db *DB) WorkloadStats() WorkloadStats {
	ws := WorkloadStats{
		Enabled:  db.tele != nil,
		Uptime:   time.Since(db.start),
		Inflight: db.InflightQueries(),
		Cache:    db.CacheStats(),
	}
	if db.tele != nil {
		snap := db.tele.Snapshot()
		ws.Queries = snap.Queries
		ws.Errors = snap.Errors
		ws.Sheds = snap.Sheds
		ws.RowsReturned = snap.Rows
		ws.Latency = snap.Latency
		ws.Statements = snap.Statements
		ws.DroppedStatements = snap.DroppedStatements
		ws.SlowQueries = snap.Slow
		ws.SlowTotal = snap.SlowTotal
	}
	gs := db.gate.stats()
	ws.Admission = AdmissionStats{
		MaxConcurrent: gs.max,
		MaxQueued:     gs.maxQueued,
		Active:        gs.active,
		Queued:        gs.queued,
		Admitted:      gs.admitted,
		Shed:          gs.shed,
		QueueWait:     time.Duration(gs.waitNanos),
	}
	if db.budget != nil {
		ws.Budget = BudgetStats{
			Limit:    db.budget.Limit(),
			Resident: db.budget.Resident(),
			Peak:     db.budget.Peak(),
		}
	}
	if db.wal != nil {
		st := db.wal.Stats()
		ws.WAL = &st
		ws.RecoveryReplayedRecords = db.replayed.Load()
	}
	return ws
}

// InflightQueries reports how many public API calls are currently
// inside the engine — the same counter Close's drain waits on. Servers
// export it as a gauge to watch a drain progress.
func (db *DB) InflightQueries() int {
	db.lifeMu.Lock()
	defer db.lifeMu.Unlock()
	return db.inflight
}

// ResetStats zeroes every cumulative workload counter — the statement
// registry, latency histograms, slow-query ring, cache tier counters,
// admission counters, and the budget peak watermark — without touching
// cached entries, in-flight queries, or instantaneous gauges. Long-
// lived benches and the REPL use it to measure deltas over a warm
// engine.
func (db *DB) ResetStats() {
	db.tele.Reset()
	if db.pcache != nil {
		db.pcache.ResetStats()
	}
	if db.rcache != nil {
		db.rcache.ResetStats()
	}
	db.gate.resetStats()
	db.budget.ResetPeak()
}
