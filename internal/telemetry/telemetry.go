// Package telemetry is disqo's workload-statistics layer: a
// concurrency-safe statement registry keyed by normalized-SQL
// fingerprint, log2-bucketed latency histograms (global and
// per-statement), a slow-query ring buffer, and a Prometheus
// text-format exposition encoder.
//
// The hot path — Collector.Observe once per finished query — is
// designed to cost a map read plus a bounded number of atomic adds:
// no locks beyond one short per-entry mutex for the strategy
// split, and no allocation once a statement's entry exists. A nil
// *Collector ignores every call, so a DB with telemetry disabled pays
// a single pointer test per query.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxStatements bounds the registry: statements beyond it are
// counted in aggregate (Snapshot.DroppedStatements) instead of getting
// their own entry, so a workload of unique ad-hoc statements cannot
// grow the registry without bound.
const DefaultMaxStatements = 512

// DefaultSlowCapacity is the slow-query ring's size when Config leaves
// it zero.
const DefaultSlowCapacity = 128

// Outcome classifies how a query finished.
type Outcome uint8

const (
	// OutcomeOK is a successful query (counted in latency histograms).
	OutcomeOK Outcome = iota
	// OutcomeError is any failure other than admission shedding.
	OutcomeError
	// OutcomeShed is an admission-gate rejection (ErrOverloaded) —
	// transient back-pressure, counted apart from real errors.
	OutcomeShed
)

// Source says where a successful result came from.
type Source uint8

const (
	// SourceExecution: the query ran through the executor.
	SourceExecution Source = iota
	// SourceResultCache: served from a resident result-cache entry.
	SourceResultCache
	// SourceSingleFlight: joined a concurrent identical execution.
	SourceSingleFlight
)

// Obs is one finished query's observation. The struct is passed by
// value so observing never allocates.
type Obs struct {
	Strategy string
	Elapsed  time.Duration
	Rows     int64
	Outcome  Outcome
	Source   Source
	// PlanHit reports that planning was skipped: a plan-cache hit or a
	// prepared statement reusing its derived plan.
	PlanHit bool
}

// OpObs is one physical operator's contribution to a metrics-enabled
// query: the planner's estimate next to the actual output, aggregated
// per operator class (the label up to its first argument).
type OpObs struct {
	Class      string
	EstRows    float64
	ActualRows int64
}

// OpClassStats is the per-statement aggregate of OpObs: summed
// estimates and actuals per operator class, the raw material of
// feedback-driven re-optimization (est-vs-actual per fingerprint).
type OpClassStats struct {
	Class      string  `json:"class"`
	Calls      int64   `json:"calls"`
	EstRows    float64 `json:"est_rows"`
	ActualRows int64   `json:"actual_rows"`
}

// StatementStats is one registered statement's counter snapshot.
type StatementStats struct {
	// Fingerprint is the FNV-64a hash of the normalized SQL, rendered
	// as 16 hex digits — the stable workload key.
	Fingerprint string `json:"fingerprint"`
	// SQL is the normalized statement text.
	SQL string `json:"sql"`

	Calls  int64 `json:"calls"`
	Errors int64 `json:"errors,omitempty"`
	Sheds  int64 `json:"sheds,omitempty"`
	Rows   int64 `json:"rows"`

	// PlanHits counts calls whose planning was skipped (plan cache or
	// prepared-statement reuse); ResultHits counts calls served from
	// the result cache; FlightWaits counts calls that joined a
	// concurrent identical execution.
	PlanHits    int64 `json:"plan_hits,omitempty"`
	ResultHits  int64 `json:"result_hits,omitempty"`
	FlightWaits int64 `json:"flight_waits,omitempty"`

	// TotalWall sums successful calls' latency; Latency carries the
	// full distribution with percentile estimates.
	TotalWall time.Duration   `json:"total_wall_ns"`
	Latency   LatencySnapshot `json:"latency"`

	// ByStrategy splits Calls by optimizer strategy.
	ByStrategy map[string]int64 `json:"by_strategy,omitempty"`

	// Ops is the est-vs-actual aggregate per physical operator class,
	// present for statements that ran with metrics collection.
	Ops []OpClassStats `json:"ops,omitempty"`
}

// CacheHitRate returns served calls (result cache + single flight)
// over all successful calls.
func (s StatementStats) CacheHitRate() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.ResultHits+s.FlightWaits) / float64(s.Calls)
}

// stmtEntry is one registered statement's live counters. Everything on
// the Observe path is atomic; the strategy/ops maps sit behind a
// short mutex (map writes after the first key are allocation-free).
type stmtEntry struct {
	norm string
	fp   uint64

	calls, errors, sheds, rows        atomic.Int64
	planHits, resultHits, flightWaits atomic.Int64
	wallNanos                         atomic.Int64
	hist                              Histogram

	mu         sync.Mutex
	byStrategy map[string]int64
	ops        map[string]*OpClassStats
}

func (e *stmtEntry) observe(obs Obs) {
	e.calls.Add(1)
	switch obs.Outcome {
	case OutcomeOK:
		e.rows.Add(obs.Rows)
		e.wallNanos.Add(int64(obs.Elapsed))
		e.hist.Record(obs.Elapsed)
		switch obs.Source {
		case SourceResultCache:
			e.resultHits.Add(1)
		case SourceSingleFlight:
			e.flightWaits.Add(1)
		}
	case OutcomeError:
		e.errors.Add(1)
	case OutcomeShed:
		e.sheds.Add(1)
	}
	if obs.PlanHit {
		e.planHits.Add(1)
	}
	e.mu.Lock()
	e.byStrategy[obs.Strategy]++
	e.mu.Unlock()
}

func (e *stmtEntry) observeOps(ops []OpObs) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range ops {
		agg := e.ops[o.Class]
		if agg == nil {
			agg = &OpClassStats{Class: o.Class}
			e.ops[o.Class] = agg
		}
		agg.Calls++
		agg.EstRows += o.EstRows
		agg.ActualRows += o.ActualRows
	}
}

func (e *stmtEntry) snapshot() StatementStats {
	s := StatementStats{
		Fingerprint: fmt.Sprintf("%016x", e.fp),
		SQL:         e.norm,
		Calls:       e.calls.Load(),
		Errors:      e.errors.Load(),
		Sheds:       e.sheds.Load(),
		Rows:        e.rows.Load(),
		PlanHits:    e.planHits.Load(),
		ResultHits:  e.resultHits.Load(),
		FlightWaits: e.flightWaits.Load(),
		TotalWall:   time.Duration(e.wallNanos.Load()),
		Latency:     e.hist.Snapshot(),
	}
	e.mu.Lock()
	s.ByStrategy = make(map[string]int64, len(e.byStrategy))
	for k, v := range e.byStrategy {
		s.ByStrategy[k] = v
	}
	for _, agg := range e.ops {
		s.Ops = append(s.Ops, *agg)
	}
	e.mu.Unlock()
	sort.Slice(s.Ops, func(i, j int) bool { return s.Ops[i].Class < s.Ops[j].Class })
	return s
}

// fnv64a hashes a string without allocating (hash/fnv would need a
// []byte conversion).
func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

const shardCount = 16 // power of two; shard = fingerprint & (shardCount-1)

type shard struct {
	mu sync.RWMutex
	m  map[string]*stmtEntry
}

// Config tunes a Collector.
type Config struct {
	// MaxStatements caps the registry (0 = DefaultMaxStatements).
	MaxStatements int
	// SlowThreshold arms the slow-query ring: a successful query at or
	// over it is captured. 0 disables capture.
	SlowThreshold time.Duration
	// SlowCapacity sizes the ring (0 = DefaultSlowCapacity).
	SlowCapacity int
}

// Collector is the workload-statistics hub one DB owns: the statement
// registry, the global latency histogram, global outcome counters, and
// the slow-query ring. All methods are safe for concurrent use and
// nil-safe (a nil Collector is "telemetry disabled").
type Collector struct {
	cfg       Config
	startedAt time.Time

	queries, errors, sheds, rows atomic.Int64
	dropped                      atomic.Int64 // observations beyond MaxStatements
	stmtCount                    atomic.Int64

	lat    Histogram
	shards [shardCount]shard
	slow   slowLog
}

// New builds a Collector.
func New(cfg Config) *Collector {
	if cfg.MaxStatements <= 0 {
		cfg.MaxStatements = DefaultMaxStatements
	}
	if cfg.SlowCapacity <= 0 {
		cfg.SlowCapacity = DefaultSlowCapacity
	}
	c := &Collector{cfg: cfg, startedAt: time.Now()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*stmtEntry)
	}
	c.slow.init(cfg.SlowCapacity)
	return c
}

// SlowThreshold returns the armed slow-query threshold (0 = disabled).
func (c *Collector) SlowThreshold() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.SlowThreshold
}

// StartedAt returns the collector's creation (or last Reset) time.
func (c *Collector) StartedAt() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.startedAt
}

// entry returns the statement's registry slot, creating it under the
// statement cap; nil when the registry is full and the key is new.
func (c *Collector) entry(key string, fp uint64) *stmtEntry {
	sh := &c.shards[fp&(shardCount-1)]
	sh.mu.RLock()
	e := sh.m[key]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.m[key]; e != nil {
		return e
	}
	if c.stmtCount.Load() >= int64(c.cfg.MaxStatements) {
		return nil
	}
	c.stmtCount.Add(1)
	e = &stmtEntry{
		norm:       key,
		fp:         fp,
		byStrategy: make(map[string]int64, 2),
		ops:        make(map[string]*OpClassStats),
	}
	sh.m[key] = e
	return e
}

// Observe records one finished query under its normalized-SQL key.
// Beyond the registry's first sight of a statement it performs no
// allocation: a map read, atomic adds, and one short mutex.
func (c *Collector) Observe(key string, obs Obs) {
	if c == nil {
		return
	}
	c.queries.Add(1)
	switch obs.Outcome {
	case OutcomeOK:
		c.rows.Add(obs.Rows)
		c.lat.Record(obs.Elapsed)
	case OutcomeError:
		c.errors.Add(1)
	case OutcomeShed:
		c.sheds.Add(1)
	}
	e := c.entry(key, fnv64a(key))
	if e == nil {
		c.dropped.Add(1)
		return
	}
	e.observe(obs)
}

// ObserveOps folds a metrics-enabled query's per-operator
// est-vs-actual rows into the statement's per-class aggregate.
func (c *Collector) ObserveOps(key string, ops []OpObs) {
	if c == nil || len(ops) == 0 {
		return
	}
	if e := c.entry(key, fnv64a(key)); e != nil {
		e.observeOps(ops)
	}
}

// RecordSlow appends a captured offender to the slow-query ring.
func (c *Collector) RecordSlow(q SlowQuery) {
	if c == nil {
		return
	}
	c.slow.record(q)
}

// Latency snapshots the global latency histogram.
func (c *Collector) Latency() LatencySnapshot {
	if c == nil {
		return LatencySnapshot{}
	}
	return c.lat.Snapshot()
}

// Snapshot is the collector's full point-in-time report.
type Snapshot struct {
	StartedAt time.Time `json:"started_at"`

	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	Sheds   int64 `json:"sheds"`
	Rows    int64 `json:"rows"`

	Latency LatencySnapshot `json:"latency"`

	// Statements is sorted by TotalWall descending — the workload's
	// cost ranking; DroppedStatements counts observations that found
	// the registry full.
	Statements        []StatementStats `json:"statements"`
	DroppedStatements int64            `json:"dropped_statements,omitempty"`

	// Slow is the ring's contents, newest first; SlowTotal counts every
	// capture ever made (the ring overwrites).
	Slow      []SlowQuery `json:"slow,omitempty"`
	SlowTotal int64       `json:"slow_total"`
}

// Snapshot assembles the full report.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := Snapshot{
		StartedAt:         c.startedAt,
		Queries:           c.queries.Load(),
		Errors:            c.errors.Load(),
		Sheds:             c.sheds.Load(),
		Rows:              c.rows.Load(),
		Latency:           c.lat.Snapshot(),
		DroppedStatements: c.dropped.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		entries := make([]*stmtEntry, 0, len(sh.m))
		for _, e := range sh.m {
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
		for _, e := range entries {
			s.Statements = append(s.Statements, e.snapshot())
		}
	}
	sort.Slice(s.Statements, func(i, j int) bool {
		if s.Statements[i].TotalWall != s.Statements[j].TotalWall {
			return s.Statements[i].TotalWall > s.Statements[j].TotalWall
		}
		return s.Statements[i].Fingerprint < s.Statements[j].Fingerprint
	})
	s.Slow, s.SlowTotal = c.slow.snapshot()
	return s
}

// Reset clears every counter, statement entry, and slow-ring slot, and
// restamps StartedAt — the delta-measurement hook behind
// db.ResetStats. In-flight Observes may land on either side of the
// reset; each lands whole.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.queries.Store(0)
	c.errors.Store(0)
	c.sheds.Store(0)
	c.rows.Store(0)
	c.dropped.Store(0)
	c.lat.Reset()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.stmtCount.Add(-int64(len(sh.m)))
		sh.m = make(map[string]*stmtEntry)
		sh.mu.Unlock()
	}
	c.slow.reset()
	c.startedAt = time.Now()
}
