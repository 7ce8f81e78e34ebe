package telemetry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileBrackets checks the core accuracy contract: for
// random sample sets, every reported quantile is the log2-bucket upper
// bound of the true order statistic — i.e. true <= estimate < 2*true
// (within one bucket).
func TestHistogramQuantileBrackets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		samples := make([]time.Duration, n)
		var h Histogram
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(10 * time.Second)))
			h.Record(samples[i])
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
			rank := int(float64(n)*q+0.9999999) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= n {
				rank = n - 1
			}
			truth := samples[rank]
			got := h.Quantile(q)
			if got < truth {
				t.Fatalf("trial %d q=%v: estimate %v below true order statistic %v", trial, q, got, truth)
			}
			// Upper bound of truth's bucket: 2^bits.Len64(truth)-1.
			if truth > 0 && got >= 2*truth {
				t.Fatalf("trial %d q=%v: estimate %v not within one log2 bucket of %v", trial, q, got, truth)
			}
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", h.Quantile(0.5))
	}
	h.Record(0)
	h.Record(-5 * time.Second) // clamps to 0
	if got := h.Quantile(1.0); got != 0 {
		t.Fatalf("all-zero histogram p100 = %v, want 0", got)
	}
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	var nilH *Histogram
	nilH.Record(time.Second) // must not panic
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram should report zeros")
	}
	if s := nilH.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot should be empty")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, want Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		d := time.Duration(rng.Int63n(int64(time.Minute)))
		want.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	if a.Count() != want.Count() || a.Sum() != want.Sum() {
		t.Fatalf("merged count/sum %d/%v, want %d/%v", a.Count(), a.Sum(), want.Count(), want.Sum())
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if a.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v: merged %v, direct %v", q, a.Quantile(q), want.Quantile(q))
		}
	}
	a.Reset()
	if a.Count() != 0 || a.Quantile(0.5) != 0 {
		t.Fatal("reset histogram should be empty")
	}
}

func TestCollectorCounts(t *testing.T) {
	c := New(Config{})
	key := "SELECT 1"
	for i := 0; i < 5; i++ {
		c.Observe(key, Obs{Strategy: "unnested", Elapsed: time.Millisecond, Rows: 2, Outcome: OutcomeOK, Source: SourceExecution})
	}
	c.Observe(key, Obs{Strategy: "unnested", Outcome: OutcomeError})
	c.Observe(key, Obs{Strategy: "unnested", Outcome: OutcomeShed})
	c.Observe(key, Obs{Strategy: "canonical", Elapsed: 2 * time.Millisecond, Rows: 2, Outcome: OutcomeOK, Source: SourceResultCache, PlanHit: true})

	snap := c.Snapshot()
	if snap.Queries != 8 || snap.Errors != 1 || snap.Sheds != 1 || snap.Rows != 12 {
		t.Fatalf("global counters: %+v", snap)
	}
	if len(snap.Statements) != 1 {
		t.Fatalf("statements = %d, want 1", len(snap.Statements))
	}
	st := snap.Statements[0]
	if st.SQL != key || st.Calls != 8 || st.Errors != 1 || st.Sheds != 1 || st.Rows != 12 {
		t.Fatalf("statement stats: %+v", st)
	}
	if st.ResultHits != 1 || st.PlanHits != 1 || st.FlightWaits != 0 {
		t.Fatalf("hit counters: %+v", st)
	}
	if st.ByStrategy["unnested"] != 7 || st.ByStrategy["canonical"] != 1 {
		t.Fatalf("by-strategy: %v", st.ByStrategy)
	}
	if st.Latency.Count != 6 {
		t.Fatalf("latency count = %d, want 6 (OK only)", st.Latency.Count)
	}
	if got := st.CacheHitRate(); got != 1.0/8 {
		t.Fatalf("cache hit rate = %v", got)
	}
}

func TestCollectorOps(t *testing.T) {
	c := New(Config{})
	key := "SELECT * FROM r"
	c.ObserveOps(key, []OpObs{
		{Class: "Scan", EstRows: 100, ActualRows: 90},
		{Class: "Filter", EstRows: 50, ActualRows: 10},
	})
	c.ObserveOps(key, []OpObs{{Class: "Scan", EstRows: 100, ActualRows: 95}})
	st := c.Snapshot().Statements[0]
	if len(st.Ops) != 2 {
		t.Fatalf("ops = %+v", st.Ops)
	}
	// Sorted by class: Filter, Scan.
	if st.Ops[0].Class != "Filter" || st.Ops[0].Calls != 1 || st.Ops[0].ActualRows != 10 {
		t.Fatalf("filter agg: %+v", st.Ops[0])
	}
	if st.Ops[1].Class != "Scan" || st.Ops[1].Calls != 2 || st.Ops[1].EstRows != 200 || st.Ops[1].ActualRows != 185 {
		t.Fatalf("scan agg: %+v", st.Ops[1])
	}
}

// TestCollectorStatementCap checks overflow accounting: statements past
// MaxStatements are dropped in aggregate, never silently.
func TestCollectorStatementCap(t *testing.T) {
	c := New(Config{MaxStatements: 4})
	for i := 0; i < 10; i++ {
		c.Observe(fmt.Sprintf("SELECT %d", i), Obs{Outcome: OutcomeOK, Elapsed: time.Millisecond})
	}
	snap := c.Snapshot()
	if len(snap.Statements) != 4 {
		t.Fatalf("statements = %d, want 4", len(snap.Statements))
	}
	if snap.DroppedStatements != 6 {
		t.Fatalf("dropped = %d, want 6", snap.DroppedStatements)
	}
	if snap.Queries != 10 {
		t.Fatalf("queries = %d, want 10 (drops still count globally)", snap.Queries)
	}
}

// TestCollectorConcurrent hammers one collector from 16 goroutines and
// checks totals add up — run under -race this also proves the
// synchronization story.
func TestCollectorConcurrent(t *testing.T) {
	c := New(Config{})
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("SELECT %d", g%4) // 4 distinct statements
			for i := 0; i < perG; i++ {
				c.Observe(key, Obs{Strategy: "unnested", Elapsed: time.Duration(i) * time.Microsecond, Rows: 1, Outcome: OutcomeOK})
				if i%100 == 0 {
					c.ObserveOps(key, []OpObs{{Class: "Scan", EstRows: 1, ActualRows: 1}})
					_ = c.Snapshot() // readers race writers safely
				}
			}
		}(g)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Queries != goroutines*perG {
		t.Fatalf("queries = %d, want %d", snap.Queries, goroutines*perG)
	}
	if len(snap.Statements) != 4 {
		t.Fatalf("statements = %d, want 4", len(snap.Statements))
	}
	var calls int64
	for _, st := range snap.Statements {
		calls += st.Calls
	}
	if calls != goroutines*perG {
		t.Fatalf("per-statement calls sum = %d, want %d", calls, goroutines*perG)
	}
}

func TestSlowLogRing(t *testing.T) {
	c := New(Config{SlowThreshold: time.Millisecond, SlowCapacity: 3})
	for i := 0; i < 5; i++ {
		c.RecordSlow(SlowQuery{SQL: fmt.Sprintf("q%d", i), Elapsed: time.Duration(i) * time.Second})
	}
	snap := c.Snapshot()
	if snap.SlowTotal != 5 {
		t.Fatalf("slow total = %d, want 5", snap.SlowTotal)
	}
	if len(snap.Slow) != 3 {
		t.Fatalf("ring length = %d, want 3", len(snap.Slow))
	}
	// Newest first: q4, q3, q2.
	for i, want := range []string{"q4", "q3", "q2"} {
		if snap.Slow[i].SQL != want {
			t.Fatalf("slot %d = %s, want %s (full: %+v)", i, snap.Slow[i].SQL, want, snap.Slow)
		}
	}
}

func TestSlowLogPartialFill(t *testing.T) {
	c := New(Config{SlowCapacity: 8})
	c.RecordSlow(SlowQuery{SQL: "a"})
	c.RecordSlow(SlowQuery{SQL: "b"})
	slow, total := c.slow.snapshot()
	if total != 2 || len(slow) != 2 || slow[0].SQL != "b" || slow[1].SQL != "a" {
		t.Fatalf("partial ring: total=%d %+v", total, slow)
	}
}

func TestCollectorReset(t *testing.T) {
	c := New(Config{SlowCapacity: 4})
	c.Observe("SELECT 1", Obs{Outcome: OutcomeOK, Elapsed: time.Millisecond, Rows: 3})
	c.RecordSlow(SlowQuery{SQL: "SELECT 1"})
	c.Reset()
	snap := c.Snapshot()
	if snap.Queries != 0 || snap.Rows != 0 || len(snap.Statements) != 0 || snap.SlowTotal != 0 || len(snap.Slow) != 0 {
		t.Fatalf("post-reset snapshot not empty: %+v", snap)
	}
	// The registry must keep working after reset.
	c.Observe("SELECT 2", Obs{Outcome: OutcomeOK, Elapsed: time.Millisecond})
	if got := c.Snapshot(); got.Queries != 1 || len(got.Statements) != 1 {
		t.Fatalf("post-reset observe: %+v", got)
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Observe("SELECT 1", Obs{Outcome: OutcomeOK}) // must not panic
	c.ObserveOps("SELECT 1", []OpObs{{Class: "Scan"}})
	c.RecordSlow(SlowQuery{})
	c.Reset()
	if c.SlowThreshold() != 0 {
		t.Fatal("nil threshold")
	}
	if s := c.Snapshot(); s.Queries != 0 {
		t.Fatal("nil snapshot")
	}
	if l := c.Latency(); l.Count != 0 {
		t.Fatal("nil latency")
	}
}

// TestObserveZeroAlloc proves the steady-state hot path allocates
// nothing once a statement's entry exists.
func TestObserveZeroAlloc(t *testing.T) {
	c := New(Config{})
	key := "SELECT 1"
	obs := Obs{Strategy: "unnested", Elapsed: time.Millisecond, Rows: 1, Outcome: OutcomeOK}
	c.Observe(key, obs) // create the entry
	if got := testing.AllocsPerRun(200, func() { c.Observe(key, obs) }); got != 0 {
		t.Fatalf("Observe allocates %v per call on the steady state, want 0", got)
	}
}

func TestExpositionFormat(t *testing.T) {
	var e Exposition
	e.Family("disqo_queries_total", "counter", "Total queries.")
	e.Value("", 42)
	e.Family("disqo_statement_calls_total", "counter", "Calls per statement.")
	e.Value("", 7, "fingerprint", "deadbeef00000000")
	e.Value("", 3.5, "fingerprint", `with"quote and \slash`)
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	e.Family("disqo_query_duration_seconds", "histogram", "Latency.")
	e.Histogram(h.Snapshot())
	out := string(e.Bytes())

	for _, want := range []string{
		"# HELP disqo_queries_total Total queries.\n",
		"# TYPE disqo_queries_total counter\n",
		"disqo_queries_total 42\n",
		`disqo_statement_calls_total{fingerprint="deadbeef00000000"} 7` + "\n",
		`disqo_statement_calls_total{fingerprint="with\"quote and \\slash"} 3.5` + "\n",
		"# TYPE disqo_query_duration_seconds histogram\n",
		`le="+Inf"} 2` + "\n",
		"disqo_query_duration_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative and end at count.
	if !strings.Contains(out, `disqo_query_duration_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
}

func TestSnapshotOrdering(t *testing.T) {
	c := New(Config{})
	c.Observe("SELECT slow", Obs{Outcome: OutcomeOK, Elapsed: time.Second})
	c.Observe("SELECT fast", Obs{Outcome: OutcomeOK, Elapsed: time.Millisecond})
	snap := c.Snapshot()
	if snap.Statements[0].SQL != "SELECT slow" {
		t.Fatalf("want TotalWall-descending order, got %q first", snap.Statements[0].SQL)
	}
	sorted := snap.SortedStatements()
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].Fingerprint < sorted[j].Fingerprint }) {
		t.Fatal("SortedStatements not fingerprint-ordered")
	}
}
