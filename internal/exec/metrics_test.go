package exec

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"disqo/internal/physical"
)

// Tests for the per-node metrics shards and the tracer hooks. The
// determinism tests mirror the Stats ones: every counter except
// WallNanos must be byte-identical for any worker count, because worker
// shards merge by summing monotone counters and morsel accounting is
// derived from input size alone. `go test -race` exercises the shard
// isolation.

// zeroWall clears the wall-clock field, the only nondeterministic one.
func zeroWall(nm []NodeMetrics) []NodeMetrics {
	for i := range nm {
		nm[i].WallNanos = 0
	}
	return nm
}

func TestNodeMetricsWorkerCountIndependent(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	ex1 := New(cat, Options{Cache: CacheAll, Workers: 1, Metrics: true})
	if _, err := ex1.Run(plan); err != nil {
		t.Fatal(err)
	}
	base := zeroWall(ex1.NodeMetrics())
	if len(base) == 0 {
		t.Fatal("Metrics on but no per-node counters collected")
	}
	for _, workers := range []int{2, 4, 8} {
		ex := New(cat, Options{Cache: CacheAll, Workers: workers, Metrics: true})
		if _, err := ex.Run(plan); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := zeroWall(ex.NodeMetrics())
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d metric slots, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if !reflect.DeepEqual(got[i], base[i]) {
				t.Errorf("workers=%d node #%d metrics differ:\n1 worker: %+v\n%d workers: %+v",
					workers, i, base[i], workers, got[i])
			}
		}
	}
}

func TestNodeMetricsContent(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	ex := New(cat, Options{Cache: CacheAll, Workers: 4, Metrics: true})
	rel, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ex.Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	nm := ex.NodeMetrics()
	rm := nm[root.ID()]
	if rm.Calls != 1 {
		t.Errorf("root Calls = %d, want 1", rm.Calls)
	}
	if rm.RowsOut != int64(rel.Cardinality()) {
		t.Errorf("root RowsOut = %d, want %d", rm.RowsOut, rel.Cardinality())
	}
	// The grouping consumes the filtered join output, so its input
	// morsel count is derived from that cardinality.
	var join physical.Node
	physical.Walk(root, func(n physical.Node) bool {
		if j, ok := n.(*physical.Join); ok && j.LCols != nil {
			join = n
		}
		return true
	})
	if join == nil {
		t.Fatal("no hash join in the physical plan")
	}
	jm := nm[join.ID()]
	if jm.HashBuildRows != 3000 {
		t.Errorf("join HashBuildRows = %d, want 3000 (build side)", jm.HashBuildRows)
	}
	if jm.Morsels == 0 {
		t.Error("join processed no morsels despite a 3000-tuple probe input")
	}
	if jm.RowsIn == 0 {
		t.Error("join credited no input rows")
	}
}

func TestNodeMetricsOffByDefault(t *testing.T) {
	cat := bigCatalog(t, 3000)
	ex := New(cat, Options{Cache: CacheAll, Workers: 4})
	if _, err := ex.Run(parallelPlan(t, cat)); err != nil {
		t.Fatal(err)
	}
	if nm := ex.NodeMetrics(); nm != nil {
		t.Errorf("NodeMetrics without Options.Metrics = %d slots, want nil", len(nm))
	}
}

func TestStatsGauges(t *testing.T) {
	cat := bigCatalog(t, 3000)
	ex := New(cat, Options{Cache: CacheAll, Workers: 4})
	rel, err := ex.Run(parallelPlan(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Elapsed <= 0 {
		t.Error("Stats.Elapsed not recorded")
	}
	if st.PeakTuples < int64(rel.Cardinality()) {
		t.Errorf("PeakTuples = %d, below the result cardinality %d",
			st.PeakTuples, rel.Cardinality())
	}
}

func TestStatsMergeGauges(t *testing.T) {
	a := Stats{TuplesOut: 10, PeakTuples: 500, Elapsed: 2 * time.Second}
	b := Stats{TuplesOut: 7, PeakTuples: 900, Elapsed: time.Second}
	a.merge(&b)
	if a.TuplesOut != 17 {
		t.Errorf("TuplesOut = %d, want 17 (counters sum)", a.TuplesOut)
	}
	if a.PeakTuples != 900 {
		t.Errorf("PeakTuples = %d, want 900 (gauges take the max)", a.PeakTuples)
	}
	if a.Elapsed != 2*time.Second {
		t.Errorf("Elapsed = %v, want 2s (gauges take the max)", a.Elapsed)
	}
}

// recordingTracer counts span events under a mutex; morsel workers emit
// concurrently.
type recordingTracer struct {
	mu      sync.Mutex
	opens   int
	closes  int
	morsels int
	rows    int64
}

func (r *recordingTracer) OpOpen(physical.Node) {
	r.mu.Lock()
	r.opens++
	r.mu.Unlock()
}

func (r *recordingTracer) OpMorsel(_ physical.Node, lo, hi int) {
	r.mu.Lock()
	r.morsels++
	r.mu.Unlock()
}

func (r *recordingTracer) OpClose(_ physical.Node, rows int64, _ time.Duration) {
	r.mu.Lock()
	r.closes++
	r.rows += rows
	r.mu.Unlock()
}

func TestTracerSpans(t *testing.T) {
	cat := bigCatalog(t, 3000)
	plan := parallelPlan(t, cat)
	tr := &recordingTracer{}
	ex := New(cat, Options{Cache: CacheAll, Workers: 4, Tracer: tr})
	if _, err := ex.Run(plan); err != nil {
		t.Fatal(err)
	}
	if tr.opens == 0 {
		t.Fatal("tracer saw no operator spans")
	}
	if tr.opens != tr.closes {
		t.Errorf("unbalanced spans: %d opens, %d closes", tr.opens, tr.closes)
	}
	if tr.morsels == 0 {
		t.Error("tracer saw no morsel events despite parallel-sized input")
	}
	if tr.rows == 0 {
		t.Error("tracer saw no output rows")
	}
}
