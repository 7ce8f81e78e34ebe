package disqo

// Workload-telemetry suite: the acceptance test drives a mixed workload
// (the Fig. 2/3 golden shapes under several strategies, cold and
// cached, plus one execution error and one admission shed) while the
// test itself keeps driver-side ground truth, then requires
// db.WorkloadStats() to match it exactly — and the Prometheus endpoint
// to serve the same counters. The rest pins the concurrent-registry
// identity, the disabled-telemetry allocation golden, ResetStats
// semantics, the slow-query log, and the debug listener's exposition
// well-formedness. Internal test (package disqo) to reuse chaosDBWith,
// gateDB, and blockTracer.

import (
	"encoding/json"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"disqo/internal/strategy"
	"disqo/internal/testutil"
)

// latBucket is the log2 bucket index a duration lands in — the
// granularity at which the histogram remembers latencies, and therefore
// the tolerance every percentile assertion uses.
func latBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// stmtTruth is the driver-side ground truth for one statement.
type stmtTruth struct {
	calls, errors, sheds, rows  int64
	planHits, resultHits, waits int64
	byStrategy                  map[string]int64
}

func TestWorkloadStatsGroundTruth(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := chaosDBWith(t, 300, false,
		WithMaxConcurrent(1), withMaxQueued(-1), WithDebugAddr("127.0.0.1:0"))
	defer db.Close()

	truth := make(map[string]*stmtTruth)
	stmt := func(sql string) *stmtTruth {
		k := normalizeSQL(sql)
		if truth[k] == nil {
			truth[k] = &stmtTruth{byStrategy: make(map[string]int64)}
		}
		return truth[k]
	}
	var (
		wantQueries, wantErrors, wantSheds, wantRows int64
		wantAdmitted                                 int64
		walls                                        []time.Duration
	)

	// Phase 1 — the golden shapes, each strategy twice: the first run
	// executes (admitted through the gate, fills both cache tiers), the
	// second is a plan hit + result-cache hit that never touches the
	// gate.
	shapes := []struct {
		sql   string
		strat Strategy
	}{
		{chaosQ1, Canonical},   // Fig. 2(a)
		{chaosQ1, strategy.S2}, // Fig. 2(b)
		{chaosQ1, Unnested},    // Fig. 2(c)
		{chaosQ2, Canonical},   // Fig. 3(a)
		{chaosQ2, Unnested},    // Fig. 3(b)
	}
	for _, sh := range shapes {
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			res, err := db.Query(sh.sql, WithStrategy(sh.strat))
			wall := time.Since(start)
			if err != nil {
				t.Fatalf("%s/%s rep %d: %v", sh.sql[:20], sh.strat, rep, err)
			}
			st := stmt(sh.sql)
			st.calls++
			st.rows += int64(len(res.Rows))
			st.byStrategy[string(sh.strat)]++
			wantQueries++
			wantRows += int64(len(res.Rows))
			walls = append(walls, wall)
			if rep == 0 {
				wantAdmitted++
			} else {
				st.planHits++
				st.resultHits++
			}
		}
	}

	// Phase 2 — one execution error: a statement the cache has never
	// seen, run under a tuple budget nothing fits in. It fails inside
	// the executor, after admission — every operator's output counts
	// against the budget, and the first, the scan of r, holds more than
	// one tuple — so it counts as admitted + error.
	errSQL := chaosQ1 + ` AND a3 >= 0`
	if _, err := db.Query(errSQL, WithStrategy(Unnested), WithTupleLimit(1)); err == nil {
		t.Fatal("tuple-limited query unexpectedly succeeded")
	}
	stmt(errSQL).calls++
	stmt(errSQL).errors++
	stmt(errSQL).byStrategy[string(Unnested)]++
	wantQueries++
	wantErrors++
	wantAdmitted++

	// Phase 3 — one shed: a traced query (tracers bypass the result
	// cache) parks mid-execution holding the DB's only slot; with a
	// zero-length queue the next cold statement is rejected with
	// ErrOverloaded at the gate.
	bt := newBlockTracer(false)
	tracerDone := make(chan struct{})
	var tracerWall time.Duration
	var tracerRows int64
	go func() {
		defer close(tracerDone)
		start := time.Now()
		res, err := db.Query(chaosQ1, WithStrategy(Unnested), WithTracer(bt))
		tracerWall = time.Since(start)
		if err != nil {
			t.Errorf("tracer query: %v", err)
			return
		}
		tracerRows = int64(len(res.Rows))
	}()
	<-bt.started
	shedSQL := chaosQ2 + ` OR a4 > 1501`
	if _, err := db.Query(shedSQL, WithStrategy(Unnested)); !errors.Is(err, ErrOverloaded) {
		close(bt.release)
		<-tracerDone
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	stmt(shedSQL).calls++
	stmt(shedSQL).sheds++
	stmt(shedSQL).byStrategy[string(Unnested)]++
	wantQueries++
	wantSheds++
	close(bt.release)
	<-tracerDone
	st := stmt(chaosQ1)
	st.calls++
	st.rows += tracerRows
	st.planHits++ // the tracer reused the cached unnested plan
	st.byStrategy[string(Unnested)]++
	wantQueries++
	wantRows += tracerRows
	wantAdmitted++
	walls = append(walls, tracerWall)

	ws := db.WorkloadStats()
	if ws.Queries != wantQueries || ws.Errors != wantErrors || ws.Sheds != wantSheds || ws.RowsReturned != wantRows {
		t.Fatalf("global counters: got q=%d e=%d s=%d r=%d, want q=%d e=%d s=%d r=%d",
			ws.Queries, ws.Errors, ws.Sheds, ws.RowsReturned,
			wantQueries, wantErrors, wantSheds, wantRows)
	}
	if got := int64(len(walls)); ws.Latency.Count != got {
		t.Fatalf("latency count: got %d samples, want %d successes", ws.Latency.Count, got)
	}
	if ws.Admission.Admitted != wantAdmitted || ws.Admission.Shed != wantSheds {
		t.Fatalf("admission: got admitted=%d shed=%d, want admitted=%d shed=%d",
			ws.Admission.Admitted, ws.Admission.Shed, wantAdmitted, wantSheds)
	}
	if ws.DroppedStatements != 0 {
		t.Fatalf("dropped statements: got %d, want 0", ws.DroppedStatements)
	}

	// Per-statement registry must match the driver's book exactly.
	if len(ws.Statements) != len(truth) {
		t.Fatalf("registry size: got %d statements, want %d", len(ws.Statements), len(truth))
	}
	for _, got := range ws.Statements {
		want := truth[got.SQL]
		if want == nil {
			t.Fatalf("unexpected statement in registry: %q", got.SQL)
		}
		if got.Calls != want.calls || got.Errors != want.errors || got.Sheds != want.sheds ||
			got.Rows != want.rows || got.PlanHits != want.planHits ||
			got.ResultHits != want.resultHits || got.FlightWaits != want.waits {
			t.Errorf("statement %q: got calls=%d errs=%d sheds=%d rows=%d plan=%d result=%d waits=%d, want calls=%d errs=%d sheds=%d rows=%d plan=%d result=%d waits=%d",
				got.SQL, got.Calls, got.Errors, got.Sheds, got.Rows, got.PlanHits, got.ResultHits, got.FlightWaits,
				want.calls, want.errors, want.sheds, want.rows, want.planHits, want.resultHits, want.waits)
		}
		for strat, n := range want.byStrategy {
			if got.ByStrategy[strat] != n {
				t.Errorf("statement %q strategy %s: got %d, want %d", got.SQL, strat, got.ByStrategy[strat], n)
			}
		}
	}

	// Percentiles must land within one log2 bucket of the true wall
	// times (the wall is measured around the API call, the histogram
	// inside it, so a boundary sample may differ by one bucket).
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	for _, q := range []struct {
		p    float64
		est  time.Duration
		name string
	}{{0.50, ws.Latency.P50, "p50"}, {0.95, ws.Latency.P95, "p95"}, {0.99, ws.Latency.P99, "p99"}} {
		idx := int(float64(len(walls))*q.p+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		trueQ := walls[idx]
		if d := latBucket(q.est) - latBucket(trueQ); d < -1 || d > 1 {
			t.Errorf("%s: estimate %v (bucket %d) vs true %v (bucket %d): off by more than one log2 bucket",
				q.name, q.est, latBucket(q.est), trueQ, latBucket(trueQ))
		}
	}

	// The Prometheus endpoint must serve the same counters.
	addr, err := db.DebugAddr()
	if err != nil {
		t.Fatal(err)
	}
	families, samples := scrapeMetrics(t, addr)
	for name, want := range map[string]float64{
		"disqo_queries_total":        float64(wantQueries),
		"disqo_query_errors_total":   float64(wantErrors),
		"disqo_queries_shed_total":   float64(wantSheds),
		"disqo_rows_returned_total":  float64(wantRows),
		"disqo_admission_shed_total": float64(wantSheds),
	} {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("metric %s: got %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if typ := families["disqo_query_duration_seconds"]; typ != "histogram" {
		t.Errorf("disqo_query_duration_seconds: got type %q, want histogram", typ)
	}
	var stmtCalls float64
	for line, v := range samples {
		if strings.HasPrefix(line, "disqo_statement_calls_total{") {
			stmtCalls += v
		}
	}
	if stmtCalls != float64(wantQueries) {
		t.Errorf("statement calls series sum: got %v, want %d", stmtCalls, wantQueries)
	}
}

// TestTelemetryConcurrentSessions races 8 sessions over one statement
// and requires the registry to keep a single identity with exact
// totals, whichever mix of executions, cache hits, and single-flight
// waits the race produced.
func TestTelemetryConcurrentSessions(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 200)
	const sessions, perSession = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSession; j++ {
				if _, err := db.Query(gateQuery); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	const total = sessions * perSession
	ws := db.WorkloadStats()
	if ws.Queries != total || ws.Errors != 0 || ws.Sheds != 0 {
		t.Fatalf("got q=%d e=%d s=%d, want q=%d e=0 s=0", ws.Queries, ws.Errors, ws.Sheds, total)
	}
	if ws.RowsReturned != total*200 {
		t.Fatalf("rows: got %d, want %d", ws.RowsReturned, total*200)
	}
	if len(ws.Statements) != 1 {
		t.Fatalf("registry: got %d statements, want 1 identity", len(ws.Statements))
	}
	st := ws.Statements[0]
	if st.Calls != total || st.Latency.Count != total {
		t.Fatalf("statement: got calls=%d latency-samples=%d, want %d of each", st.Calls, st.Latency.Count, total)
	}
	// Every call was served somehow: execution, cached result, or a
	// single-flight wait; the split is racy but the sum is not.
	executions := st.Calls - st.ResultHits - st.FlightWaits
	if executions < 1 {
		t.Fatalf("accounting: %d executions from calls=%d result=%d waits=%d",
			executions, st.Calls, st.ResultHits, st.FlightWaits)
	}
	var byStrat int64
	for _, n := range st.ByStrategy {
		byStrat += n
	}
	if byStrat != total {
		t.Fatalf("by-strategy split sums to %d, want %d", byStrat, total)
	}
}

// TestDisabledTelemetryWarmHitAllocs is the allocation golden for the
// hot path: a warm result-cache hit, telemetry included, must cost no
// more than the pre-telemetry baseline of 13 allocations — the workload
// statistics add none, because Observe only touches pre-built map
// entries and atomics (its own zero-allocation guarantee is pinned in
// the telemetry package). The name dates from when telemetry could be
// switched off; the "enabled" case is the one path that remains.
func TestDisabledTelemetryWarmHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation goldens are meaningless under the race detector")
	}
	const baseline = 13
	t.Run("enabled", func(t *testing.T) {
		db := gateDB(t, 64)
		for i := 0; i < 3; i++ { // warm the plan and result tiers
			if _, err := db.Query(gateQuery); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := db.Query(gateQuery); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > baseline {
			t.Fatalf("warm hit allocates %.0f, budget %d", allocs, baseline)
		}
	})
}

// TestResetStats: counters go to zero, cached entries and gauges stay.
func TestResetStats(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 50)
	for i := 0; i < 3; i++ {
		if _, err := db.Query(gateQuery); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WorkloadStats()
	if before.Queries != 3 || before.Cache.Result.Hits == 0 || before.Admission.Admitted == 0 {
		t.Fatalf("workload not registered before reset: %+v", before)
	}
	entries := before.Cache.Result.Entries

	db.ResetStats()
	ws := db.WorkloadStats()
	if ws.Queries != 0 || ws.Errors != 0 || ws.RowsReturned != 0 || ws.Latency.Count != 0 ||
		len(ws.Statements) != 0 || ws.SlowTotal != 0 {
		t.Fatalf("workload counters survived reset: %+v", ws)
	}
	if ws.Admission.Admitted != 0 || ws.Admission.Shed != 0 || ws.Admission.QueueWait != 0 {
		t.Fatalf("admission counters survived reset: %+v", ws.Admission)
	}
	if ws.Cache.Result.Hits != 0 || ws.Cache.Plan.Hits != 0 {
		t.Fatalf("cache counters survived reset: %+v", ws.Cache)
	}
	if ws.Cache.Result.Entries != entries {
		t.Fatalf("reset evicted entries: got %d, want %d", ws.Cache.Result.Entries, entries)
	}

	// The surviving entry still serves: the next query is a warm hit.
	if _, err := db.Query(gateQuery); err != nil {
		t.Fatal(err)
	}
	after := db.WorkloadStats()
	if after.Queries != 1 || after.Cache.Result.Hits != 1 {
		t.Fatalf("post-reset query: got queries=%d result-hits=%d, want 1/1", after.Queries, after.Cache.Result.Hits)
	}
}

// TestSlowQueryLog: an armed 1ns threshold captures every executed
// query with its ANALYZE-annotated plan attached.
func TestSlowQueryLog(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 50, WithSlowQueryThreshold(time.Nanosecond))
	if _, err := db.Query(gateQuery); err != nil {
		t.Fatal(err)
	}
	ws := db.WorkloadStats()
	if ws.SlowTotal < 1 || len(ws.SlowQueries) < 1 {
		t.Fatalf("slow log empty after armed query: total=%d entries=%d", ws.SlowTotal, len(ws.SlowQueries))
	}
	q := ws.SlowQueries[len(ws.SlowQueries)-1] // oldest = the execution
	if q.SQL != normalizeSQL(gateQuery) {
		t.Fatalf("slow entry SQL: got %q", q.SQL)
	}
	if q.Strategy != string(Unnested) || q.Elapsed <= 0 || q.Rows != 50 {
		t.Fatalf("slow entry: %+v", q)
	}
	if !strings.Contains(q.Plan, "Scan") {
		t.Fatalf("slow entry lacks an annotated plan: %q", q.Plan)
	}
}

// TestDebugEndpoint exercises the opt-in listener: well-formed
// exposition (every sample's family is TYPE-declared), monotone
// counters across scrapes, JSON /statz, a live pprof index, bind-error
// surfacing, and idempotent Close.
func TestDebugEndpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	db := gateDB(t, 50, WithDebugAddr("127.0.0.1:0"))
	defer db.Close()
	addr, err := db.DebugAddr()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := db.Query(gateQuery); err != nil {
		t.Fatal(err)
	}
	_, first := scrapeMetrics(t, addr)
	for i := 0; i < 4; i++ {
		if _, err := db.Query(gateQuery); err != nil {
			t.Fatal(err)
		}
	}
	_, second := scrapeMetrics(t, addr)
	for key, v1 := range first {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		if v2, ok := second[key]; ok && v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", key, v1, v2)
		}
	}
	if got, want := second["disqo_queries_total"], first["disqo_queries_total"]+4; got != want {
		t.Errorf("disqo_queries_total: got %v, want %v", got, want)
	}

	var statz map[string]any
	body := httpGet(t, "http://"+addr+"/statz")
	if err := json.Unmarshal(body, &statz); err != nil {
		t.Fatalf("/statz is not JSON: %v", err)
	}
	if statz["queries"] != second["disqo_queries_total"] {
		t.Fatalf("/statz queries = %v, /metrics disqo_queries_total = %v", statz["queries"], second["disqo_queries_total"])
	}
	if idx := httpGet(t, "http://"+addr+"/debug/pprof/"); !strings.Contains(string(idx), "goroutine") {
		t.Fatal("/debug/pprof/ index missing profiles")
	}

	// A second DB on the same port records the bind error for DebugAddr.
	db2, _ := Open(WithDebugAddr(addr))
	if _, err := db2.DebugAddr(); err == nil {
		t.Fatal("expected bind error on occupied port")
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still serving after Close")
	}
}

// scrapeMetrics fetches and parses a Prometheus text exposition,
// failing the test on any structural violation: sample lines must
// parse, and every sample's family must carry a preceding # TYPE.
func scrapeMetrics(t *testing.T, addr string) (families map[string]string, samples map[string]float64) {
	t.Helper()
	body := httpGet(t, "http://"+addr+"/metrics")
	families = make(map[string]string)
	samples = make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				families[f[2]] = f[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && families[cut] == "histogram" {
				base = cut
				break
			}
		}
		if _, ok := families[base]; !ok {
			t.Fatalf("sample %q has no # TYPE declaration", line)
		}
		samples[key] = v
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	return families, samples
}

// httpGet fetches a URL over a keep-alive-free transport so the debug
// server owns no idle connections when the leak check runs.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}
