package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"disqo"
	"disqo/internal/algebra"
	"disqo/internal/exec"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/stats"
	"disqo/internal/translate"
	"disqo/internal/wire"
)

// maxSpans bounds the spans kept for the trace file; the ledger is folded
// from every span as it closes, so the bound costs detail, not accuracy.
const maxSpans = 200_000

// span is one timed interval: a request (root, parent 0) or a call into
// one layer made on its behalf. Times are nanoseconds since the trace
// began; the spans of one request share req.
type span struct {
	id, parent int32
	req        int32
	name       int32
	start, end int64
}

// tracer records spans in memory and folds them into a ledger.
type tracer struct {
	began   time.Time
	names   []string
	nameIdx map[string]int32
	spans   []span
	dropped int
	nextID  int32
	req     int32
	led     ledger
}

// The staged layers, in pipeline order. Their names are the span names
// and the prefixes of the per-layer metrics.
const (
	layerParse     = "sqlparser.parse"
	layerTranslate = "translate.translate"
	layerRewrite   = "rewrite.rewrite"
	layerLower     = "physical.lower"
	layerRun       = "exec.run"
	layerPlanCost  = "stats.plancost"
)

// planLayers are the layers whose allocations are counted per statement.
var planLayers = []string{layerParse, layerTranslate, layerRewrite, layerLower}

// opClasses are the operator classes exec.op.<class>.self_ms reports.
var opClasses = []string{"scan", "select", "bypass_select", "join", "bypass_join", "outer_join",
	"group", "binary_group", "map", "project", "union", "distinct", "sort"}

// ledger is what the spans and the engine's per-operator reports add up
// to over a traced window.
type ledger struct {
	layerUS  map[string][]float64 // per-statement microseconds of each staged layer
	stmts    int                  // statements staged
	steps    int                  // rewrite trace entries
	eqv5     int                  // statements whose trace applies Eqv. 5
	nodes    int                  // physical nodes lowered
	vecNodes int                  // of which have a vectorized kernel
	// Where the public path does everything itself (no cache can serve
	// the statement), its latency and the staged sum are comparable:
	// overheadUS holds public minus staged, statement by statement.
	overheadUS []float64
	mismatches int // staged rows that differ from the public result

	profiled   int                // statements run with per-operator metrics
	opSelfMS   map[string]float64 // operator class → summed self time
	selfMS     float64            // all operators' self time
	rowpathMS  float64            // of which in operators no kernel served
	rowsIn     int64
	rowsOut    int64 // rows returned to the caller
	calls      int64
	vecCalls   int64
	qerrLogSum float64
	qerrN      int

	encodeNS, decodeNS  int64
	wireRows, wireBytes int64
}

func newTracer() *tracer {
	return &tracer{began: time.Now(), nameIdx: map[string]int32{}, led: ledger{
		layerUS: map[string][]float64{}, opSelfMS: map[string]float64{}}}
}

func (t *tracer) nameOf(name string) int32 {
	if i, ok := t.nameIdx[name]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = i
	return i
}

// begin opens a span; end closes it, keeps it, and returns its duration.
func (t *tracer) begin(name string, parent int32) span {
	t.nextID++
	return span{id: t.nextID, parent: parent, req: t.req, name: t.nameOf(name),
		start: time.Since(t.began).Nanoseconds()}
}

func (t *tracer) end(s span) time.Duration {
	s.end = time.Since(t.began).Nanoseconds()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	return time.Duration(s.end - s.start)
}

// timed runs fn inside a span under parent and returns its duration.
func (t *tracer) timed(name string, parent int32, fn func()) time.Duration {
	s := t.begin(name, parent)
	fn()
	return t.end(s)
}

// staged runs one SELECT through the engine's layers one public function
// at a time, on the instance's private catalog, the way DB.Query strings
// them together: parse, translate, rewrite with every capability, lower
// and vectorize, run. Each call is a span under parent. It returns the
// rows and the sum of those five layer times; the cost estimate, which
// the default strategy never asks for, is timed but not summed.
func (in *instance) staged(t *tracer, parent int32, sql string) ([][]disqo.Value, time.Duration, error) {
	led := &t.led
	var (
		err   error
		total time.Duration
	)
	layer := func(name string, fn func()) {
		d := t.timed(name, parent, fn)
		led.layerUS[name] = append(led.layerUS[name], float64(d.Nanoseconds())/1e3)
		if name != layerPlanCost {
			total += d
		}
	}
	snap := in.cat.Snapshot()

	var stmt *sqlparser.SelectStmt
	layer(layerParse, func() { stmt, err = sqlparser.Parse(sql) })
	if err != nil {
		return nil, 0, err
	}
	var canonical algebra.Op
	layer(layerTranslate, func() { canonical, err = translate.New(snap).Translate(stmt) })
	if err != nil {
		return nil, 0, err
	}
	var plan algebra.Op
	rw := rewrite.New(snap, rewrite.AllCaps())
	layer(layerRewrite, func() { plan, err = rw.Rewrite(canonical) })
	if err != nil {
		return nil, 0, err
	}
	ex := exec.New(snap, exec.Options{Cache: exec.CacheAll, Workers: in.workers, Path: exec.PathVector})
	defer ex.Close()
	var root physical.Node
	layer(layerLower, func() { root, err = ex.Plan(plan) })
	if err != nil {
		return nil, 0, err
	}
	var rows [][]disqo.Value
	layer(layerRun, func() {
		rel, rerr := ex.Run(plan)
		if err = rerr; err == nil {
			rows = rel.Tuples
		}
	})
	if err != nil {
		return nil, 0, err
	}
	layer(layerPlanCost, func() { stats.New(snap).PlanCost(plan) })

	led.stmts++
	led.steps += len(rw.Trace)
	for _, step := range rw.Trace {
		if strings.Contains(step, "Eqv. 5") {
			led.eqv5++
			break
		}
	}
	physical.Walk(root, func(n physical.Node) bool {
		led.nodes++
		if physical.Vectorizable(n) {
			led.vecNodes++
		}
		return true
	})
	return rows, total, nil
}

// planAllocs counts the heap objects each planning layer allocates for a
// statement, on up to limit statements of every read op, and reports the
// median per layer. It reads runtime.MemStats around each call, which
// stops the world, so it runs apart from the timed passes.
func (in *instance) planAllocs(limit int, m map[string]float64) error {
	allocs := map[string][]float64{}
	var ms runtime.MemStats
	count := func(name string, fn func()) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		fn()
		runtime.ReadMemStats(&ms)
		allocs[name] = append(allocs[name], float64(ms.Mallocs-before))
	}
	snap := in.cat.Snapshot()
	for i := range in.cycle {
		o := &in.cycle[i]
		if in.w.classes[o.class].write {
			continue
		}
		for _, sql := range o.stmts[:min(limit, len(o.stmts))] {
			var (
				err       error
				stmt      *sqlparser.SelectStmt
				canonical algebra.Op
				plan      algebra.Op
			)
			count(layerParse, func() { stmt, err = sqlparser.Parse(sql) })
			if err == nil {
				count(layerTranslate, func() { canonical, err = translate.New(snap).Translate(stmt) })
			}
			if err == nil {
				count(layerRewrite, func() { plan, err = rewrite.New(snap, rewrite.AllCaps()).Rewrite(canonical) })
			}
			if err == nil {
				ex := exec.New(snap, exec.Options{Cache: exec.CacheAll, Workers: in.workers, Path: exec.PathVector})
				count(layerLower, func() { _, err = ex.Plan(plan) })
				ex.Close()
			}
			if err != nil {
				return fmt.Errorf("%s: counting allocations of %q: %w", in.w.name, sql, err)
			}
		}
	}
	for _, name := range planLayers {
		m[strings.SplitN(name, ".", 2)[0]+".allocs_per_stmt"] = percentile(allocs[name], 0.5)
	}
	return nil
}

// operatorClass maps a physical operator label to its reporting class.
// Stream nodes select one side of a bypass operator and belong to that
// operator's class, which the caller resolves through the child.
func operatorClass(label string) string {
	name := label
	if i := strings.IndexAny(label, "(["); i > 0 {
		name = label[:i]
	}
	switch {
	case name == "Scan":
		return "scan"
	case name == "Filter":
		return "select"
	case name == "Filter±":
		return "bypass_select"
	case name == "BypassJoin":
		return "bypass_join"
	case strings.HasSuffix(name, "OuterJoin"):
		return "outer_join"
	case strings.HasSuffix(name, "Join"):
		return "join"
	case strings.HasSuffix(name, "BinaryGroup"):
		return "binary_group"
	case strings.HasSuffix(name, "Group"):
		return "group"
	case name == "Map" || name == "Number":
		return "map"
	case name == "Project" || name == "Rename":
		return "project"
	case strings.HasPrefix(name, "Union"):
		return "union"
	case name == "Distinct":
		return "distinct"
	case name == "Sort" || name == "Limit":
		return "sort"
	}
	return ""
}

// profile folds one statement's per-operator report into the ledger:
// self time per operator class, the share of it spent where no vectorized
// kernel ran, rows examined against rows returned, and the planner's
// estimate against what each operator produced.
func (led *ledger) profile(pm *disqo.PlanMetrics, resultRows int) {
	if pm == nil {
		return
	}
	led.profiled++
	led.rowsOut += int64(resultRows)
	ops := make([]opWall, len(pm.Ops))
	byID := make(map[int]*disqo.OpMetrics, len(pm.Ops))
	for i := range pm.Ops {
		o := &pm.Ops[i]
		ops[i] = opWall{id: o.ID, wall: float64(o.Wall.Nanoseconds()) / 1e6, children: o.Children}
		byID[o.ID] = o
	}
	self := selfTimes(ops)
	for i := range pm.Ops {
		o := &pm.Ops[i]
		cls := operatorClass(o.Op)
		if cls == "" && strings.HasPrefix(o.Op, "Stream") && len(o.Children) == 1 {
			if src := byID[o.Children[0]]; src != nil {
				cls = operatorClass(src.Op)
			}
		}
		if cls != "" {
			led.opSelfMS[cls] += self[o.ID]
		}
		led.selfMS += self[o.ID]
		if o.VecCalls == 0 {
			led.rowpathMS += self[o.ID]
		}
		led.rowsIn += o.RowsIn
		led.calls += o.Calls
		led.vecCalls += o.VecCalls
		if o.Calls > 0 {
			est, act := math.Max(o.EstRows, 1), math.Max(float64(o.RowsOut)/float64(o.Calls), 1)
			led.qerrLogSum += math.Log(math.Max(est/act, act/est))
			led.qerrN++
		}
	}
}

// tracedPass is runPass with every operation wrapped in a root span. The
// public call is one child span and is checked and timed exactly as in an
// untraced pass; the other children replay the same statement layer by
// layer from outside: the staged pipeline, a run with per-operator
// metrics, and, where results cross the wire, the codec on the rows the
// client received.
func (in *instance) tracedPass(t *tracer, ws *window, round int) {
	led := &t.led
	for i := range in.cycle {
		o := &in.cycle[i]
		cl := in.w.classes[o.class]
		v := o.variant(in.passes)
		t.req++
		root := t.begin("op."+cl.name, 0)

		var out outcome
		var err error
		elapsed := t.timed("public", root.id, func() { out, err = o.do(v) })
		ok := ws.record(o, v, round, out, err, elapsed)

		switch {
		case !ok:
		case cl.write:
			if o.mirror != nil {
				if err := o.mirror(in.cat); err != nil {
					ws.failed++
					logf("TRACE FAIL [%s/%s]: mirroring the write: %v", in.w.name, cl.name, err)
				}
			}
		default:
			sql := o.stmts[v]
			rows, sum, err := in.staged(t, root.id, sql)
			if err != nil || (outcome{rows: rows}).expect() != o.wants[v] {
				led.mismatches++
				logf("TRACE FAIL [%s/%s variant %d]: staged pipeline err %v, rows %d, want %+v", in.w.name, cl.name, v, err, len(rows), o.wants[v])
			}
			if o.plansEveryCall && err == nil {
				led.overheadUS = append(led.overheadUS, float64((elapsed-sum).Nanoseconds())/1e3)
			}
			t.timed("exec.profile", root.id, func() {
				res, err := in.db.Query(sql, disqo.WithMetrics(), disqo.WithWorkers(in.workers), disqo.WithTimeout(opDeadline))
				if err == nil {
					led.profile(res.Metrics(), len(res.Rows))
				}
			})
			if in.overWire {
				var data []byte
				d := t.timed("wire.encode", root.id, func() {
					data, err = json.Marshal(&wire.Response{ID: uint64(t.req), OK: true,
						Rows: wire.EncodeRows(out.rows), Stats: &wire.Stats{Rows: len(out.rows)}})
				})
				led.encodeNS += d.Nanoseconds()
				d = t.timed("wire.decode", root.id, func() {
					var resp wire.Response
					if err == nil {
						err = json.Unmarshal(data, &resp)
					}
					wire.DecodeRows(resp.Rows)
				})
				led.decodeNS += d.Nanoseconds()
				led.wireRows += int64(len(out.rows))
				led.wireBytes += int64(len(data))
			}
		}
		t.end(root)
	}
	in.passes++
	ws.passes++
}

// metrics turns the ledger into per-layer metrics.
func (led *ledger) metrics(m map[string]float64) {
	for _, name := range []string{layerParse, layerTranslate, layerRewrite, layerLower, layerPlanCost} {
		m[name+"_us"] = percentile(led.layerUS[name], 0.5)
	}
	m["exec.run_ms"] = percentile(led.layerUS[layerRun], 0.5) / 1e3
	if led.stmts > 0 {
		m["rewrite.steps_per_stmt"] = float64(led.steps) / float64(led.stmts)
		m["rewrite.eqv5_share"] = float64(led.eqv5) / float64(led.stmts)
		m["physical.nodes_per_plan"] = float64(led.nodes) / float64(led.stmts)
	}
	if led.nodes > 0 {
		m["physical.vectorizable_share"] = float64(led.vecNodes) / float64(led.nodes)
	}
	if led.profiled > 0 {
		for _, cls := range opClasses {
			m["exec.op."+cls+".self_ms"] = led.opSelfMS[cls] / float64(led.profiled)
		}
	}
	if led.selfMS > 0 {
		m["exec.rowpath_share"] = led.rowpathMS / led.selfMS
	}
	if led.rowsOut > 0 {
		m["exec.rows_in_per_row_out"] = float64(led.rowsIn) / float64(led.rowsOut)
	}
	if led.calls > 0 {
		m["vec.call_share"] = float64(led.vecCalls) / float64(led.calls)
	}
	if led.qerrN > 0 {
		m["stats.qerror_gm"] = math.Exp(led.qerrLogSum / float64(led.qerrN))
	}
	m["disqo.overhead_us"] = percentile(led.overheadUS, 0.5)
	if led.wireRows > 0 {
		m["wire.encode_us_per_krow"] = float64(led.encodeNS) / float64(led.wireRows)
		m["wire.decode_us_per_krow"] = float64(led.decodeNS) / float64(led.wireRows)
		m["wire.bytes_per_row"] = float64(led.wireBytes) / float64(led.wireRows)
	}
}

// write saves the kept spans, the stamp and the per-layer metrics.
func (t *tracer) write(path string, st stamp, metrics map[string]float64) error {
	type file struct {
		Stamp        stamp              `json:"stamp"`
		Names        []string           `json:"names"`
		Columns      []string           `json:"span_columns"`
		Spans        [][6]int64         `json:"spans"`
		SpansDropped int                `json:"spans_dropped"`
		Metrics      map[string]float64 `json:"per_layer"`
	}
	f := file{Stamp: st, Names: t.names, SpansDropped: t.dropped, Metrics: metrics,
		Columns: []string{"id", "parent", "request", "name", "start_ns", "end_ns"},
		Spans:   make([][6]int64, len(t.spans))}
	for i, s := range t.spans {
		f.Spans[i] = [6]int64{int64(s.id), int64(s.parent), int64(s.req), int64(s.name), s.start, s.end}
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
