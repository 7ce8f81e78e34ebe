package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go are
// what the program prints. They must name the same things.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{sourceDir}) {
		t.Errorf("paths = %v, want [%s]", bj.Paths, sourceDir)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		// The driver refuses a bound above a quarter.
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		largest = max(largest, d.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound (%g)", largest)
	}
	defs := perLayer()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(defs))
	}
	if len(bj.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if seen[d.name] || len(d.name) > 64 {
			t.Errorf("per-layer metric name %q is repeated or too long", d.name)
		}
		seen[d.name] = true
	}
}

// Same seed, same inputs: two set-ups from one seed must build the same
// statement cycle, and another seed must not.
func TestCyclesAreDeterministic(t *testing.T) {
	texts := func(w *workload, seed uint64) [][]string {
		t.Helper()
		in, err := w.setup(w, seed, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		defer func() {
			if _, err := in.teardown(); err != nil {
				t.Errorf("%s: teardown: %v", w.name, err)
			}
		}()
		out := make([][]string, len(in.cycle))
		for i := range in.cycle {
			out[i] = in.cycle[i].stmts
		}
		return out
	}
	for _, w := range workloads {
		a, b, c := texts(w, 7), texts(w, 7), texts(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two set-ups from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same statements", w.name)
		}
	}
}

// The smoke run is what keeps the benchmark building and correct between
// measurements: every workload, one set-up, one round of one second,
// pinned-seed verification on, untraced and traced.
func TestSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{seed: 1, trace: trace, scratch: t.TempDir(), outDir: t.TempDir()}
		if err := runSmoke(cfg); err != nil {
			t.Fatalf("smoke (trace %v): %v", trace, err)
		}
	}
}
