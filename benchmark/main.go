// Command benchmark is disqo's benchmark of record: four workloads, each
// in its own process, measured closed-loop in rounds of whole passes over
// a fixed, seed-derived statement cycle. An untraced run reports the
// end-to-end metrics; a traced run replays every operation layer by layer
// from outside the engine and reports the per-layer ledger. README.md in
// this directory has the glossary and the commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// untracedRounds is how many rounds the measured window of an
	// untraced run is cut into; every timing is the median over them.
	untracedRounds = 6
	// setupRepeats is how many times a run sets up; setup_s is the
	// median, and the last set-up is the one measured.
	setupRepeats = 3
	sourceDir    = "benchmark"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks a run to one set-up and one round of one second.
	smoke   bool
	scratch string
	outDir  string
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	var (
		cfg       config
		trace     int
		calibrate bool
		pin       bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: each in turn, one process per workload)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/run", "directory for data files, emptied of this run's files at exit")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(sourceDir, "out"), "directory trace files are written to")
	flag.BoolVar(&calibrate, "calibrate", false, "run two sets of full runs of this binary and compare them")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one set-up and one round of one second per workload, in this process")
	flag.BoolVar(&pin, "pin", false, "write expected/seed-1.json and seed-2.json from the current engine")
	flag.Parse()
	if flag.NArg() > 0 {
		logf("benchmark: unexpected argument %q", flag.Arg(0))
		os.Exit(2)
	}
	cfg.trace = trace != 0

	var err error
	switch {
	case pin:
		err = pinSeeds(cfg, 1, 2)
	case calibrate:
		err = runCalibrate(cfg)
	case cfg.smoke:
		err = runSmoke(cfg)
	case cfg.workload == "":
		err = runEach(cfg)
	default:
		var rep *report
		if rep, err = run(cfg); err == nil {
			err = rep.print(os.Stdout)
		}
	}
	if err != nil {
		logf("benchmark: %v", err)
		os.Exit(1)
	}
}

// runEach runs every workload in a process of its own, one after the
// other, passing the flags through; each child prints its own result.
func runEach(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range workloadNames() {
		cmd := exec.Command(self, childArgs(cfg, name, cfg.seed)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
	}
	return nil
}

func childArgs(cfg config, workload string, seed uint64) []string {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	return []string{"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", trace, "--scratch", cfg.scratch, "--out", cfg.outDir}
}

// runSmoke is the quick end-to-end check `go test` runs: every workload,
// one set-up, one round of one second, pinned-seed verification on.
func runSmoke(cfg config) error {
	cfg.seconds, cfg.smoke = 1, true
	for _, name := range workloadNames() {
		cfg.workload = name
		rep, err := run(cfg)
		if err != nil {
			return err
		}
		if err := rep.print(os.Stdout); err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("workload %s: %d of %d checks failed", name, rep.Failed, rep.Attempted)
		}
	}
	return nil
}

// pinSeeds records, for each seed, every class's verified row count and
// fingerprint. It is how expected/ is regenerated after a deliberate
// change to a workload; it never runs as part of a measurement.
func pinSeeds(cfg config, seeds ...uint64) error {
	for _, seed := range seeds {
		p := &pinned{Seed: seed, Workloads: map[string]map[string]expect{}}
		for _, w := range workloads {
			scratch, err := runScratch(cfg.scratch)
			if err != nil {
				return err
			}
			in, err := w.setup(w, seed, scratch)
			if err != nil {
				return err
			}
			if err := in.verify(); err != nil {
				return err
			}
			if in.verifyFailures > 0 {
				return fmt.Errorf("%s at seed %d: %d verification failures, nothing pinned", w.name, seed, in.verifyFailures)
			}
			p.Workloads[w.name] = in.classExpectations()
			for name, e := range p.Workloads[w.name] {
				if e.Rows == 0 {
					return fmt.Errorf("%s/%s returns no rows at seed %d: choose other constants", w.name, name, seed)
				}
			}
			if _, err := in.teardown(); err != nil {
				return err
			}
			os.RemoveAll(scratch)
		}
		if err := savePinned(sourceDir, p); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(sourceDir, pinnedName(seed)))
	}
	return nil
}

// runScratch makes a private directory for one run under the scratch root.
func runScratch(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, fmt.Sprintf("%d-", os.Getpid()))
}

// report is a finished run.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	trace     bool
}

// print writes the result line: one JSON object with exactly the keys
// correct, attempted, failed and metrics, every metric with its unit.
func (r *report) print(w *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	defs := endToEnd
	if r.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// run sets a workload up (setupRepeats times, keeping the last), measures
// it, tears it down and assembles the report.
func run(cfg config) (*report, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	scratch, err := runScratch(cfg.scratch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rounds, setups := untracedRounds, setupRepeats
	if cfg.smoke {
		rounds, setups = 1, 1
	}
	st := newStamp()
	st.Workload, st.Seed, st.Seconds, st.Setups = w.name, cfg.seed, cfg.seconds, setups
	st.Scale, st.WarmPasses = w.scale, w.warmPasses

	rep := &report{Metrics: map[string]float64{}, trace: cfg.trace}
	var (
		in       *instance
		setupS   []float64
		checks   int
		failures int
	)
	for i := 0; i < setups; i++ {
		if in != nil {
			failed, err := in.teardown()
			if err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", w.name, err)
			}
			failures += failed
			runtime.GC()
		}
		var took time.Duration
		if in, took, err = setUp(w, cfg.seed, scratch); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		checks += in.verifyChecks
		failures += in.verifyFailures
		fmt.Printf("# set-up %d: %.3f s (datagen %.3f, load %.3f, verify %.3f, warm-up %.3f), %d checks, %d failed\n",
			i+1, took.Seconds(), in.phases.datagen.Seconds(), in.phases.load.Seconds(),
			in.phases.verify.Seconds(), in.phases.warmup.Seconds(), in.verifyChecks, in.verifyFailures)
	}

	var ws *window
	if !cfg.trace {
		st.Rounds = rounds
		ws = in.measure(rounds, roundLength(cfg.seconds, rounds), in.runPass)
		ws.reportRounds("untraced")
		fmt.Printf("# smallest read class: %d samples\n", ws.minReadClassN())
		rep.endToEnd(ws, median(setupS))
	} else {
		// Half the window runs untraced, for the client-side rows of the
		// ledger and the engine's counters; half runs traced.
		half := (rounds + 1) / 2
		st.Rounds = 2 * half
		ws = in.measure(half, roundLength(cfg.seconds, 2*half), in.runPass)
		ws.reportRounds("untraced")
		t := newTracer()
		traced := in.measure(half, roundLength(cfg.seconds, 2*half), func(ws *window, round int) { in.tracedPass(t, ws, round) })
		traced.reportRounds("traced")
		if err := rep.perLayer(in, ws, traced, t); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
		if err := t.write(path, st, rep.Metrics); err != nil {
			return nil, err
		}
		fmt.Printf("# trace: %d spans kept, %d dropped, written to %s\n", len(t.spans), t.dropped, path)
		checks += traced.attempted + t.led.stmts
		failures += traced.failed + t.led.mismatches
	}
	checks += ws.attempted
	failures += ws.failed
	if in.invariant != nil {
		for _, msg := range in.invariant(ws) {
			failures++
			logf("INVARIANT FAIL [%s]: %s", w.name, msg)
		}
	}
	failed, err := in.teardown()
	if err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", w.name, err)
	}
	failures += failed
	if !cfg.trace {
		rep.Metrics["peak_rss_mb"] = peakRSSMB()
	}

	rep.Attempted, rep.Failed, rep.Correct = checks, failures, failures == 0
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# stamp %s\n", stampJSON)
	rep.printTable()
	return rep, nil
}

// roundLength splits the measured window evenly over the rounds.
func roundLength(seconds float64, rounds int) time.Duration {
	return time.Duration(seconds / float64(rounds) * float64(time.Second))
}

// printTable lists every reported metric with its unit, for people; the
// result line after it is for the driver. An untraced run also lists the
// client's speeds, which the result line leaves to the traced run.
func (r *report) printTable() {
	defs := append(append([]metricDef(nil), endToEnd...), clientTimings...)
	if r.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		fmt.Printf("# %-40s %16.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
}
