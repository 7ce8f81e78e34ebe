package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runResult is one child run's result line, and the client's speeds from
// the table it prints for people.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	timings map[string]float64
}

// value is a metric's value in the run, end-to-end or client timing.
func (r *runResult) value(name string) float64 {
	if v, ok := r.timings[name]; ok {
		return v
	}
	return r.Metrics[name].Value
}

// childRun runs this binary once on one workload and parses the last
// line of its output, and the "# name value unit" lines of the client's
// speeds before it.
func childRun(self string, cfg config, workload string, seed uint64) (*runResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, childArgs(cfg, workload, seed)...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	res := runResult{timings: map[string]float64{}}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			last = line
		}
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" {
			for _, d := range clientTimings {
				if v, err := strconv.ParseFloat(f[2], 64); d.name == f[1] && err == nil {
					res.timings[d.name] = v
				}
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

const (
	// calibrateRuns is the number of runs per set and workload, each
	// with another seed: what the driver makes.
	calibrateRuns = 10
	// countAgreement is how far the two sets' medians of an allocation
	// count may differ, in either direction: the issue's criterion for
	// counts, which repeat exactly for one seed.
	countAgreement = 0.01
)

// runCalibrate measures how far the benchmark disagrees with itself, the
// way the driver does: two sets of runs of this very binary, every run of
// a set with another seed, every workload in its own process. The two
// sets of a workload alternate run by run, so that a spell in which the
// host is slow falls on both and the comparison is of the benchmark with
// itself, not of one half hour with the next. For every metric and
// workload it prints each run's value, each set's median, quartiles and
// spread (the interquartile distance as a share of the median), and how
// much worse the second set's median is than the first's. It fails if an
// end-to-end metric's spread (setup_s excepted) or disagreement exceeds
// its bound, if the medians of an allocation count differ by more than
// countAgreement, or if any run was incorrect. The client's speeds have
// no bound; their spreads are listed so that a reader knows what a
// single run of them is worth. Nothing is discarded: every run made is
// listed.
func runCalibrate(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	st := newStamp()
	fmt.Printf("# calibrate: 2 alternating sets x %d runs x %d workloads, %g s each, seeds %d..%d; rev %s dirty=%v, %s, nproc %d, GOMAXPROCS %d\n",
		calibrateRuns, len(workloads), cfg.seconds, cfg.seed, cfg.seed+calibrateRuns-1, st.GitRev, st.Dirty, st.GoVersion, st.NumCPU, st.GOMAXPROCS)

	judged := append(append([]metricDef(nil), endToEnd...), clientTimings...)
	// values[set][workload][metric] lists the runs' values in run order.
	values := [2]map[string]map[string][]float64{{}, {}}
	bad := 0
	for _, w := range workloads {
		for set := range values {
			values[set][w.name] = map[string][]float64{}
		}
		for i := 0; i < calibrateRuns; i++ {
			seed := cfg.seed + uint64(i)
			// Which set runs first alternates too.
			for _, set := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				res, err := childRun(self, cfg, w.name, seed)
				if err != nil {
					return err
				}
				if !res.Correct {
					bad++
					fmt.Printf("INCORRECT: set %d %s seed %d: %d of %d failed\n", set+1, w.name, seed, res.Failed, res.Attempted)
				}
				for _, d := range judged {
					values[set][w.name][d.name] = append(values[set][w.name][d.name], res.value(d.name))
				}
			}
		}
	}

	fmt.Printf("%-14s %-24s %12s %12s %8s %8s %9s %6s  %s\n",
		"workload", "metric", "median_1", "median_2", "spread_1", "spread_2", "disagree", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range judged {
			var med, spread [2]float64
			for set := range values {
				xs := values[set][w.name][d.name]
				med[set] = median(xs)
				q1, q3 := quartiles(xs)
				if med[set] != 0 {
					spread[set] = (q3 - q1) / med[set]
				}
				fmt.Printf("#   set %d %s %s: q1 %.6g q3 %.6g runs %s\n", set+1, w.name, d.name, q1, q3, formatRuns(xs))
			}
			// disagree is how much worse the second median is than the
			// first, as a share of the first, in the metric's direction.
			disagree := 0.0
			if med[0] != 0 {
				disagree = (med[1] - med[0]) / med[0]
				if d.better == "higher" {
					disagree = -disagree
				}
			}
			widest := max(spread[0], spread[1])
			allocCount := d.name == "allocs_per_op" || d.name == "alloc_kb_per_op"
			verdict, failed := "ok", false
			switch {
			case d.bound == 0:
				verdict = "not bounded"
			case disagree > d.bound:
				verdict, failed = "DISAGREE", true
			case allocCount && math.Abs(disagree) > countAgreement:
				verdict, failed = "COUNTS DIFFER", true
			case d.name != "setup_s" && widest > d.bound:
				verdict, failed = "NOISY", true
			case d.name != "setup_s" && widest > d.bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			if failed {
				bad++
			}
			fmt.Printf("%-14s %-24s %12.6g %12.6g %8.4f %8.4f %+9.4f %6.2f  %s\n",
				w.name, d.name, med[0], med[1], spread[0], spread[1], disagree, d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("calibrate: %d metrics or runs outside their bounds", bad)
	}
	return nil
}

func formatRuns(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.6g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
