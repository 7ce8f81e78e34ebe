// Command bench regenerates the paper's evaluation tables (Fig. 7a/7b/7c
// and the technical-report extensions) and prints them in the paper's
// layout. Timed-out cells print "n/a", mirroring the paper's six-hour
// cutoff.
//
// Usage:
//
//	bench                         # run everything at default scale
//	bench -exp fig7a              # one experiment
//	bench -exp fig7a,fig7c        # several
//	bench -scale 0.05 -timeout 30s -strategies canonical,unnested
//	bench -repeat 3               # keep the fastest of three runs
//	bench -exp fig7a -workers 4   # run with a 4-worker morsel pool
//	bench -exp workers -workers 1,2,4   # 1-vs-N parallel speedup sweep
//	bench -json .                 # also write BENCH_<exp>.json per experiment
//	bench -cpuprofile cpu.pprof   # write a pprof CPU profile
//	bench -memprofile mem.pprof   # write a pprof heap profile
//
// The -json files carry the per-cell timings plus a per-operator
// breakdown (rows, calls, seconds per physical operator) from a
// separate metrics-enabled run, so instrumentation never pollutes the
// timed measurements.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"disqo"
	"disqo/internal/harness"
)

func main() {
	var (
		exps       = flag.String("exp", strings.Join(harness.Order, ","), "comma-separated experiment ids")
		scale      = flag.Float64("scale", 0.1, "multiplier applied to the paper's RST scale factors (1 = the paper's 10k/50k/100k rows)")
		tpchSFs    = flag.String("tpch", "0.01,0.02,0.05", "TPC-H scale factors for fig7b")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-cell timeout (cells over it print n/a)")
		strategies = flag.String("strategies", "", "comma-separated strategies (default: all of s1,s2,s3,canonical,unnested)")
		repeat     = flag.Int("repeat", 1, "runs per cell; the fastest is kept")
		workers    = flag.String("workers", "", "morsel-parallel worker counts: one value applies to every experiment, a comma list drives the 'workers' sweep (default: GOMAXPROCS)")
		quiet      = flag.Bool("q", false, "suppress progress output")
		jsonDir    = flag.String("json", "", "write BENCH_<exp>.json with timings and per-operator breakdowns into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("%v", err)
			}
		}()
	}

	// Ctrl-C cancels the in-flight cell rather than killing the process:
	// the cell is recorded as "abrt" (aborted, distinct from a timeout),
	// any -json output already gathered is still written, and a second
	// interrupt falls through to the default hard kill.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	cfg := harness.Config{
		Ctx:         ctx,
		Timeout:     *timeout,
		RSTScale:    *scale,
		Repeat:      *repeat,
		OpBreakdown: *jsonDir != "",
	}
	var workerList []int
	for _, s := range splitList(*workers) {
		var w int
		if _, err := fmt.Sscanf(s, "%d", &w); err != nil || w < 1 {
			fatalf("bad worker count %q", s)
		}
		workerList = append(workerList, w)
	}
	if len(workerList) == 1 {
		cfg.Workers = workerList[0]
	}
	for _, s := range splitList(*tpchSFs) {
		var sf float64
		if _, err := fmt.Sscanf(s, "%g", &sf); err != nil {
			fatalf("bad TPC-H scale factor %q", s)
		}
		cfg.TPCHSFs = append(cfg.TPCHSFs, sf)
	}
	if *strategies != "" {
		for _, s := range splitList(*strategies) {
			cfg.Strategies = append(cfg.Strategies, disqo.Strategy(s))
		}
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r\033[K%s", msg)
		}
	}

	fmt.Printf("disqo benchmark harness — RST scale ×%g (paper SF1 = %d rows here), timeout %s\n\n",
		*scale, int(10000**scale), *timeout)
	for _, id := range splitList(*exps) {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "interrupted; skipping remaining experiments\n")
			break
		}
		var tab *harness.Table
		var err error
		if id == "workers" {
			tab, err = harness.WorkerSweep(cfg, workerList, progress)
		} else {
			tab, err = harness.Run(id, cfg, progress)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r\033[K")
		}
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		tab.Meta = harness.CollectMeta(gitDescribe())
		if *jsonDir != "" {
			out, err := tab.JSON()
			if err != nil {
				fatalf("%s: %v", id, err)
			}
			outPath := filepath.Join(*jsonDir, fmt.Sprintf("BENCH_%s.json", tab.ID))
			if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
				fatalf("%s: %v", id, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
		}
		fmt.Println(tab.Format())
		if id == "workers" && len(tab.Params) > 1 {
			first := tab.Cells[disqo.Unnested][tab.Params[0]]
			last := tab.Cells[disqo.Unnested][tab.Params[len(tab.Params)-1]]
			if first.Seconds > 0 && last.Seconds > 0 {
				fmt.Printf("speedup %s vs %s: %.2fx (results verified identical)\n\n",
					tab.Params[0], tab.Params[len(tab.Params)-1], first.Seconds/last.Seconds)
			}
			continue
		}
		if sp := tab.Speedups(); len(sp) > 0 {
			best := 0.0
			for _, v := range sp {
				if v > best {
					best = v
				}
			}
			fmt.Printf("max speedup of unnested over the slowest finished baseline: %.0fx\n\n", best)
		}
	}
}

// gitDescribe identifies the measured revision for the JSON metadata
// stamp; "" when git or the checkout is unavailable.
func gitDescribe() string {
	out, err := osexec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
