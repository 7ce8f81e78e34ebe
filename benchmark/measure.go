package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"disqo"
)

// setUp builds an instance and brings it to the state measurement starts
// from, timing the phases: datagen and load (inside the workload's own
// setup), verification (reference passes, oracle, pinned values), and a
// fixed number of warm-up passes through the measured surface.
func setUp(w *workload, seed uint64, scratch string) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := w.setup(w, seed, scratch)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	vstart := time.Now()
	if err := in.verify(); err != nil {
		return nil, 0, err
	}
	if err := in.checkPinned(); err != nil {
		return nil, 0, err
	}
	in.phases.verify += time.Since(vstart)

	wstart := time.Now()
	warm := newWindow(w, 1)
	for p := 0; p < w.warmPasses; p++ {
		in.runPass(warm, 0)
	}
	in.verifyChecks += warm.attempted
	in.verifyFailures += warm.failed
	in.phases.warmup = time.Since(wstart)
	return in, time.Since(start), nil
}

// window accumulates what one measured window (a run's rounds) saw.
type window struct {
	w *workload
	// lat[class][round] holds that round's latencies in milliseconds.
	lat [][][]float64
	// ops counts completed operations per class over all rounds.
	ops       []int
	roundOps  []int
	roundWall []time.Duration
	spins     []time.Duration
	passes    int
	attempted int
	failed    int
	// Deltas of the engine's counters over the window.
	cache disqo.CacheStats
	wal   disqo.WALStats
	admit time.Duration
	proc  procSample
}

func newWindow(w *workload, rounds int) *window {
	ws := &window{w: w, lat: make([][][]float64, len(w.classes)), ops: make([]int, len(w.classes)),
		roundOps: make([]int, rounds), roundWall: make([]time.Duration, rounds)}
	for c := range ws.lat {
		ws.lat[c] = make([][]float64, rounds)
	}
	return ws
}

// runPass runs the cycle once in closed loop: the next operation starts
// when the previous one has returned and been checked. The check sits
// outside the timed section.
func (in *instance) runPass(ws *window, round int) {
	for i := range in.cycle {
		o := &in.cycle[i]
		v := o.variant(in.passes)
		start := time.Now()
		out, err := o.do(v)
		ws.record(o, v, round, out, err, time.Since(start))
	}
	in.passes++
	ws.passes++
}

// record checks one operation's outcome and, when it is right, keeps its
// latency. An error, a blown deadline or a wrong result is a failure.
func (ws *window) record(o *op, v, round int, out outcome, err error, elapsed time.Duration) bool {
	ws.attempted++
	class := ws.w.classes[o.class].name
	switch {
	case err != nil:
		logf("OP FAIL [%s/%s variant %d]: %v", ws.w.name, class, v, err)
	case elapsed > opDeadline:
		logf("OP FAIL [%s/%s variant %d]: took %v", ws.w.name, class, v, elapsed)
	case out.expect() != o.wants[v]:
		logf("OP FAIL [%s/%s variant %d]: got %+v, want %+v", ws.w.name, class, v, out.expect(), o.wants[v])
	default:
		ws.lat[o.class][round] = append(ws.lat[o.class][round], float64(elapsed.Nanoseconds())/1e6)
		ws.ops[o.class]++
		ws.roundOps[round]++
		return true
	}
	ws.failed++
	return false
}

// engineCounters reads the engine's cumulative counters.
type engineCounters struct {
	cache disqo.CacheStats
	wal   disqo.WALStats
	admit time.Duration
}

func (in *instance) counters() engineCounters {
	c := engineCounters{cache: in.db.CacheStats(), admit: in.db.WorkloadStats().Admission.QueueWait}
	c.wal, _ = in.db.WALStats()
	return c
}

// measure runs rounds of whole passes. A round lasts until roundDur has
// elapsed, checked at pass boundaries only, so every round has the same
// class mix; a collection and a host spin separate the rounds. pass
// selects the plain or the traced pass.
func (in *instance) measure(rounds int, roundDur time.Duration, pass func(ws *window, round int)) *window {
	ws := newWindow(in.w, rounds)
	before, procBefore := in.counters(), readProc()
	for r := 0; r < rounds; r++ {
		runtime.GC()
		ws.spins = append(ws.spins, hostSpin())
		start := time.Now()
		for time.Since(start) < roundDur {
			pass(ws, r)
		}
		ws.roundWall[r] = time.Since(start)
	}
	after, procAfter := in.counters(), readProc()

	ws.cache = disqo.CacheStats{
		Plan:   tierDelta(after.cache.Plan, before.cache.Plan),
		Result: tierDelta(after.cache.Result, before.cache.Result),
	}
	ws.wal = after.wal
	ws.wal.Appends -= before.wal.Appends
	ws.wal.AppendedBytes -= before.wal.AppendedBytes
	ws.wal.Syncs -= before.wal.Syncs
	ws.admit = after.admit - before.admit
	ws.proc = procSample{
		mallocs:    procAfter.mallocs - procBefore.mallocs,
		allocBytes: procAfter.allocBytes - procBefore.allocBytes,
		cpu:        procAfter.cpu - procBefore.cpu,
		gcCPU:      procAfter.gcCPU - procBefore.gcCPU,
		gcCycles:   procAfter.gcCycles - procBefore.gcCycles,
	}
	return ws
}

// tierDelta is what a cache tier counted between two readings.
func tierDelta(after, before disqo.CacheTierStats) disqo.CacheTierStats {
	after.Hits -= before.Hits
	after.Misses -= before.Misses
	after.Evictions -= before.Evictions
	after.Invalidations -= before.Invalidations
	return after
}

func (ws *window) totalOps() int {
	n := 0
	for _, c := range ws.ops {
		n += c
	}
	return n
}

// writeOps is the number of completed DML operations.
func (ws *window) writeOps() int {
	n := 0
	for c, cl := range ws.w.classes {
		if cl.write {
			n += ws.ops[c]
		}
	}
	return n
}

// classStat is the median over the rounds of one class's per-round
// percentile.
func (ws *window) classStat(c int, p float64) float64 {
	return medianOfRounds(ws.lat[c], func(xs []float64) float64 { return percentile(xs, p) })
}

// readGM is the geometric mean over the read classes of classStat.
func (ws *window) readGM(p float64) float64 {
	var per []float64
	for c, cl := range ws.w.classes {
		if !cl.write {
			per = append(per, ws.classStat(c, p))
		}
	}
	return geomean(per)
}

// opsPerSecond is the median over the rounds of completed operations per
// second of round wall time.
func (ws *window) opsPerSecond() float64 {
	var per []float64
	for r, n := range ws.roundOps {
		if ws.roundWall[r] > 0 {
			per = append(per, float64(n)/ws.roundWall[r].Seconds())
		}
	}
	return median(per)
}

// minReadClassN is the smallest number of samples any read class has:
// the tail percentile is only as good as this count.
func (ws *window) minReadClassN() int {
	least := -1
	for c, cl := range ws.w.classes {
		if !cl.write && (least < 0 || ws.ops[c] < least) {
			least = ws.ops[c]
		}
	}
	return max(least, 0)
}

// reportRounds prints one line per round with its host spin. A round
// whose spin took more than 1.25 times the run's median was disturbed by
// the host; it is marked, never dropped or corrected.
func (ws *window) reportRounds(label string) {
	spins := make([]float64, len(ws.spins))
	for i, s := range ws.spins {
		spins[i] = float64(s.Nanoseconds()) / 1e6
	}
	med := median(spins)
	for r := range ws.roundOps {
		mark := ""
		if spins[r] > 1.25*med {
			mark = "  DISTURBED (host.spin_ms > 1.25 x run median)"
		}
		var p50s, p90s []float64
		for c, cl := range ws.w.classes {
			if !cl.write && len(ws.lat[c][r]) > 0 {
				p50s = append(p50s, percentile(ws.lat[c][r], 0.5))
				p90s = append(p90s, percentile(ws.lat[c][r], 0.9))
			}
		}
		fmt.Fprintf(os.Stdout, "# %s round %d: %d ops in %.3f s, %.2f ops/s, gm_p50 %.4f gm_p90 %.4f ms, host.spin_ms %.3f%s\n",
			label, r+1, ws.roundOps[r], ws.roundWall[r].Seconds(), float64(ws.roundOps[r])/ws.roundWall[r].Seconds(), geomean(p50s), geomean(p90s), spins[r], mark)
	}
}
