package main

import (
	"bufio"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp identifies the code, the machine and the inputs behind an output.
// Every report and trace file carries one, so two outputs can be judged
// comparable without trusting file names.
type stamp struct {
	GitRev     string  `json:"git_rev"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload,omitempty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Setups     int     `json:"setups"`
	Scale      string  `json:"scale,omitempty"`
	WarmPasses int     `json:"warmup_passes,omitempty"`
}

// newStamp reads the revision the Go tool stamped into the binary. A
// checkout that is not a git repository (the driver's) reads "unknown".
func newStamp() stamp {
	st := stamp{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.GitRev = s.Value
			case "vcs.modified":
				st.Dirty = s.Value == "true"
			}
		}
	}
	return st
}

// procSample is a point-in-time reading of the process-wide counters the
// measured window is charged with.
type procSample struct {
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
	gcCPU      float64
	gcCycles   uint64
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[1].Value.Uint64()
	}
	return s
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status, falling back to getrusage where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// spinSink keeps the compiler from deleting the spin loop.
var spinSink uint64

// hostSpin times a fixed amount of pure CPU work (FNV-1a over 4 MiB of
// counter bytes). It does not touch the engine, so a round whose spin is
// slow was disturbed by the host, not by the code under test.
func hostSpin() time.Duration {
	start := time.Now()
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 1<<19; i++ {
		buf[0], buf[1], buf[2] = byte(i), byte(i>>8), byte(i>>16)
		h.Write(buf[:])
	}
	spinSink += h.Sum64()
	return time.Since(start)
}
