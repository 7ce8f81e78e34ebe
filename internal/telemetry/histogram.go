package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is one slot per possible bits.Len64 of a nanosecond count:
// bucket 0 holds exactly 0ns, bucket i (i >= 1) holds durations in
// [2^(i-1), 2^i) ns. 64-bit durations top out at bucket 64.
const numBuckets = 65

// Histogram is a log2-bucketed latency histogram. Record is a bounded
// number of atomic adds — no locks, no allocation — so it is safe on
// the warm query path and under any concurrency. The zero value is
// ready to use; a nil *Histogram ignores Record and reports zeros.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Merge folds another histogram's counts into this one. Both histograms
// may keep recording concurrently; the merge is per-bucket atomic.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Reset zeroes every counter.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// BucketUpper returns the largest duration bucket i can hold: 0 for
// bucket 0, 2^i - 1 ns otherwise. Every estimate the histogram reports
// is one of these bounds, so an estimate is always within one log2
// bucket of the true sample it stands for.
func BucketUpper(i int) time.Duration {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return time.Duration(math.MaxInt64)
	default:
		return time.Duration(uint64(1)<<i - 1)
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket containing the ceil(q*count)-th smallest sample. With
// no samples it returns 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(numBuckets - 1)
}

// Bucket is one non-empty histogram bucket: Count samples no larger
// than Upper (non-cumulative).
type Bucket struct {
	Upper time.Duration `json:"upper_ns"`
	Count int64         `json:"count"`
}

// LatencySnapshot is a point-in-time copy of a histogram with its
// standard percentile estimates.
type LatencySnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Buckets []Bucket      `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's state. Concurrent Records may land
// between bucket reads; each bucket is individually consistent, which
// is all a monitoring read needs.
func (h *Histogram) Snapshot() LatencySnapshot {
	if h == nil {
		return LatencySnapshot{}
	}
	s := LatencySnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: BucketUpper(i), Count: n})
		}
	}
	return s
}
