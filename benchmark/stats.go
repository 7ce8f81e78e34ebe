package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least a share p of the samples at or below it.
// It sorts xs in place and returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the conventional median (mean of the two middle samples for
// an even count) of a copy of xs: of a run's rounds, set-ups and host
// spins, and of a calibration set's runs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOfRounds applies stat to every round's samples and returns the
// median of the per-round results; rounds without samples are skipped.
// Percentiles are never pooled across rounds: a burst on a shared host
// then costs the one or two rounds it falls into, not the result, and a
// change that slows only some rounds (collector pauses, eviction bursts)
// still moves the result once it reaches half of them.
func medianOfRounds(rounds [][]float64, stat func([]float64) float64) float64 {
	var per []float64
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, stat(r))
		}
	}
	return median(per)
}

// geomean is the geometric mean of the positive entries of xs (0 when
// there are none): every query class weighs the same whatever its cost.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// mean and cv (standard deviation over mean) describe the host spin
// samples; neither feeds a bounded metric.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(xs, n=4) uses, which is what the
// driver computes spreads with. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := len(s)
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// opWall is one operator's inclusive wall time and its inputs, as the
// engine's per-operator report gives them.
type opWall struct {
	id       int
	wall     float64
	children []int
}

// selfTimes turns inclusive operator times over a plan DAG into self
// times: an operator's wall time minus its children's. A node shared by
// several parents (both streams of a bypass operator) is evaluated once
// and memoized, so only its first parent in report order pays for it;
// the others see a memo hit that costs nothing. Negative remainders
// (clock granularity) clamp to zero.
func selfTimes(ops []opWall) map[int]float64 {
	wall := make(map[int]float64, len(ops))
	for _, o := range ops {
		wall[o.id] = o.wall
	}
	claimed := make(map[int]bool, len(ops))
	self := make(map[int]float64, len(ops))
	for _, o := range ops {
		s := o.wall
		for _, c := range o.children {
			if !claimed[c] {
				claimed[c] = true
				s -= wall[c]
			}
		}
		if s < 0 {
			s = 0
		}
		self[o.id] = s
	}
	return self
}
