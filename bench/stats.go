package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric over a run's samples: the median with its
// quartiles, the sample count and the samples themselves, so -compare
// can pool runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Unit: unit, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spreads printed here match the ones a reader computes
// from the same values. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile interpolates linearly between closest ranks; p in [0, 1].
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailRanks are the percentiles a tail latency may be reported at.
var tailRanks = []float64{0.999, 0.99, 0.95, 0.9}

// tailRank picks the highest percentile that leaves at least ten of n
// samples beyond it. Below twenty samples no percentile does, and the
// tail is the maximum: the workloads with so few operations per
// repetition run a fixed, deterministic set of calls, so their slowest
// call is a steady number.
func tailRank(n int) float64 {
	for _, p := range tailRanks {
		if float64(n)*(1-p)+1e-9 >= 10 { // 1e-9 absorbs 1-0.9 != 0.1
			return p
		}
	}
	return 1
}

// tail reports xs at tailRank(len(xs)).
func tail(xs []float64) float64 { return percentile(xs, tailRank(len(xs))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
