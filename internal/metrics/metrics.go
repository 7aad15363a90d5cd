// Package metrics provides the measurement primitives the evaluation
// harness uses: latency histograms for IO-intensive applications,
// throughput snapshots for batch applications, and normalized
// performance helpers matching the paper's presentation (values are
// normalized over a baseline run; lower is better).
package metrics

import (
	"fmt"
	"slices"

	"aqlsched/internal/sim"
)

// Histogram collects duration samples (e.g. request latencies).
// Percentile sorts the samples in place; nothing reads them in arrival
// order, and Mean, Max and Merge need only the multiset.
type Histogram struct {
	samples []sim.Time
	sum     sim.Time
	max     sim.Time
	sorted  bool // samples is in ascending order
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one sample.
func (h *Histogram) Record(d sim.Time) {
	h.samples = append(h.samples, d)
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.sorted = false
}

// Reset discards all samples (used to cut off warm-up).
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sum = 0
	h.max = 0
	h.sorted = false
}

// Count reports the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Merge folds another histogram's samples into h (app-level percentiles
// pool the request latencies of every VM instance and server).
func (h *Histogram) Merge(o *Histogram) {
	h.samples = slices.Grow(h.samples, len(o.samples))
	for _, d := range o.samples {
		h.Record(d)
	}
}

// Mean reports the average sample, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / sim.Time(len(h.samples))
}

// Max reports the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile reports the p-th percentile (0 < p <= 100),
// nearest-rank. It sorts the samples in place, once per batch of new
// samples, so repeated calls over a settled histogram do not re-sort.
func (h *Histogram) Percentile(p float64) sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	idx := int(p/100*float64(len(h.samples))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// JobSnapshot is a (time, jobs-completed) pair for rate computation.
type JobSnapshot struct {
	At   sim.Time
	Jobs uint64
}

// Rate reports jobs per second between two snapshots.
func Rate(a, b JobSnapshot) float64 {
	dt := b.At - a.At
	if dt <= 0 {
		return 0
	}
	return float64(b.Jobs-a.Jobs) / dt.Seconds()
}

// Baseline normalization lives on Desc.Normalized (desc.go): the
// metric's declared direction picks measured/baseline or its inverse,
// so every normalized value reads lower-is-better.
