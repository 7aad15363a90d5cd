package metrics

import (
	"sort"
	"testing"
	"testing/quick"

	"aqlsched/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for _, v := range []sim.Time{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Errorf("count %d, want 5", h.Count())
	}
	if h.Mean() != 30 {
		t.Errorf("mean %v, want 30", h.Mean())
	}
	if h.Max() != 50 {
		t.Errorf("max %v, want 50", h.Max())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i))
	}
	if p := h.Percentile(50); p < 49 || p > 51 {
		t.Errorf("p50 = %v, want ~50", p)
	}
	if p := h.Percentile(99); p < 98 || p > 100 {
		t.Errorf("p99 = %v, want ~99", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Errorf("p100 = %v, want 100", p)
	}
}

func TestHistogramPercentileEmptyAndBounds(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
	h.Record(5)
	defer func() {
		if recover() == nil {
			t.Error("percentile(0) did not panic")
		}
	}()
	h.Percentile(0)
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("reset did not clear")
	}
}

func TestRate(t *testing.T) {
	a := JobSnapshot{At: 1 * sim.Second, Jobs: 100}
	b := JobSnapshot{At: 3 * sim.Second, Jobs: 300}
	if r := Rate(a, b); r != 100 {
		t.Errorf("rate %v, want 100/s", r)
	}
	if r := Rate(b, b); r != 0 {
		t.Errorf("zero-window rate %v, want 0", r)
	}
}

// Property: mean is within [min, max] and percentiles are monotone.
func TestHistogramInvariantsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		min, max := sim.Time(vals[0]), sim.Time(vals[0])
		for _, v := range vals {
			tv := sim.Time(v)
			h.Record(tv)
			if tv < min {
				min = tv
			}
			if tv > max {
				max = tv
			}
		}
		if h.Mean() < min || h.Mean() > max {
			return false
		}
		last := sim.Time(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return h.Max() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHistogramPercentileInterleavedWithRecord is the regression test
// for the in-place sort: interleaving Record, Percentile and Reset
// must always return nearest-rank-correct values, identical to a
// freshly sorted copy.
func TestHistogramPercentileInterleavedWithRecord(t *testing.T) {
	naive := func(samples []sim.Time, p float64) sim.Time {
		cp := append([]sim.Time(nil), samples...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		idx := int(p/100*float64(len(cp))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(cp) {
			idx = len(cp) - 1
		}
		return cp[idx]
	}

	h := NewHistogram()
	var shadow []sim.Time
	rng := sim.NewRNG(42)
	ps := []float64{1, 25, 50, 90, 95, 99, 100}
	for i := 0; i < 500; i++ {
		d := sim.Time(rng.Intn(10_000))
		h.Record(d)
		shadow = append(shadow, d)
		// Query mid-stream every few records: the interleaved Record
		// calls must make the next Percentile sort again.
		if i%7 == 0 {
			for _, p := range ps {
				if got, want := h.Percentile(p), naive(shadow, p); got != want {
					t.Fatalf("after %d records: P%v = %v, want %v", i+1, p, got, want)
				}
			}
		}
		// Repeated queries on an unchanged histogram (no re-sort).
		if i%13 == 0 {
			a := h.Percentile(95)
			if b := h.Percentile(95); a != b {
				t.Fatalf("repeated P95 changed without new samples: %v then %v", a, b)
			}
		}
	}
	// Reset invalidates too.
	h.Reset()
	shadow = shadow[:0]
	if got := h.Percentile(50); got != 0 {
		t.Errorf("P50 after reset = %v, want 0", got)
	}
	for _, d := range []sim.Time{5, 1, 9} {
		h.Record(d)
		shadow = append(shadow, d)
	}
	for _, p := range ps {
		if got, want := h.Percentile(p), naive(shadow, p); got != want {
			t.Errorf("post-reset P%v = %v, want %v", p, got, want)
		}
	}
}

// TestHistogramSortsInPlace: Percentile sorts the samples themselves,
// so everything read after it — more samples, another Percentile, a
// Merge out of the sorted histogram — must match a reference computed
// from a copy of the samples in arrival order.
func TestHistogramSortsInPlace(t *testing.T) {
	nearestRank := func(samples []sim.Time, p float64) sim.Time {
		cp := append([]sim.Time(nil), samples...)
		sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
		idx := int(p/100*float64(len(cp))+0.5) - 1
		return cp[max(0, min(idx, len(cp)-1))]
	}
	check := func(stage string, h *Histogram, ref []sim.Time) {
		t.Helper()
		var sum, top sim.Time
		for _, d := range ref {
			sum += d
			top = max(top, d)
		}
		if h.Count() != len(ref) || h.Mean() != sum/sim.Time(len(ref)) || h.Max() != top {
			t.Errorf("%s: count %d mean %v max %v, want %d %v %v", stage, h.Count(), h.Mean(), h.Max(), len(ref), sum/sim.Time(len(ref)), top)
		}
		for _, p := range []float64{1, 25, 50, 90, 99, 100} {
			if got, want := h.Percentile(p), nearestRank(ref, p); got != want {
				t.Errorf("%s: P%v = %v, want %v", stage, p, got, want)
			}
		}
	}

	rng := sim.NewRNG(7)
	h := NewHistogram()
	var ref []sim.Time
	record := func(n int) {
		for i := 0; i < n; i++ {
			d := sim.Time(rng.Intn(1000))
			h.Record(d)
			ref = append(ref, d)
		}
	}
	record(200)
	check("first batch", h, ref)
	record(57) // lands after an already sorted prefix
	check("second batch", h, ref)
	merged := NewHistogram()
	merged.Merge(h)
	check("merged from the sorted histogram", merged, ref)
	check("source after the merge", h, ref)
}
