package vtrs

import (
	"math"
	"testing"
	"testing/quick"

	"aqlsched/internal/hw"
	"aqlsched/internal/vcputype"
)

// Period-sized counter deltas representative of each type (30ms period,
// vCPU running ~1/4 of the time at 1000 instr/µs).
func ioDelta() hw.Counters {
	return hw.Counters{Instructions: 2_000_000, LLCReferences: 500, IOEvents: 8}
}
func spinDelta() hw.Counters {
	return hw.Counters{Instructions: 4_000_000, LLCReferences: 1200, PauseLoops: 50_000, LockOps: 12}
}
func llcfDelta() hw.Counters {
	// RR = 1%, MR = 3%.
	return hw.Counters{Instructions: 7_000_000, LLCReferences: 70_000, LLCMisses: 2100}
}
func llcoDelta() hw.Counters {
	// RR = 3%, MR = 90%.
	return hw.Counters{Instructions: 7_000_000, LLCReferences: 210_000, LLCMisses: 189_000}
}
func lolcfDelta() hw.Counters {
	// RR = 0.01%.
	return hw.Counters{Instructions: 7_000_000, LLCReferences: 700, LLCMisses: 70}
}

func TestCursorsSumInvariant(t *testing.T) {
	for name, d := range map[string]hw.Counters{
		"io": ioDelta(), "spin": spinDelta(), "llcf": llcfDelta(),
		"llco": llcoDelta(), "lolcf": lolcfDelta(),
	} {
		c := Compute(d)
		sum := c.LoLCF + c.LLCF + c.LLCO
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("%s: CPU-burn cursors sum to %.4f, want 100 (equation 2)", name, sum)
		}
	}
}

func TestComputeRecognizesEachType(t *testing.T) {
	cases := []struct {
		name  string
		delta hw.Counters
		want  vcputype.Type
	}{
		{"IOInt", ioDelta(), vcputype.IOInt},
		{"ConSpin", spinDelta(), vcputype.ConSpin},
		{"LLCF", llcfDelta(), vcputype.LLCF},
		{"LLCO", llcoDelta(), vcputype.LLCO},
		{"LoLCF", lolcfDelta(), vcputype.LoLCF},
	}
	for _, tc := range cases {
		r := NewRecognizer(4)
		for i := 0; i < 4; i++ {
			r.Observe(tc.delta)
		}
		if got := r.Type(); got != tc.want {
			t.Errorf("%s: recognized as %v (avg %+v)", tc.name, got, r.Averages())
		}
	}
}

func TestSaturationAtLimit(t *testing.T) {
	d := hw.Counters{Instructions: 1_000_000, IOEvents: uint64(IOIntLimit * 10)}
	c := Compute(d)
	if c.IOInt != 100 {
		t.Errorf("IOInt cursor %v above limit, want 100", c.IOInt)
	}
}

func TestTypeChangeTracksWindow(t *testing.T) {
	// A vCPU that switches from LLCF to LLCO behaviour should be
	// re-typed after the window refills (the paper's dynamic vTRS).
	r := NewRecognizer(4)
	for i := 0; i < 8; i++ {
		r.Observe(llcfDelta())
	}
	if r.Type() != vcputype.LLCF {
		t.Fatalf("initial type %v, want LLCF", r.Type())
	}
	for i := 0; i < 4; i++ {
		r.Observe(llcoDelta())
	}
	if r.Type() != vcputype.LLCO {
		t.Errorf("after behaviour change, type %v, want LLCO", r.Type())
	}
}

func TestIdlePeriodsAreSkipped(t *testing.T) {
	// Zero-delta periods (descheduled vCPU) must not push the window
	// toward LoLCF.
	r := NewRecognizer(4)
	for i := 0; i < 4; i++ {
		r.Observe(llcfDelta())
	}
	for i := 0; i < 20; i++ {
		r.Observe(hw.Counters{}) // descheduled: nothing happened
	}
	if r.Type() != vcputype.LLCF {
		t.Errorf("idle periods changed type to %v, want LLCF retained", r.Type())
	}
}

func TestIOSignalCountsEvenWithoutCompute(t *testing.T) {
	// An IO vCPU that barely computes still gets typed via its events.
	r := NewRecognizer(4)
	d := hw.Counters{Instructions: 50_000, IOEvents: 20}
	for i := 0; i < 4; i++ {
		r.Observe(d)
	}
	if r.Type() != vcputype.IOInt {
		t.Errorf("low-compute IO vCPU typed %v, want IOInt", r.Type())
	}
}

func TestDefaultTypeIsLoLCF(t *testing.T) {
	r := NewRecognizer(4)
	if r.Type() != vcputype.LoLCF {
		t.Errorf("unobserved vCPU typed %v, want LoLCF", r.Type())
	}
	if r.Ready() {
		t.Error("recognizer claims ready with no samples")
	}
}

func TestMixedIOAndTrashingIsIOIntWithHighLLCO(t *testing.T) {
	// The IOInt+ profile of Section 3.5: an IO vCPU whose CPU work
	// trashes the LLC. Type stays IOInt; the LLCO cursor (used by the
	// first-level clustering) must be high.
	r := NewRecognizer(4)
	d := llcoDelta()
	d.IOEvents = 20
	for i := 0; i < 4; i++ {
		r.Observe(d)
	}
	if r.Type() != vcputype.IOInt {
		t.Fatalf("typed %v, want IOInt", r.Type())
	}
	if avg := r.Averages(); avg.LLCO < 50 {
		t.Errorf("LLCO cursor %v, want > 50 (trashing IOInt+)", avg.LLCO)
	}
}

// Property: cursors are always within [0, 100] and the CPU-burn cursors
// sum to 100, for arbitrary counter deltas.
func TestCursorBoundsProperty(t *testing.T) {
	f := func(instr uint32, refs uint32, missFrac uint8, io uint16, pause uint32) bool {
		d := hw.Counters{
			Instructions:  uint64(instr),
			LLCReferences: uint64(refs),
			LLCMisses:     uint64(refs) * uint64(missFrac%101) / 100,
			IOEvents:      uint64(io),
			PauseLoops:    uint64(pause),
		}
		c := Compute(d)
		for _, v := range []float64{c.IOInt, c.ConSpin, c.LoLCF, c.LLCF, c.LLCO} {
			if v < -1e-9 || v > 100+1e-9 {
				return false
			}
		}
		return math.Abs(c.LoLCF+c.LLCF+c.LLCO-100) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: recognizer averages are convex combinations of observed
// cursors, hence bounded by [0,100] too.
func TestAverageBoundsProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		r := NewRecognizer(4)
		for _, s := range seeds {
			d := hw.Counters{
				Instructions:  uint64(s%10_000_000) + MinInstructions,
				LLCReferences: uint64(s % 500_000),
				LLCMisses:     uint64(s % 100_000),
				IOEvents:      uint64(s % 50),
				PauseLoops:    uint64(s % 100_000),
			}
			if d.LLCMisses > d.LLCReferences {
				d.LLCMisses = d.LLCReferences
			}
			r.Observe(d)
		}
		avg := r.Averages()
		for _, v := range []float64{avg.IOInt, avg.ConSpin, avg.LoLCF, avg.LLCF, avg.LLCO} {
			if v < -1e-9 || v > 100+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
