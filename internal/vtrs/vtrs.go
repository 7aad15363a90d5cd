// Package vtrs implements the vCPU Type Recognition System of
// Section 3.3: every monitoring period (30 ms) it samples each vCPU's
// low-level counters — IO events from the event-channel monitor, PAUSE
// loops from the Pause-Loop-Exiting monitor, LLC references/misses and
// instructions from the PMU monitor — normalizes them into five cursors
// per equations (1)-(5), slides an n-entry window (n = 4 in the paper),
// and types the vCPU by the highest cursor average.
package vtrs

import (
	"fmt"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

// Default monitoring parameters (Section 3.3.1).
const (
	// DefaultPeriod is the monitoring period.
	DefaultPeriod = 30 * sim.Millisecond
	// DefaultWindow is n, the number of periods before a decision; the
	// paper found n = 4 a good trade-off between reactivity and
	// migration churn.
	DefaultWindow = 4
)

// The normalization thresholds of equations (1)-(5): calibration
// constants of the monitoring system, each the value above which a
// metric marks the vCPU as 100% of a type. They are typed float64 on
// purpose: Recognizer.Observe halves them, and an untyped 1 would halve
// to 0, not 0.5.
const (
	// IOIntLimit: IO events per period making a vCPU fully IOInt
	// (≥ ~133 IO events/s).
	IOIntLimit float64 = 4
	// ConSpinLimit: spin-lock operations per period making it fully
	// ConSpin (the hypercall-wrapper monitor): any spin-lock use in a
	// period marks it ConSpin.
	ConSpinLimit float64 = 1
	// PLELimit: PAUSE-loop exits per period making it fully ConSpin
	// (the hardware monitor, ≥ ~94 µs of spinning per period; Section
	// 3.3.2 offers both and we take the stronger of the two signals —
	// ops dominate under light contention, pauses under heavy
	// contention).
	PLELimit float64 = 3000
	// LLCRRLimit: the maximum LLC references-per-instruction ratio a
	// LoLCF vCPU may generate (equation 3): 0.2% of instructions
	// referencing the LLC.
	LLCRRLimit float64 = 0.002
	// LLCMRLimit: the maximum LLC miss ratio an LLCF vCPU may generate
	// (equation 4).
	LLCMRLimit float64 = 0.30
	// MinInstructions gates the CPU-burn cursors: a period in which the
	// vCPU barely ran carries no cache information and is skipped
	// unless it carries IO or spin signal.
	MinInstructions uint64 = 300_000
)

// Cursors holds the five per-period cursor values (percent, 0-100).
// LoLCF + LLCF + LLCO always sum to 100 (equation 2).
type Cursors struct {
	IOInt, ConSpin, LoLCF, LLCF, LLCO float64
}

// Get returns the cursor for a type.
func (c Cursors) Get(t vcputype.Type) float64 {
	switch t {
	case vcputype.IOInt:
		return c.IOInt
	case vcputype.ConSpin:
		return c.ConSpin
	case vcputype.LoLCF:
		return c.LoLCF
	case vcputype.LLCF:
		return c.LLCF
	case vcputype.LLCO:
		return c.LLCO
	}
	panic(fmt.Sprintf("vtrs: no cursor for %v", t))
}

// saturate implements equation (1): level scaled against a limit,
// saturating at 100.
func saturate(level, limit float64) float64 {
	if level >= limit {
		return 100
	}
	return level * 100 / limit
}

// Compute derives the five cursors from one period's counter delta,
// following equations (1)-(5) of Section 3.3.1.
func Compute(delta hw.Counters) Cursors {
	var c Cursors
	// Equation (1) for IOInt and ConSpin.
	c.IOInt = saturate(float64(delta.IOEvents), IOIntLimit)
	c.ConSpin = saturate(float64(delta.LockOps), ConSpinLimit)
	if ple := saturate(float64(delta.PauseLoops), PLELimit); ple > c.ConSpin {
		c.ConSpin = ple
	}

	// Equations (3)-(5) for the CPU-burn sub-types.
	rr := delta.LLCRefRatio()
	mr := delta.LLCMissRatio()
	if rr < LLCRRLimit {
		c.LoLCF = (LLCRRLimit - rr) * 100 / LLCRRLimit
	}
	if mr < LLCMRLimit {
		v := (LLCMRLimit - mr) * 100 / LLCMRLimit
		if rest := 100 - c.LoLCF; v > rest {
			v = rest
		}
		c.LLCF = v
	}
	c.LLCO = 100 - c.LoLCF - c.LLCF
	return c
}

// TieBand generalizes the paper's priority-order tie-break to noisy
// measurements: among cursor averages within TieBand points of the
// maximum, the highest-priority (most specific) type wins. The LoLCF
// cursor sits near 80 for any low-LLC-traffic thread, so an IO or
// spin-lock thread whose own cursor dips a few points below it in one
// window period must not be misread as plain CPU burn.
const TieBand = 10.0

// Recognizer is the per-vCPU sliding window of cursor samples.
type Recognizer struct {
	window int
	hist   []Cursors
	next   int
	filled int
}

// NewRecognizer builds a recognizer with the given window length.
func NewRecognizer(window int) *Recognizer {
	if window <= 0 {
		panic("vtrs: window must be positive")
	}
	return &Recognizer{window: window, hist: make([]Cursors, window)}
}

// Observe feeds one period's counter delta. Periods carrying no signal
// (the vCPU barely ran and produced no IO or spin events) are skipped so
// a descheduled vCPU does not drift toward LoLCF.
func (r *Recognizer) Observe(delta hw.Counters) {
	if delta.Instructions < MinInstructions &&
		float64(delta.IOEvents) < IOIntLimit/2 &&
		float64(delta.LockOps) < ConSpinLimit/2 &&
		float64(delta.PauseLoops) < PLELimit/2 {
		return
	}
	r.hist[r.next] = Compute(delta)
	r.next = (r.next + 1) % r.window
	if r.filled < r.window {
		r.filled++
	}
}

// Ready reports whether at least one sample has been observed.
func (r *Recognizer) Ready() bool { return r.filled > 0 }

// Averages reports the window-averaged cursors (xx_cur_avg).
func (r *Recognizer) Averages() Cursors {
	var sum Cursors
	if r.filled == 0 {
		return sum
	}
	for i := 0; i < r.filled; i++ {
		c := r.hist[i]
		sum.IOInt += c.IOInt
		sum.ConSpin += c.ConSpin
		sum.LoLCF += c.LoLCF
		sum.LLCF += c.LLCF
		sum.LLCO += c.LLCO
	}
	n := float64(r.filled)
	sum.IOInt /= n
	sum.ConSpin /= n
	sum.LoLCF /= n
	sum.LLCF /= n
	sum.LLCO /= n
	return sum
}

// Type reports the recognized vCPU type: the first type, in the paper's
// priority order (specific types first), whose cursor average lies
// within TieBand points of the highest average. Each call decides from
// the current window alone; the window length n is what damps
// flapping. Before any sample arrives, the default is LoLCF (an idle
// vCPU).
func (r *Recognizer) Type() vcputype.Type {
	if r.filled == 0 {
		return vcputype.LoLCF
	}
	avg := r.Averages()
	bestV := -1.0
	for _, t := range vcputype.All() {
		if v := avg.Get(t); v > bestV {
			bestV = v
		}
	}
	// First type (priority order) within the tie band of the maximum.
	best := vcputype.LoLCF
	for _, t := range vcputype.All() {
		if avg.Get(t) >= bestV-TieBand {
			best = t
			break
		}
	}
	return best
}
