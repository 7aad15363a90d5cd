package vtrs

import (
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// Sample is one recorded (period, averages, type) observation, used to
// regenerate Fig. 4.
type Sample struct {
	Period int
	At     sim.Time
	Avg    Cursors
	Type   vcputype.Type
}

// Monitor drives a Recognizer per vCPU off the hypervisor's counters.
// Every DefaultPeriod it snapshots each vCPU's free-running counter block,
// computes the delta against the previous snapshot and feeds the
// recognizer — exactly the three monitoring systems of Section 3.3.2
// (event-channel analysis, PLE trapping, PMU reading), which the paper
// measured to have negligible overhead.
type Monitor struct {
	H *xen.Hypervisor
	// Window is n, the sliding-window length of every recognizer.
	Window int

	// OnPeriod, when set, runs after each monitoring period (the AQL
	// controller hooks its decision cadence here).
	OnPeriod func(now sim.Time, period int)

	recs    map[*xen.VCPU]*Recognizer
	last    map[*xen.VCPU]hw.Counters
	periods int

	traced map[*xen.VCPU][]Sample
}

// NewMonitor builds a monitor over h with an n-period window.
func NewMonitor(h *xen.Hypervisor, n int) *Monitor {
	return &Monitor{
		H:      h,
		Window: n,
		recs:   make(map[*xen.VCPU]*Recognizer),
		last:   make(map[*xen.VCPU]hw.Counters),
		traced: make(map[*xen.VCPU][]Sample),
	}
}

// Start schedules the periodic sampling.
func (m *Monitor) Start() {
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		m.sample(now)
		m.H.Engine.After(DefaultPeriod, tick)
	}
	m.H.Engine.After(DefaultPeriod, tick)
}

// Trace enables per-period recording for a vCPU (Fig. 4).
func (m *Monitor) Trace(v *xen.VCPU) { m.traced[v] = []Sample{} }

// Samples returns the recorded trace for a vCPU.
func (m *Monitor) Samples(v *xen.VCPU) []Sample { return m.traced[v] }

// Periods reports how many monitoring periods have elapsed.
func (m *Monitor) Periods() int { return m.periods }

// sample runs one monitoring period for every vCPU.
func (m *Monitor) sample(now sim.Time) {
	m.periods++
	for _, d := range m.H.Domains {
		for _, v := range d.VCPUs {
			rec, ok := m.recs[v]
			if !ok {
				rec = NewRecognizer(m.Window)
				m.recs[v] = rec
			}
			cur := v.Counters
			delta := cur.Sub(m.last[v])
			m.last[v] = cur
			rec.Observe(delta)
			if trace, ok := m.traced[v]; ok {
				m.traced[v] = append(trace, Sample{
					Period: m.periods,
					At:     now,
					Avg:    rec.Averages(),
					Type:   rec.Type(),
				})
			}
		}
	}
	if m.OnPeriod != nil {
		m.OnPeriod(now, m.periods)
	}
}

// TypeOf reports the recognized type of a vCPU (LoLCF before any
// observation).
func (m *Monitor) TypeOf(v *xen.VCPU) vcputype.Type {
	if rec, ok := m.recs[v]; ok {
		return rec.Type()
	}
	return vcputype.LoLCF
}

// AveragesOf reports the cursor averages of a vCPU.
func (m *Monitor) AveragesOf(v *xen.VCPU) Cursors {
	if rec, ok := m.recs[v]; ok {
		return rec.Averages()
	}
	return Cursors{}
}

// TrashingCursor reports the vCPU's LLCO cursor average — the trashing
// intensity the first-level clustering algorithm uses to classify
// IOInt+/ConSpin+ vCPUs (Section 3.5).
func (m *Monitor) TrashingCursor(v *xen.VCPU) float64 {
	return m.AveragesOf(v).LLCO
}
