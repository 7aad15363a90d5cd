package fleet

import (
	"encoding/json"
	"testing"

	"aqlsched/internal/sim"
)

// FuzzFleetValidate feeds arbitrary JSON into a fleet Spec and runs
// validation. The property under test: Validate never panics, never
// hangs, and anything it accepts can be expanded into a fault timeline
// without blowing up — the sanity caps (host count, vCPU budget, storm
// event count) must reject absurd inputs instead of letting them
// exhaust memory.
func FuzzFleetValidate(f *testing.F) {
	seed := func(s Spec) {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(Spec{Name: "gen", Hosts: 4, VCPUs: 48, Mix: map[string]float64{"LLCF": 1}})
	seed(Spec{
		Name: "faulty", Hosts: 8, OverSub: 2, Placement: "bin-pack",
		VCPUs: 64, Mix: map[string]float64{"LLCF": 2, "ConSpin": 1},
		Faults: &FaultPlan{
			Crashes:  []Crash{{Host: 3, At: sim.Millis(10 * sim.Millisecond), Down: sim.Millis(50 * sim.Millisecond)}},
			Degrades: []Degrade{{Host: 1, For: sim.Millis(20 * sim.Millisecond), Factor: 0.5}},
			CrashStorm: &Storm{
				Rate: 5, Horizon: sim.Millis(500 * sim.Millisecond), MeanDown: sim.Millis(40 * sim.Millisecond),
			},
			MigFailProb: 0.25,
			Recovery:    Recovery{MaxRetries: 3, RetryDelay: sim.Millis(5 * sim.Millisecond), Backoff: 2, OnExhaust: "drop"},
		},
	})
	f.Add([]byte(`{"Hosts": -1}`))
	f.Add([]byte(`{"Hosts": 1000000, "VCPUs": 1000000000}`))
	f.Add([]byte(`{"Hosts": 2, "Faults": {"CrashStorm": {"Rate": 1e18, "Horizon": 1000000000}}}`))
	f.Add([]byte(`{"Hosts": 2, "Faults": {"Recovery": {"Backoff": -3}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			return
		}
		// Accepted: the fault timeline must expand within the caps.
		if s.Faults != nil {
			plan := s.Faults.withDefaults(s.GenSeed)
			if evs := plan.timeline(s.Hosts); len(evs) > 2*maxStormEvents+len(plan.Crashes)+len(plan.Degrades) {
				t.Fatalf("timeline expanded to %d events past the caps", len(evs))
			}
		}
	})
}
