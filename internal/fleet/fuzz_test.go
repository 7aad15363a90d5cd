package fleet

import (
	"encoding/json"
	"testing"
)

// FuzzFleetValidate feeds arbitrary JSON into a fleet Spec and runs
// validation. The property under test: Validate never panics, never
// hangs, and anything it accepts can be expanded into a fault timeline
// without blowing up — the sanity caps (host count, vCPU budget, storm
// event count) must reject absurd inputs instead of letting them
// exhaust memory.
func FuzzFleetValidate(f *testing.F) {
	// Seeds are JSON literals: a Spec marshals its typed mix with
	// integer keys, which the mix decoder rejects, so a marshalled seed
	// would never reach Validate.
	f.Add([]byte(`{"name":"gen","hosts":4,"vcpus":48,"mix":{"LLCF":1},"rebalance":{}}`))
	f.Add([]byte(`{"name":"faulty","hosts":8,"oversub":2,"vcpus":64,"mix":{"ConSpin":1,"LLCF":2},"rebalance":{},` +
		`"faults":{"crashes":[{"host":3,"at_ms":10000,"down_ms":50000}],"degrades":[{"host":1,"at_ms":0,"for_ms":20000,"factor":0.5}],` +
		`"crash_storm":{"rate_per_sec":5,"horizon_ms":500000,"mean_down_ms":40000},"migration_fail_prob":0.25,` +
		`"recovery":{"max_retries":3,"retry_delay_ms":5000,"backoff":2,"on_exhaust":"drop"}}}`))
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
