package sim_test

import (
	"encoding/json"
	"strings"
	"testing"

	"aqlsched/internal/fleet"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// TestMillisMarshalsMilliseconds: a domain type with Millis fields
// marshals to the integer millisecond counts its spec-file keys name,
// and decodes back to the same value; a duration that is not a whole
// number of milliseconds refuses to marshal rather than round.
func TestMillisMarshalsMilliseconds(t *testing.T) {
	churn := scenario.ChurnSpec{
		Rate:         2,
		MeanLifetime: sim.Millis(300 * sim.Millisecond),
		Horizon:      sim.Millis(800 * sim.Millisecond),
	}
	data, err := json.Marshal(churn)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"rate_per_sec":2,"mean_life_ms":300,"horizon_ms":800}`; string(data) != want {
		t.Errorf("ChurnSpec marshals to %s, want %s", data, want)
	}
	var back scenario.ChurnSpec
	if err := json.Unmarshal(data, &back); err != nil || back != churn {
		t.Errorf("ChurnSpec round trip: %+v (err %v), want %+v", back, err, churn)
	}

	plan := fleet.FaultPlan{Crashes: []fleet.Crash{{Host: 1, At: sim.Millis(10 * sim.Millisecond)}}}
	data, err = json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `{"host":1,"at_ms":10}`) {
		t.Errorf("FaultPlan marshals to %s, want the crash at \"at_ms\":10", data)
	}

	if data, err := json.Marshal(sim.Millis(1500)); err == nil {
		t.Errorf("1.5 ms marshalled to %s; it must fail, not round", data)
	}
}
