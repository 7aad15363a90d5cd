package hw_test

import (
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/catalog"
	"aqlsched/internal/hw"
)

// TestTopologyRegistry: the paper's machines are registered by name in
// catalog.Topologies, each lookup builds a fresh copy equal to the hw
// constructor's, and an unknown name is named in the error.
func TestTopologyRegistry(t *testing.T) {
	names := catalog.Topologies.Names()
	if !reflect.DeepEqual(names, []string{"i7-3770", "xeon-e5-4603"}) {
		t.Fatalf("registered machines = %v, want the two paper machines", names)
	}

	for name, want := range map[string]func() *hw.Topology{
		"i7-3770":      hw.I73770,
		"xeon-e5-4603": hw.XeonE54603,
	} {
		got, err := catalog.TopologyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want()) {
			t.Errorf("registry %s differs from its hw constructor", name)
		}
		// Lookups return fresh copies, never a shared value.
		if other, _ := catalog.TopologyByName(name); got == other {
			t.Errorf("registry handed out the same *Topology for %s twice", name)
		}
	}

	if _, err := catalog.TopologyByName("pdp-11"); err == nil || !strings.Contains(err.Error(), "pdp-11") {
		t.Errorf("unknown topology error = %v", err)
	}
}
