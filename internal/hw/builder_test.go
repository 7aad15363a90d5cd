package hw

import (
	"encoding/json"
	"reflect"
	"testing"

	"aqlsched/internal/sim"
)

func TestBuilderDefaultsAreI73770(t *testing.T) {
	got, err := TopologyBuilder{Sockets: 1, CoresPerSocket: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := &Topology{
		Sockets:        1,
		CoresPerSocket: 8,
		L1:             CacheSpec{Size: 32 * KB, Ways: 8, LineSize: 64, LatencyNS: 1},
		L2:             CacheSpec{Size: 256 * KB, Ways: 8, LineSize: 64, LatencyNS: 4},
		LLC:            CacheSpec{Size: 8 * MB, Ways: 20, LineSize: 64, LatencyNS: 12},
		MemLatencyNS:   80,
		MemBandwidth:   12 * GB,
		CtxSwitchCost:  3 * sim.Microsecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("builder defaults drifted from the Table 2 machine:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestBuilderXeonMatchesSection42(t *testing.T) {
	got := XeonE54603()
	want := &Topology{
		Sockets:        4,
		CoresPerSocket: 4,
		L1:             CacheSpec{Size: 32 * KB, Ways: 8, LineSize: 64, LatencyNS: 1},
		L2:             CacheSpec{Size: 256 * KB, Ways: 8, LineSize: 64, LatencyNS: 4},
		LLC:            CacheSpec{Size: 10 * MB, Ways: 20, LineSize: 64, LatencyNS: 14},
		MemLatencyNS:   95,
		MemBandwidth:   10 * GB,
		CtxSwitchCost:  3 * sim.Microsecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Xeon builder drifted from the Section 4.2 machine:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestBuilderValidation(t *testing.T) {
	bad := []struct {
		name string
		b    TopologyBuilder
	}{
		{"no sockets", TopologyBuilder{CoresPerSocket: 4}},
		{"no cores", TopologyBuilder{Sockets: 2}},
		{"negative L1", TopologyBuilder{Sockets: 1, CoresPerSocket: 1, L1KB: -1}},
		{"negative bandwidth", TopologyBuilder{Sockets: 1, CoresPerSocket: 1, MemGBps: -4}},
		{"negative latency", TopologyBuilder{Sockets: 1, CoresPerSocket: 1, MemNS: -80}},
		{"inverted hierarchy", TopologyBuilder{Sockets: 1, CoresPerSocket: 1, L2KB: 16 * 1024, LLCMB: 1}},
		{"negative ctx switch", TopologyBuilder{Sockets: 1, CoresPerSocket: 1, CtxSwitchUS: -3}},
	}
	for _, tc := range bad {
		if _, err := tc.b.Build(); err == nil {
			t.Errorf("%s: bad builder accepted", tc.name)
		}
	}
	if err := (TopologyBuilder{Sockets: 2, CoresPerSocket: 16, LLCMB: 24}).Validate(); err != nil {
		t.Errorf("good builder rejected: %v", err)
	}
}

func TestBuilderFromJSON(t *testing.T) {
	var b TopologyBuilder
	blob := `{"sockets": 2, "cores_per_socket": 8, "llc_mb": 12, "llc_ways": 16, "mem_ns": 90, "mem_gbps": 14}`
	if err := json.Unmarshal([]byte(blob), &b); err != nil {
		t.Fatal(err)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.TotalPCPUs() != 16 {
		t.Errorf("TotalPCPUs = %d, want 16", topo.TotalPCPUs())
	}
	if topo.LLC.Size != 12*MB || topo.LLC.Ways != 16 {
		t.Errorf("LLC %d B %d ways, want 12 MB 16 ways", topo.LLC.Size, topo.LLC.Ways)
	}
	if topo.MemLatencyNS != 90 || topo.MemBandwidth != 14*GB {
		t.Errorf("memory system %d ns %d B/s", topo.MemLatencyNS, topo.MemBandwidth)
	}
	// Unspecified knobs fall back to calibration defaults.
	if topo.L1.Size != 32*KB || topo.L2.Size != 256*KB {
		t.Errorf("L1/L2 defaults lost: %d/%d", topo.L1.Size, topo.L2.Size)
	}
}
