package workload

import (
	"reflect"
	"strings"
	"testing"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

// TestSynthesizeDeterministic: same RNG fork, same draw.
func TestSynthesizeDeterministic(t *testing.T) {
	topo := hw.I73770()
	for _, typ := range vcputype.All() {
		a := Synthesize(sim.NewRNG(7).Fork(3), typ, topo)
		b := Synthesize(sim.NewRNG(7).Fork(3), typ, topo)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed diverged:\n%+v\n%+v", typ, a, b)
		}
		c := Synthesize(sim.NewRNG(7).Fork(4), typ, topo)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%v: different forks drew identical specs", typ)
		}
	}
}

// TestSynthesizeRegimes: each synthesized app must land in its target
// type's behavioural regime on the machine it was drawn for.
func TestSynthesizeRegimes(t *testing.T) {
	topo := hw.I73770()
	rng := sim.NewRNG(0xBEEF)
	for i := 0; i < 50; i++ {
		for _, typ := range vcputype.All() {
			s := Synthesize(rng.Fork(uint64(i)), typ, topo)
			if s.Expected != typ {
				t.Fatalf("draw %d: expected type %v, got %v", i, typ, s.Expected)
			}
			if !strings.HasPrefix(s.Name, "syn-") {
				t.Fatalf("draw %d (%v): name %q", i, typ, s.Name)
			}
			switch typ {
			case vcputype.IOInt:
				if s.Kind != KindWeb || s.Rate < 150 || s.Rate >= 500 {
					t.Fatalf("IOInt out of regime: %+v", s)
				}
				if s.Service <= 0 || s.CGI.WSS <= 0 {
					t.Fatalf("IOInt missing service/CGI: %+v", s)
				}
			case vcputype.ConSpin:
				if s.Kind != KindLock || s.Threads < 2 || s.Threads > 6 {
					t.Fatalf("ConSpin out of regime: %+v", s)
				}
				if s.Hold <= 0 || s.Gap <= 0 {
					t.Fatalf("ConSpin without lock cadence: %+v", s)
				}
			case vcputype.LLCF:
				if s.Kind != KindCPU || s.Prof.WSS <= topo.L2.Size || s.Prof.WSS >= topo.LLC.Size {
					t.Fatalf("LLCF WSS %d outside (L2, LLC): %+v", s.Prof.WSS, s)
				}
			case vcputype.LLCO:
				if !s.Prof.Streaming || s.Prof.WSS < topo.LLC.Size {
					t.Fatalf("LLCO WSS %d does not overflow the LLC: %+v", s.Prof.WSS, s)
				}
			case vcputype.LoLCF:
				if s.Prof.WSS <= 0 || s.Prof.WSS >= topo.L2.Size {
					t.Fatalf("LoLCF WSS %d does not fit L2: %+v", s.Prof.WSS, s)
				}
			}
		}
	}
}

// TestSynthesizeScalesWithTopology: cache-relative footprints must track
// the machine's geometry, not the i7's.
func TestSynthesizeScalesWithTopology(t *testing.T) {
	big, err := hw.TopologyBuilder{Sockets: 2, CoresPerSocket: 8, LLCMB: 32}.Build()
	if err != nil {
		t.Fatal(err)
	}
	small := hw.I73770()
	// Same RNG state → same fraction drawn → footprint scales with LLC.
	a := Synthesize(sim.NewRNG(11), vcputype.LLCO, small)
	b := Synthesize(sim.NewRNG(11), vcputype.LLCO, big)
	if b.Prof.WSS <= a.Prof.WSS {
		t.Errorf("LLCO WSS did not scale with the LLC: %d on 8 MB vs %d on 32 MB", a.Prof.WSS, b.Prof.WSS)
	}
	if b.Prof.WSS < big.LLC.Size {
		t.Errorf("LLCO WSS %d does not overflow the 32 MB LLC", b.Prof.WSS)
	}
}

func TestLookup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ByName(quake3) did not panic")
		}
	}()
	ByName("quake3")
}
