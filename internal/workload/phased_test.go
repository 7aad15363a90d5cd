package workload

import (
	"testing"

	"aqlsched/internal/cache"
	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

func computePhase(dur sim.Time, t vcputype.Type, wss int64) AppPhase {
	return AppPhase{Dur: dur, Type: t, Prof: cache.Profile{WSS: wss, RefRate: 0.3}, JobWork: 2 * sim.Millisecond}
}

func ioPhase(dur sim.Time, rate float64) AppPhase {
	return AppPhase{Dur: dur, Type: vcputype.IOInt, Rate: rate, Service: 200 * sim.Microsecond,
		Prof: cache.Profile{WSS: 64 * hw.KB, RefRate: 0.2}}
}

func TestValidatePhases(t *testing.T) {
	ok := []AppPhase{
		computePhase(sim.Second, vcputype.LoLCF, 128*hw.KB),
		ioPhase(sim.Second, 200),
	}
	if err := ValidatePhases(ok); err != nil {
		t.Errorf("valid phases rejected: %v", err)
	}
	bad := [][]AppPhase{
		{computePhase(sim.Second, vcputype.LoLCF, 128*hw.KB)},                                  // single phase
		{computePhase(0, vcputype.LoLCF, 128*hw.KB), ioPhase(sim.Second, 200)},                 // zero duration
		{{Dur: sim.Second, Type: vcputype.ConSpin}, ioPhase(sim.Second, 200)},                  // ConSpin
		{{Dur: sim.Second, Type: vcputype.IOInt}, computePhase(sim.Second, vcputype.LoLCF, 1)}, // IO without rate
		{{Dur: sim.Second, Type: vcputype.LLCF}, ioPhase(sim.Second, 200)},                     // compute without work
	}
	for i, phases := range bad {
		if err := ValidatePhases(phases); err == nil {
			t.Errorf("bad phase set %d accepted", i)
		}
	}
}

func TestPhaseAtAndTypeAt(t *testing.T) {
	spec := AppSpec{Phases: []AppPhase{
		computePhase(1000*sim.Millisecond, vcputype.LoLCF, 128*hw.KB),
		computePhase(500*sim.Millisecond, vcputype.LLCO, 32*hw.MB),
	}}
	cases := []struct {
		rel  sim.Time
		want vcputype.Type
	}{
		{0, vcputype.LoLCF},
		{999 * sim.Millisecond, vcputype.LoLCF},
		{1000 * sim.Millisecond, vcputype.LLCO},
		{1499 * sim.Millisecond, vcputype.LLCO},
		{1500 * sim.Millisecond, vcputype.LoLCF}, // cycle wraps
		{2600 * sim.Millisecond, vcputype.LLCO},  // second cycle
	}
	for _, c := range cases {
		if got := spec.TypeAt(c.rel); got != c.want {
			t.Errorf("TypeAt(%v) = %v, want %v", c.rel, got, c.want)
		}
	}
	// Offset shifts the cycle.
	spec.PhaseOffset = 1000 * sim.Millisecond
	if got := spec.TypeAt(0); got != vcputype.LLCO {
		t.Errorf("offset TypeAt(0) = %v, want LLCO", got)
	}
	// Static specs report Expected.
	st := AppSpec{Expected: vcputype.LLCF}
	if got := st.TypeAt(42 * sim.Second); got != vcputype.LLCF {
		t.Errorf("static TypeAt = %v, want LLCF", got)
	}
}

// TestPhasedDeploymentSwitchesBehaviour runs a phased VM alone on one
// pCPU and checks that each phase produces its own signature: IO
// events only while the IO phase is active, compute jobs throughout.
func TestPhasedDeploymentSwitchesBehaviour(t *testing.T) {
	topo := hw.I73770()
	h := xen.New(topo, credit.New(), 1, xen.WithGuestPCPUs([]hw.PCPUID{0}))
	rng := sim.NewRNG(7)
	spec := AppSpec{
		Name: "phased",
		Phases: []AppPhase{
			computePhase(500*sim.Millisecond, vcputype.LoLCF, 128*hw.KB),
			ioPhase(500*sim.Millisecond, 400),
		},
	}
	d := Deploy(h, spec, "", rng)
	if len(d.Dom.VCPUs) != 1 || len(d.Workers) != 1 {
		t.Fatalf("phased VM has %d vCPUs / %d workers, want 1/1", len(d.Dom.VCPUs), len(d.Workers))
	}

	h.Run(500 * sim.Millisecond)
	v := d.Dom.VCPUs[0]
	ioAfterCompute := v.Counters.IOEvents
	jobsAfterCompute := d.Jobs()
	if jobsAfterCompute == 0 {
		t.Error("no compute jobs in the compute phase")
	}
	if ioAfterCompute != 0 {
		t.Errorf("%d IO events during the compute phase, want 0", ioAfterCompute)
	}

	h.Run(1000 * sim.Millisecond)
	ioAfterIO := v.Counters.IOEvents
	if ioAfterIO < 100 {
		t.Errorf("%d IO events during the IO phase, want ~200", ioAfterIO)
	}
	if d.Jobs() <= jobsAfterCompute {
		t.Error("no requests served during the IO phase")
	}
	if d.IsLatencyApp() {
		t.Error("phased VM must report throughput, not latency")
	}

	// Back in the compute phase: the IO source must be quiesced.
	h.Run(1400 * sim.Millisecond)
	ioAfterSecondCompute := v.Counters.IOEvents
	h.Run(1500 * sim.Millisecond)
	if grown := v.Counters.IOEvents - ioAfterSecondCompute; grown > 2 {
		t.Errorf("IO source still issuing in the compute phase (%d new events)", grown)
	}
}

// TestPhasedDeterminism: two identical deployments produce identical
// job and counter trajectories.
func TestPhasedDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		topo := hw.I73770()
		h := xen.New(topo, credit.New(), 9, xen.WithGuestPCPUs([]hw.PCPUID{0}))
		spec := AppSpec{
			Name: "phased",
			Phases: []AppPhase{
				ioPhase(300*sim.Millisecond, 300),
				computePhase(300*sim.Millisecond, vcputype.LLCO, 24*hw.MB),
			},
			PhaseOffset: 150 * sim.Millisecond,
		}
		d := Deploy(h, spec, "", sim.NewRNG(9))
		h.Run(2 * sim.Second)
		return d.Jobs(), d.Dom.VCPUs[0].Counters.IOEvents
	}
	j1, e1 := run()
	j2, e2 := run()
	if j1 != j2 || e1 != e2 {
		t.Errorf("phased runs diverged: jobs %d vs %d, events %d vs %d", j1, j2, e1, e2)
	}
}

func TestSynthesizePhases(t *testing.T) {
	defs := []AppPhase{
		{Dur: sim.Second, Type: vcputype.IOInt},
		{Dur: sim.Second, Type: vcputype.LLCF},
	}
	topo := hw.I73770()
	ph := SynthesizePhases(sim.NewRNG(3), defs, topo)
	if len(ph) != 2 {
		t.Fatalf("%d phases, want 2", len(ph))
	}
	if err := ValidatePhases(ph); err != nil {
		t.Errorf("synthesized phases invalid: %v", err)
	}
	if ph[0].Rate < 150 || ph[0].Rate >= 500 {
		t.Errorf("IO rate %v outside [150, 500)", ph[0].Rate)
	}
	if lo, hi := int64(float64(topo.LLC.Size)*0.15), int64(float64(topo.LLC.Size)*0.7); ph[1].Prof.WSS < lo || ph[1].Prof.WSS > hi {
		t.Errorf("LLCF WSS %d outside [%d, %d]", ph[1].Prof.WSS, lo, hi)
	}
	// Pure function of the RNG state.
	again := SynthesizePhases(sim.NewRNG(3), defs, topo)
	for i := range ph {
		if ph[i] != again[i] {
			t.Errorf("phase %d not reproducible: %+v vs %+v", i, ph[i], again[i])
		}
	}
}
