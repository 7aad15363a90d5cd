package fleet

import (
	"strings"
	"testing"

	"aqlsched/internal/sim"
)

func TestCrashEvictsAndReplaces(t *testing.T) {
	// Two hosts, one VM on each (least-loaded spreads). Host 0 crashes at
	// 10 ms and stays down past the run end; its VM must be re-placed on
	// host 1 after the first retry delay.
	vms := []VMSpec{{App: cpuVM("a")}, {App: cpuVM("b")}}
	spec := explicitSpec("crash", 2, "least-loaded", vms)
	spec.Faults = &FaultPlan{
		Crashes: []Crash{{Host: 0, At: sim.Millis(10 * sim.Millisecond), Down: sim.Millis(10 * sim.Second)}},
	}
	res := Run(spec, Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !f.Hosts[0].Down() {
		t.Error("host 0 should still be down at run end")
	}
	if f.Hosts[0].EffCapacity() != 0 {
		t.Errorf("down host effective capacity = %d, want 0", f.Hosts[0].EffCapacity())
	}
	victim := f.VMs[0]
	if victim.Host() != f.Hosts[1] {
		t.Fatalf("crash victim should have been re-placed on host 1, is on %v", victim.Host())
	}
	// Default recovery: first retry 10 ms after the crash.
	if victim.PlacedAt != 20*sim.Millisecond {
		t.Errorf("victim re-placed at %v, want 20ms (crash + default retry delay)", victim.PlacedAt)
	}
	if v, _ := res.Metrics.Get("fleet_vms_replaced"); v != 1 {
		t.Errorf("fleet_vms_replaced = %v, want 1", v)
	}
	if v, _ := res.Metrics.Get("fleet_vms_lost"); v != 0 {
		t.Errorf("fleet_vms_lost = %v, want 0", v)
	}
	if v, ok := res.Metrics.Get("fleet_replacement_wait"); !ok || v != 10_000 {
		t.Errorf("fleet_replacement_wait = %v us (ok=%v), want 10000", v, ok)
	}
	if v, _ := res.Metrics.Get("fleet_downtime_vm_seconds"); v <= 0 {
		t.Errorf("fleet_downtime_vm_seconds = %v, want positive", v)
	}
	if v, _ := res.Metrics.Get("fleet_faults_injected"); v != 1 {
		t.Errorf("fleet_faults_injected = %v, want 1", v)
	}
}

func TestCrashRecoveryExhaustion(t *testing.T) {
	// A single host that crashes permanently: every retry fails, so the
	// exhaust decision applies.
	base := func() Spec {
		spec := explicitSpec("exhaust", 1, "least-loaded", []VMSpec{{App: cpuVM("a")}})
		spec.Faults = &FaultPlan{
			Crashes:  []Crash{{Host: 0, At: sim.Millis(10 * sim.Millisecond)}}, // Down 0 = never recovers
			Recovery: Recovery{MaxRetries: 2, RetryDelay: sim.Millis(2 * sim.Millisecond), Backoff: 2, OnExhaust: "drop"},
		}
		return spec
	}

	res := Run(base(), Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !f.VMs[0].Gone {
		t.Error("dropped victim should be gone")
	}
	if v, _ := res.Metrics.Get("fleet_vms_lost"); v != 1 {
		t.Errorf("fleet_vms_lost = %v, want 1", v)
	}
	if v, _ := res.Metrics.Get("fleet_vms_replaced"); v != 0 {
		t.Errorf("fleet_vms_replaced = %v, want 0", v)
	}

	spec := base()
	spec.Faults.Recovery.OnExhaust = "requeue"
	res = Run(spec, Options{})
	f = res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(f.Pending()) != 1 {
		t.Fatalf("requeued victim should wait in the placement queue, pending = %d", len(f.Pending()))
	}
	if v, _ := res.Metrics.Get("fleet_unplaced"); v != 1 {
		t.Errorf("fleet_unplaced = %v, want 1", v)
	}
	// Never re-placed: downtime runs from the crash to the run end.
	want := (f.end - 10*sim.Millisecond).Seconds()
	if v, _ := res.Metrics.Get("fleet_downtime_vm_seconds"); v != want {
		t.Errorf("fleet_downtime_vm_seconds = %v, want %v", v, want)
	}
}

func TestMigrationFailureInjection(t *testing.T) {
	// Bin-pack stacks both VMs on host 0 and the rebalancer tries to move
	// one out; with failure probability 1 every attempt must fail and the
	// VM must stay where it was, with the reservation released.
	vms := []VMSpec{{App: cpuVM("a")}, {App: cpuVM("b")}}
	spec := explicitSpec("migfail", 2, "bin-pack", vms)
	spec.Rebalance = Rebalance{
		Every:         sim.Millis(10 * sim.Millisecond),
		Threshold:     0.03,
		MigrationTime: sim.Millis(5 * sim.Millisecond),
		MaxPerTick:    1,
	}
	spec.Faults = &FaultPlan{MigFailProb: 1}
	res := Run(spec, Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Migrations() != 0 {
		t.Errorf("completed migrations = %d, want 0 (all injected to fail)", f.Migrations())
	}
	mf, _ := res.Metrics.Get("fleet_migration_failures")
	if mf < 1 {
		t.Errorf("fleet_migration_failures = %v, want >= 1", mf)
	}
	for _, h := range f.Hosts {
		if h.reserved != 0 {
			t.Errorf("host %d still holds %d reserved vCPUs after failed migrations", h.ID, h.reserved)
		}
	}
	if f.VMs[0].Host() != f.Hosts[0] || f.VMs[1].Host() != f.Hosts[0] {
		t.Error("failed migrations must leave both VMs on the source host")
	}
}

func TestDegradationBlocksAdmission(t *testing.T) {
	// Host capacity 8 (oversub 1 on the default 8-pCPU machine), degraded
	// to factor 0.25 (effective 2) from the start. The 2-vCPU gang fits;
	// the 4-vCPU gang arriving at 5 ms must wait until the degradation
	// lifts at 30 ms.
	vms := []VMSpec{
		{App: gangVM("small", 2)},
		{ArriveAt: 5 * sim.Millisecond, App: gangVM("big", 4)},
	}
	spec := explicitSpec("degrade", 1, "least-loaded", vms)
	spec.OverSub = 1
	spec.Faults = &FaultPlan{
		Degrades: []Degrade{{Host: 0, At: 0, For: sim.Millis(30 * sim.Millisecond), Factor: 0.25}},
	}
	res := Run(spec, Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	small, big := f.VMs[0], f.VMs[1]
	if !small.Placed || small.PlacedAt != 0 {
		t.Errorf("small placed=%v at %v, want immediate placement under degradation", small.Placed, small.PlacedAt)
	}
	if !big.Placed || big.PlacedAt != 30*sim.Millisecond {
		t.Errorf("big placed=%v at %v, want placement when the degradation lifts (30ms)", big.Placed, big.PlacedAt)
	}
	if f.Hosts[0].Degraded() {
		t.Error("degradation should have lifted by run end")
	}
}

func TestCrashDuringMigrationReleasesReservation(t *testing.T) {
	// The reservation-leak scenario: bin-pack stacks both VMs on host 0,
	// the rebalancer starts moving the mover to host 1 at the 10 ms tick
	// (transfer takes 40 ms), and host 0 crashes permanently at 15 ms
	// with the transfer in flight. Both victims go through recovery and
	// re-place on host 1 at 19 ms (new placement stint). The leaser's
	// original departure event (due at 18 ms, scheduled against the
	// crashed stint) fires while it sits in the backoff queue and must be
	// ignored as stale; its replacement then departs on the remaining
	// lifetime. When the doomed transfer completes at 50 ms the stint
	// mismatch must release host 1's reservation and count a failed
	// migration — the mover keeps running as its replacement.
	vms := []VMSpec{
		{App: cpuVM("mover")},
		{App: cpuVM("leaser"), Lifetime: 18 * sim.Millisecond},
	}
	spec := explicitSpec("crashmig", 2, "bin-pack", vms)
	spec.Rebalance = Rebalance{
		Every:         sim.Millis(10 * sim.Millisecond),
		Threshold:     0.03,
		MigrationTime: sim.Millis(40 * sim.Millisecond), // in flight from 10ms to 50ms
		MaxPerTick:    1,
	}
	spec.Faults = &FaultPlan{
		Crashes:  []Crash{{Host: 0, At: sim.Millis(15 * sim.Millisecond)}}, // Down 0 = permanent
		Recovery: Recovery{MaxRetries: 5, RetryDelay: sim.Millis(4 * sim.Millisecond), Backoff: 2},
	}
	res := Run(spec, Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, h := range f.Hosts {
		if h.reserved != 0 {
			t.Errorf("host %d leaked %d reserved vCPUs", h.ID, h.reserved)
		}
	}
	if v, _ := res.Metrics.Get("fleet_migration_failures"); v != 1 {
		t.Errorf("fleet_migration_failures = %v, want 1 (the crashed-source transfer)", v)
	}
	if f.Migrations() != 0 {
		t.Errorf("completed migrations = %d, want 0", f.Migrations())
	}
	mover, leaser := f.VMs[0], f.VMs[1]
	if mover.Gone || mover.Host() != f.Hosts[1] {
		t.Errorf("mover gone=%v host=%v, want alive on host 1", mover.Gone, mover.Host())
	}
	if mover.PlacedAt != 19*sim.Millisecond {
		t.Errorf("mover re-placed at %v, want 19ms (crash + retry delay)", mover.PlacedAt)
	}
	if !leaser.Gone {
		t.Error("leaser should have departed on its remaining lifetime")
	}
	if v, _ := res.Metrics.Get("fleet_vms_replaced"); v != 2 {
		t.Errorf("fleet_vms_replaced = %v, want 2", v)
	}
}

func TestStormDeterminismAndSeedSplit(t *testing.T) {
	// A storm-driven fault plan is a pure function of the plan seed: two
	// identical runs must produce identical metric sets, and changing
	// only the per-run Seed must keep the fault schedule (faults are
	// drawn from GenSeed) while the simulation varies.
	mk := func(seed uint64) Spec {
		sp := genFleetSpec()
		sp.Name = "storm"
		sp.Seed = seed
		sp.GenSeed = 7
		sp.Faults = &FaultPlan{
			CrashStorm:   &Storm{Rate: 15, Start: sim.Millis(40 * sim.Millisecond), Horizon: sim.Millis(180 * sim.Millisecond), MeanDown: sim.Millis(30 * sim.Millisecond)},
			DegradeStorm: &Storm{Rate: 10, Horizon: sim.Millis(200 * sim.Millisecond), MeanDown: sim.Millis(50 * sim.Millisecond), Factor: 0.5},
			MigFailProb:  0.3,
		}
		return sp
	}
	a := Run(mk(7), Options{})
	b := Run(mk(7), Options{})
	if !a.Metrics.Equal(b.Metrics) {
		t.Error("identical storm specs produced different metric sets")
	}
	if err := a.Fleet.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.Metrics.Get("fleet_faults_injected"); v < 2 {
		t.Errorf("fleet_faults_injected = %v, want a real storm", v)
	}

	// Same GenSeed, different run Seed: the storm schedule is shared, so
	// crash/degrade injections match ...
	c := Run(mk(99), Options{})
	av, _ := a.Metrics.Get("fleet_vms_replaced")
	cv, _ := c.Metrics.Get("fleet_vms_replaced")
	if av != cv {
		t.Errorf("replications diverged on the fault schedule: vms_replaced %v vs %v", av, cv)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		want string
	}{
		{"crash host range", FaultPlan{Crashes: []Crash{{Host: 9}}}, "targets host 9"},
		{"degrade factor", FaultPlan{Degrades: []Degrade{{Host: 0, For: sim.Millis(sim.Millisecond), Factor: 1.5}}}, "must be in (0, 1]"},
		{"storm rate", FaultPlan{CrashStorm: &Storm{Rate: -1, Horizon: sim.Millis(sim.Second), MeanDown: sim.Millis(sim.Millisecond)}}, "must be positive"},
		{"storm blowup", FaultPlan{CrashStorm: &Storm{Rate: 1e12, Horizon: sim.Millis(sim.Second), MeanDown: sim.Millis(sim.Millisecond)}}, "sanity cap"},
		{"mig prob", FaultPlan{MigFailProb: 1.5}, "must be in [0, 1]"},
		{"backoff", FaultPlan{Recovery: Recovery{Backoff: 0.5}}, "must be ≥ 1"},
		{"exhaust", FaultPlan{Recovery: Recovery{OnExhaust: "explode"}}, "on-exhaust"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := explicitSpec("bad", 2, "least-loaded", []VMSpec{{App: cpuVM("a")}})
			plan := c.plan
			spec.Faults = &plan
			err := spec.Validate()
			if err == nil {
				t.Fatal("bad fault plan accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
