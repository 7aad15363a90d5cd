package fleet

import (
	"strings"
	"testing"

	"aqlsched/internal/cache"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// cpuVM is a minimal single-vCPU compute app for hand-built timelines.
func cpuVM(name string) workload.AppSpec {
	return workload.AppSpec{
		Name:     name,
		Expected: vcputype.LLCF,
		Kind:     workload.KindCPU,
		Prof:     cache.Profile{WSS: 64 * 1024},
		JobWork:  5 * sim.Millisecond,
		Steady:   true,
	}
}

// gangVM is an n-vCPU barrier app (the admission unit for multi-vCPU VMs).
func gangVM(name string, n int) workload.AppSpec {
	return workload.AppSpec{
		Name:     name,
		Expected: vcputype.ConSpin,
		Kind:     workload.KindLock,
		Prof:     cache.Profile{WSS: 64 * 1024},
		Threads:  n,
		Gap:      200 * sim.Microsecond,
		Hold:     20 * sim.Microsecond,
	}
}

func explicitSpec(name string, hosts int, placement string, vms []VMSpec) Spec {
	return Spec{
		Name:      name,
		Hosts:     hosts,
		Placement: placement,
		Explicit:  vms,
		Warmup:    20 * sim.Millisecond,
		Measure:   60 * sim.Millisecond,
		Seed:      1,
		Rebalance: Rebalance{Threshold: 10}, // no migrations unless a test lowers it
	}
}

func TestLeastLoadedSpreadsBinPackConcentrates(t *testing.T) {
	vms := []VMSpec{
		{App: cpuVM("a")}, {App: cpuVM("b")}, {App: cpuVM("c")}, {App: cpuVM("d")},
	}
	spread := Run(explicitSpec("spread", 2, "least-loaded", vms), Options{})
	if got := []int{spread.Fleet.Hosts[0].Committed(), spread.Fleet.Hosts[1].Committed()}; got[0] != 2 || got[1] != 2 {
		t.Errorf("least-loaded committed = %v, want [2 2]", got)
	}
	pack := Run(explicitSpec("pack", 2, "bin-pack", vms), Options{})
	if got := []int{pack.Fleet.Hosts[0].Committed(), pack.Fleet.Hosts[1].Committed()}; got[0] != 4 || got[1] != 0 {
		t.Errorf("bin-pack committed = %v, want [4 0]", got)
	}
	for _, r := range []*Result{spread, pack} {
		if err := r.Fleet.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", r.Spec.Name, err)
		}
	}
}

func TestQueueDrainsWhenCapacityFrees(t *testing.T) {
	// One i7-3770 host at oversub 1: capacity 8 vCPUs. A 6-vCPU gang
	// holds the host; the next 4-vCPU gang must queue until the first
	// departs, and the single-vCPU VM behind it must not overtake
	// (least-loaded is strict FIFO).
	vms := []VMSpec{
		{App: gangVM("big", 6), Lifetime: 30 * sim.Millisecond},
		{ArriveAt: 1 * sim.Millisecond, App: gangVM("mid", 4)},
		{ArriveAt: 2 * sim.Millisecond, App: cpuVM("small")},
	}
	spec := explicitSpec("queue", 1, "least-loaded", vms)
	spec.OverSub = 1
	res := Run(spec, Options{})
	f := res.Fleet
	if n, _ := res.Metrics.Get("fleet_unplaced"); n != 0 {
		t.Fatalf("unplaced = %v, want 0", n)
	}
	mid, small := f.VMs[1], f.VMs[2]
	if !mid.Placed || mid.PlacedAt != 30*sim.Millisecond {
		t.Errorf("mid placed=%v at %v, want placement at big's departure (30ms)", mid.Placed, mid.PlacedAt)
	}
	if !small.Placed || small.PlacedAt != 30*sim.Millisecond {
		t.Errorf("small placed=%v at %v, want 30ms (drains behind mid, no overtaking)", small.Placed, small.PlacedAt)
	}
	if w, ok := res.Metrics.Get("fleet_placement_wait"); !ok || w <= 0 {
		t.Errorf("fleet_placement_wait = %v (ok=%v), want positive", w, ok)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTenantFairshareAlternates(t *testing.T) {
	// Capacity 4 (oversub 0.5 on 8 pCPUs). A blocker gang holds the
	// whole host while four tenant-0 VMs queue ahead of four tenant-1
	// VMs; when the blocker departs, FIFO would give tenant 0 the whole
	// host, fairshare must split it 2/2.
	vms := []VMSpec{{Tenant: 0, App: gangVM("blocker", 4), Lifetime: 10 * sim.Millisecond}}
	for i := 0; i < 4; i++ {
		vms = append(vms, VMSpec{ArriveAt: 1 * sim.Millisecond, Tenant: 0, App: cpuVM("a")})
	}
	for i := 0; i < 4; i++ {
		vms = append(vms, VMSpec{ArriveAt: 2 * sim.Millisecond, Tenant: 1, App: cpuVM("b")})
	}
	spec := explicitSpec("fair", 1, "tenant-fairshare", vms)
	spec.OverSub = 0.5
	spec.Tenants = []Tenant{{Name: "alpha", Weight: 1}, {Name: "beta", Weight: 1}}
	res := Run(spec, Options{})
	if got := res.Fleet.tenantCommitted; got[0] != 2 || got[1] != 2 {
		t.Errorf("tenant committed = %v, want [2 2]", got)
	}

	fifo := spec
	fifo.Placement = "least-loaded"
	res = Run(fifo, Options{})
	if got := res.Fleet.tenantCommitted; got[0] != 4 || got[1] != 0 {
		t.Errorf("least-loaded tenant committed = %v, want [4 0]", got)
	}
}

func TestTeardownDuringMigrationAborts(t *testing.T) {
	// Bin-pack stacks three VMs on host 0; the rebalancer migrates the
	// first two out in one tick, but the first departs while its
	// migration is in flight — the fleet must release the destination
	// reservation and count an abort, while the second VM's migration
	// completes. (The third VM stays: once the pair is balanced,
	// another move would only swap the imbalance, which the
	// anti-oscillation guard refuses.)
	vms := []VMSpec{
		{App: cpuVM("victim"), Lifetime: 30 * sim.Millisecond},
		{App: cpuVM("mover")},
		{App: cpuVM("stayer")},
	}
	spec := explicitSpec("teardown", 2, "bin-pack", vms)
	spec.Rebalance = Rebalance{
		Every:         sim.Millis(10 * sim.Millisecond),
		Threshold:     0.03,
		MigrationTime: sim.Millis(40 * sim.Millisecond),
		MaxPerTick:    2,
	}
	res := Run(spec, Options{})
	f := res.Fleet
	if f.Aborted() != 1 {
		t.Errorf("aborted migrations = %d, want 1", f.Aborted())
	}
	if f.Migrations() != 1 {
		t.Errorf("completed migrations = %d, want 1 (the survivor)", f.Migrations())
	}
	victim, mover, stayer := f.VMs[0], f.VMs[1], f.VMs[2]
	if !victim.Gone {
		t.Error("victim should have departed")
	}
	if mover.Host() != f.Hosts[1] {
		t.Error("mover should have migrated to host 1")
	}
	if stayer.Host() != f.Hosts[0] {
		t.Error("stayer should have remained on host 0")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if v, _ := res.Metrics.Get("fleet_migrations_aborted"); v != 1 {
		t.Errorf("fleet_migrations_aborted = %v, want 1", v)
	}
}

func genFleetSpec() Spec {
	return Spec{
		Name:      "gen",
		Hosts:     4,
		OverSub:   2,
		Placement: "tenant-fairshare",
		Tenants:   []Tenant{{Name: "alpha", Weight: 2}, {Name: "beta", Weight: 1}},
		VCPUs:     48,
		Mix: scenario.Mix{
			vcputype.LLCF: 2, vcputype.ConSpin: 1, vcputype.IOInt: 1,
		},
		Churn: &scenario.ChurnSpec{
			Rate:         30,
			MeanLifetime: sim.Millis(80 * sim.Millisecond),
			MinLifetime:  sim.Millis(20 * sim.Millisecond),
			Horizon:      sim.Millis(150 * sim.Millisecond),
		},
		Rebalance: Rebalance{
			Every:         sim.Millis(25 * sim.Millisecond),
			Threshold:     0.08,
			MigrationTime: sim.Millis(10 * sim.Millisecond),
			MaxPerTick:    4,
		},
		Warmup:  50 * sim.Millisecond,
		Measure: 150 * sim.Millisecond,
		Seed:    7,
	}
}

func TestGeneratedFleetEndToEnd(t *testing.T) {
	res := Run(genFleetSpec(), Options{})
	f := res.Fleet
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p := f.Placements(); p == 0 {
		t.Fatal("no placements")
	}
	for _, name := range []string{
		"fleet_hosts", "fleet_placements", "fleet_unplaced", "fleet_migrations",
		"fleet_migrations_aborted", "fleet_util_imbalance", "fleet_tenant_jain",
		"fleet_vm_seconds",
	} {
		if !res.Metrics.Has(name) {
			t.Errorf("run metrics missing %s", name)
		}
	}
	if v, _ := res.Metrics.Get("fleet_vm_seconds"); v <= 0 {
		t.Errorf("fleet_vm_seconds = %v, want positive", v)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("per-tenant apps = %d, want 2", len(res.Apps))
	}
	for _, a := range res.Apps {
		if !strings.HasPrefix(a.Name, "tenant:") {
			t.Errorf("tenant app name %q", a.Name)
		}
		if a.Expected != vcputype.None {
			t.Errorf("tenant app %s Expected = %v, want None", a.Name, a.Expected)
		}
		if v, ok := a.Metrics.Get("tenant_vcpu_seconds"); !ok || v <= 0 {
			t.Errorf("tenant app %s tenant_vcpu_seconds = %v (ok=%v)", a.Name, v, ok)
		}
	}
	j, ok := res.Metrics.Get("fleet_tenant_jain")
	if !ok || j <= 0 || j > 1 {
		t.Errorf("fleet_tenant_jain = %v (ok=%v), want in (0, 1]", j, ok)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(genFleetSpec(), Options{})
	b := Run(genFleetSpec(), Options{})
	if !a.Metrics.Equal(b.Metrics) {
		t.Errorf("run metrics differ across identical runs:\n%v\n%v", a.Metrics, b.Metrics)
	}
	if len(a.Apps) != len(b.Apps) {
		t.Fatalf("app count differs: %d vs %d", len(a.Apps), len(b.Apps))
	}
	for i := range a.Apps {
		if !a.Apps[i].Metrics.Equal(b.Apps[i].Metrics) {
			t.Errorf("tenant %s metrics differ across identical runs", a.Apps[i].Name)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	base := genFleetSpec()
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero hosts", func(s *Spec) { s.Hosts = 0 }, "at least one host"},
		{"unknown placement", func(s *Spec) { s.Placement = "round-robin" }, "unknown placement"},
		{"zero weight", func(s *Spec) { s.Tenants[0].Weight = 0 }, "must be positive"},
		{"negative weight", func(s *Spec) { s.Tenants[1].Weight = -2 }, "must be positive"},
		{"duplicate tenant", func(s *Spec) { s.Tenants[1].Name = s.Tenants[0].Name }, "duplicate tenant"},
		{"no population", func(s *Spec) { s.VCPUs = 0 }, "vCPU budget"},
		{"missing mix", func(s *Spec) { s.Mix = nil }, "mix is missing"},
		{"bad mix", func(s *Spec) { s.Mix = scenario.Mix{vcputype.LLCF: 0} }, "must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base
			s.Tenants = append([]Tenant(nil), base.Tenants...)
			c.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	good := base
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestChurnFleetPastGeneratorCap: a churning fleet is held to the
// fleet's own population cap (maxFleetVCPUs), not to the smaller cap of
// the single-host scenario generator.
func TestChurnFleetPastGeneratorCap(t *testing.T) {
	s := genFleetSpec()
	s.VCPUs = 100000
	if err := s.Validate(); err != nil {
		t.Errorf("100,000-vCPU fleet with churn rejected: %v", err)
	}
}

func TestExplicitTimelineSortedAndTenantChecked(t *testing.T) {
	s := explicitSpec("sort", 1, "", []VMSpec{
		{ArriveAt: 5 * sim.Millisecond, App: cpuVM("late")},
		{ArriveAt: 1 * sim.Millisecond, App: cpuVM("early")},
	})
	vms, err := s.GenVMs()
	if err != nil {
		t.Fatal(err)
	}
	if vms[0].App.Name != "early" || vms[1].App.Name != "late" {
		t.Errorf("timeline not sorted by arrival: %s, %s", vms[0].App.Name, vms[1].App.Name)
	}

	bad := explicitSpec("badten", 1, "", []VMSpec{{Tenant: 3, App: cpuVM("x")}})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Errorf("out-of-range explicit tenant not rejected: %v", err)
	}
}
