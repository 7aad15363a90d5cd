package xen

import (
	"testing"

	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// TestDestroyDomainFreesThePCPU: two single-vCPU burn domains share one
// pCPU; destroying one mid-run must hand the whole pCPU to the
// survivor and stop the victim's progress entirely.
func TestDestroyDomainFreesThePCPU(t *testing.T) {
	h, _ := newTestHyp(1)
	d1 := h.CreateDomain("vm1", 0, 0, 1)
	d2 := h.CreateDomain("vm2", 0, 0, 1)
	t1 := d1.OS.Spawn("w1", 0, false, &burnProgram{prof: smallProf(), job: 1 * sim.Millisecond}, 0)
	t2 := d2.OS.Spawn("w2", 0, false, &burnProgram{prof: smallProf(), job: 1 * sim.Millisecond}, 0)

	h.Engine.After(500*sim.Millisecond, func(now sim.Time) {
		h.DestroyDomain(d2, now)
	})
	h.Run(1 * sim.Second)

	if len(h.Domains) != 1 || h.Domains[0] != d1 {
		t.Fatalf("Domains after destroy: %d entries", len(h.Domains))
	}
	if len(h.AllVCPUs()) != 1 {
		t.Errorf("AllVCPUs has %d entries, want 1", len(h.AllVCPUs()))
	}
	if !d2.Dead() || !d2.VCPUs[0].Destroyed() {
		t.Error("destroyed domain not marked dead")
	}
	jobsAtDeath := t2.Jobs
	if jobsAtDeath == 0 || jobsAtDeath > 600 {
		t.Errorf("victim completed %d jobs before death, want ~250 (half of a shared pCPU)", jobsAtDeath)
	}
	// The survivor owns the pCPU for the second half: ~250 + ~500 jobs.
	if t1.Jobs < 600 {
		t.Errorf("survivor completed %d jobs, want ~750 after inheriting the pCPU", t1.Jobs)
	}
	if st := t2.State(); st != guest.Dead {
		t.Errorf("victim thread state %v, want dead", st)
	}
}

// TestDestroyDomainIsIdempotentAndSafeWhileBlocked: destroying a
// domain twice, or one whose vCPU is blocked, must not corrupt the
// dispatcher; later wakes on the dead domain are no-ops.
func TestDestroyDomainIsIdempotentAndSafeWhileBlocked(t *testing.T) {
	h, s := newTestHyp(1)
	d := h.CreateDomain("vm", 0, 0, 1)
	// A sleeper that is blocked most of the time.
	prog := guest.ProgramFunc(func(th *guest.Thread, now sim.Time) guest.Action {
		return guest.Sleep(10 * sim.Millisecond)
	})
	d.OS.Spawn("sleepy", 0, false, prog, 0)
	h.Engine.After(25*sim.Millisecond, func(now sim.Time) {
		h.DestroyDomain(d, now)
		h.DestroyDomain(d, now) // idempotent
		// A stray wake on the destroyed vCPU must be ignored.
		h.wake(d.VCPUs[0], now)
	})
	h.Run(200 * sim.Millisecond)
	if len(s.q) != 0 {
		t.Errorf("destroyed vCPU left %d entries in the run queue", len(s.q))
	}
	if h.RunningOn(0) != nil {
		t.Errorf("pCPU 0 still busy after the only domain died")
	}
}

// TestPoolMigrationsCounter: ApplyPlan counts exactly the vCPUs whose
// pool assignment changed.
func TestPoolMigrationsCounter(t *testing.T) {
	h, _ := newTestHyp(2)
	d := h.CreateDomain("vm", 0, 0, 2)
	a := NewCPUPool("a", DefaultSlice, []hw.PCPUID{0})
	b := NewCPUPool("b", DefaultSlice, []hw.PCPUID{1})
	plan := &PoolPlan{Pools: []*CPUPool{a, b}, Assign: map[*VCPU]*CPUPool{
		d.VCPUs[0]: a, d.VCPUs[1]: b,
	}}
	if err := h.ApplyPlan(plan, 0); err != nil {
		t.Fatal(err)
	}
	if h.PoolMigrations != 2 {
		t.Errorf("PoolMigrations = %d after initial assignment, want 2", h.PoolMigrations)
	}
	// Re-applying the same assignment moves nobody.
	if err := h.ApplyPlan(plan, 0); err != nil {
		t.Fatal(err)
	}
	if h.PoolMigrations != 2 {
		t.Errorf("PoolMigrations = %d after a no-op plan, want 2", h.PoolMigrations)
	}
}
