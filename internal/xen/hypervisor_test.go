package xen

import (
	"testing"

	"aqlsched/internal/cache"
	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// fifoSched is a minimal scheduler for exercising the dispatch
// machinery: one global FIFO queue, pool slices, no preemption.
type fifoSched struct {
	h *Hypervisor
	q []*VCPU
}

func (s *fifoSched) Attach(h *Hypervisor)    { s.h = h }
func (s *fifoSched) AddVCPU(*VCPU, sim.Time) {}
func (s *fifoSched) RemoveVCPU(v *VCPU, now sim.Time) {
	for i, x := range s.q {
		if x == v {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return
		}
	}
}
func (s *fifoSched) Wake(v *VCPU, now sim.Time) {
	s.q = append(s.q, v)
	for _, p := range v.Pool().PCPUs() {
		if s.h.RunningOn(p) == nil {
			s.h.TryRun(p, now)
			return
		}
	}
}
func (s *fifoSched) Requeue(v *VCPU, ranFor, now sim.Time) { s.q = append(s.q, v) }
func (s *fifoSched) Block(*VCPU, sim.Time)                 {}
func (s *fifoSched) PickNext(p hw.PCPUID, now sim.Time) *VCPU {
	for i, v := range s.q {
		if v.Pool().Contains(p) {
			s.q = append(s.q[:i], s.q[i+1:]...)
			return v
		}
	}
	return nil
}
func (s *fifoSched) SliceFor(v *VCPU, p hw.PCPUID) sim.Time { return v.Pool().Slice }
func (s *fifoSched) PoolChanged(v *VCPU, now sim.Time)      {}

// burnProgram runs fixed compute jobs forever.
type burnProgram struct {
	prof    cache.Profile
	job     sim.Time
	started bool
}

func (b *burnProgram) Next(t *guest.Thread, now sim.Time) guest.Action {
	if b.started {
		t.Jobs++
	}
	b.started = true
	return guest.Compute(b.job, &b.prof)
}

// Test programs point at their own profile field or at one of these, so
// steady-state dispatch stays allocation-free.
var (
	smallProfile = cache.Profile{WSS: 64 * hw.KB, RefRate: 0.1}
	tinyProfile  = cache.Profile{WSS: 4096}
)

func smallProf() cache.Profile { return smallProfile }

func newTestHyp(pcpus int) (*Hypervisor, *fifoSched) {
	top := hw.I73770()
	var ids []hw.PCPUID
	for i := 0; i < pcpus; i++ {
		ids = append(ids, hw.PCPUID(i))
	}
	s := &fifoSched{}
	h := New(top, s, 1, WithGuestPCPUs(ids))
	return h, s
}

func TestSingleVCPURunsAndCompletesJobs(t *testing.T) {
	h, _ := newTestHyp(1)
	d := h.CreateDomain("vm", 0, 0, 1)
	th := d.OS.Spawn("w", 0, false, &burnProgram{prof: smallProf(), job: 1 * sim.Millisecond}, 0)
	h.Run(1 * sim.Second)
	if th.Jobs < 900 {
		t.Errorf("completed %d jobs in 1s of 1ms jobs, want ~1000", th.Jobs)
	}
	v := d.VCPUs[0]
	if v.RunTime < 990*sim.Millisecond {
		t.Errorf("vCPU ran %v of 1s, want nearly all", v.RunTime)
	}
}

func TestTwoVCPUsShareOnePCPUFairly(t *testing.T) {
	h, _ := newTestHyp(1)
	d1 := h.CreateDomain("a", 0, 0, 1)
	d2 := h.CreateDomain("b", 0, 0, 1)
	d1.OS.Spawn("a", 0, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
	d2.OS.Spawn("b", 0, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
	h.Run(3 * sim.Second)
	r1, r2 := d1.VCPUs[0].RunTime, d2.VCPUs[0].RunTime
	total := r1 + r2
	if total < 2900*sim.Millisecond {
		t.Errorf("total run time %v, want ~3s (no idle gaps)", total)
	}
	ratio := float64(r1) / float64(r2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("FIFO share ratio %v:%v = %.2f, want ~1", r1, r2, ratio)
	}
}

func TestQuantumBoundsDispatchLength(t *testing.T) {
	h, _ := newTestHyp(1)
	d1 := h.CreateDomain("a", 0, 0, 1)
	d2 := h.CreateDomain("b", 0, 0, 1)
	d1.OS.Spawn("a", 0, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
	d2.OS.Spawn("b", 0, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
	h.Run(3 * sim.Second)
	// 30ms default slice, two busy vCPUs on one pCPU: about 100
	// dispatches in 3s.
	if h.CtxSwitches < 90 || h.CtxSwitches > 130 {
		t.Errorf("context switches = %d, want ~100 for 30ms slices over 3s", h.CtxSwitches)
	}
}

func TestIdleVCPUBlocksAndMachineGoesQuiet(t *testing.T) {
	h, _ := newTestHyp(2)
	d := h.CreateDomain("vm", 0, 0, 1)
	done := false
	prog := guest.ProgramFunc(func(th *guest.Thread, now sim.Time) guest.Action {
		if done {
			return guest.Exit()
		}
		done = true
		return guest.Compute(5*sim.Millisecond, &smallProfile)
	})
	d.OS.Spawn("once", 0, false, prog, 0)
	h.Run(1 * sim.Second)
	if d.VCPUs[0].State() != Blocked {
		t.Errorf("vCPU state %v after work done, want blocked", d.VCPUs[0].State())
	}
	if rt := d.VCPUs[0].RunTime; rt < 5*sim.Millisecond || rt > 7*sim.Millisecond {
		t.Errorf("run time %v, want ~5ms", rt)
	}
}

func TestIOEventWakesBlockedVCPU(t *testing.T) {
	h, _ := newTestHyp(1)
	d := h.CreateDomain("vm", 0, 0, 1)
	var served []sim.Time
	prog := &ioEcho{served: &served}
	d.OS.Spawn("handler", 0, true, prog, 0)
	// Deliver one event at t=100ms.
	h.Engine.At(100*sim.Millisecond, func(now sim.Time) {
		h.NotifyIO(d, 7, now)
	})
	h.Run(200 * sim.Millisecond)
	if len(served) != 1 {
		t.Fatalf("served %d events, want 1", len(served))
	}
	// Machine idle: service should complete almost immediately
	// (ctx switch + 100µs service).
	if served[0] > 101*sim.Millisecond {
		t.Errorf("event served at %v, want ~100.1ms", served[0])
	}
	if d.VCPUs[0].Counters.IOEvents != 1 {
		t.Errorf("IOEvents = %d, want 1", d.VCPUs[0].Counters.IOEvents)
	}
}

type ioEcho struct {
	served *[]sim.Time
	state  int
}

func (e *ioEcho) Next(t *guest.Thread, now sim.Time) guest.Action {
	switch e.state {
	case 0:
		e.state = 1
		return guest.WaitIO(7)
	case 1:
		e.state = 2
		return guest.Compute(100*sim.Microsecond, &tinyProfile)
	default:
		*e.served = append(*e.served, now)
		e.state = 1
		return guest.WaitIO(7)
	}
}

func TestSpinBurstAccruesPauseLoops(t *testing.T) {
	h, _ := newTestHyp(2)
	d := h.CreateDomain("vm", 0, 0, 2)
	lock := guest.NewSpinLock("l")
	// Thread A holds the lock for a long critical section on vCPU 0;
	// thread B spins on vCPU 1.
	progA := &lockHog{lock: lock, hold: 50 * sim.Millisecond}
	progB := &lockHog{lock: lock, hold: 1 * sim.Millisecond}
	d.OS.Spawn("A", 0, false, progA, 0)
	d.OS.Spawn("B", 1, false, progB, 0)
	h.Run(40 * sim.Millisecond)
	if d.VCPUs[1].Counters.PauseLoops == 0 {
		t.Error("spinning vCPU accrued no pause loops")
	}
}

type lockHog struct {
	lock  *guest.SpinLock
	hold  sim.Time
	state int
}

func (l *lockHog) Next(t *guest.Thread, now sim.Time) guest.Action {
	switch l.state {
	case 0:
		l.state = 1
		return guest.Acquire(l.lock)
	case 1:
		l.state = 2
		return guest.Compute(l.hold, &tinyProfile)
	default:
		l.state = 0
		t.Jobs++
		return guest.Release(l.lock)
	}
}

func TestApplyPlanPartitionsPools(t *testing.T) {
	h, _ := newTestHyp(4)
	d1 := h.CreateDomain("a", 0, 0, 2)
	d2 := h.CreateDomain("b", 0, 0, 2)
	for i := 0; i < 2; i++ {
		d1.OS.Spawn("a", i, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
		d2.OS.Spawn("b", i, false, &burnProgram{prof: smallProf(), job: 500 * sim.Second}, 0)
	}
	h.Run(50 * sim.Millisecond)

	fast := NewCPUPool("fast", 1*sim.Millisecond, []hw.PCPUID{0, 1})
	slow := NewCPUPool("slow", 90*sim.Millisecond, []hw.PCPUID{2, 3})
	plan := &PoolPlan{
		Pools: []*CPUPool{fast, slow},
		Assign: map[*VCPU]*CPUPool{
			d1.VCPUs[0]: fast, d1.VCPUs[1]: fast,
			d2.VCPUs[0]: slow, d2.VCPUs[1]: slow,
		},
	}
	if err := h.ApplyPlan(plan, h.Engine.Now()); err != nil {
		t.Fatal(err)
	}
	// Sample running placement over time: d1 only on {0,1}, d2 only on {2,3}.
	violations := 0
	var sample func(now sim.Time)
	sample = func(now sim.Time) {
		for p := hw.PCPUID(0); p < 4; p++ {
			v := h.RunningOn(p)
			if v == nil {
				continue
			}
			if v.Domain == d1 && p > 1 {
				violations++
			}
			if v.Domain == d2 && p < 2 {
				violations++
			}
		}
		if now < 500*sim.Millisecond {
			h.Engine.After(1*sim.Millisecond, sample)
		}
	}
	h.Engine.After(1*sim.Millisecond, sample)
	h.Run(600 * sim.Millisecond)
	if violations != 0 {
		t.Errorf("%d placement violations after ApplyPlan", violations)
	}
}

func TestApplyPlanRejectsBadPlans(t *testing.T) {
	h, _ := newTestHyp(2)
	d := h.CreateDomain("a", 0, 0, 1)
	d.OS.Spawn("a", 0, false, &burnProgram{prof: smallProf(), job: sim.Second}, 0)

	// Missing pCPU 1.
	p0 := NewCPUPool("p0", sim.Millisecond, []hw.PCPUID{0})
	bad := &PoolPlan{Pools: []*CPUPool{p0}, Assign: map[*VCPU]*CPUPool{d.VCPUs[0]: p0}}
	if err := h.ApplyPlan(bad, h.Engine.Now()); err == nil {
		t.Error("plan missing a pCPU accepted")
	}
	// Unassigned vCPU.
	p01 := NewCPUPool("p01", sim.Millisecond, []hw.PCPUID{0, 1})
	bad2 := &PoolPlan{Pools: []*CPUPool{p01}, Assign: map[*VCPU]*CPUPool{}}
	if err := h.ApplyPlan(bad2, h.Engine.Now()); err == nil {
		t.Error("plan with unassigned vCPU accepted")
	}
	// Overlapping pools.
	pa := NewCPUPool("pa", sim.Millisecond, []hw.PCPUID{0, 1})
	pb := NewCPUPool("pb", sim.Millisecond, []hw.PCPUID{1})
	bad3 := &PoolPlan{Pools: []*CPUPool{pa, pb}, Assign: map[*VCPU]*CPUPool{d.VCPUs[0]: pa}}
	if err := h.ApplyPlan(bad3, h.Engine.Now()); err == nil {
		t.Error("overlapping pools accepted")
	}
	// pCPU outside the topology: must be an error, not an index panic.
	px := NewCPUPool("px", sim.Millisecond, []hw.PCPUID{0, 1, 99})
	bad4 := &PoolPlan{Pools: []*CPUPool{px}, Assign: map[*VCPU]*CPUPool{d.VCPUs[0]: px}}
	if err := h.ApplyPlan(bad4, h.Engine.Now()); err == nil {
		t.Error("plan with out-of-topology pCPU accepted")
	}
}

func TestDeterminismSameSeedSameTrace(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		h, _ := newTestHyp(2)
		d1 := h.CreateDomain("a", 0, 0, 1)
		d2 := h.CreateDomain("b", 0, 0, 1)
		d1.OS.Spawn("a", 0, false, &burnProgram{prof: smallProf(), job: 3 * sim.Millisecond}, 0)
		d2.OS.Spawn("b", 0, false, &burnProgram{prof: smallProf(), job: 7 * sim.Millisecond}, 0)
		h.Run(2 * sim.Second)
		return h.CtxSwitches, h.Engine.Fired(), d1.VCPUs[0].RunTime
	}
	c1, f1, r1 := run()
	c2, f2, r2 := run()
	if c1 != c2 || f1 != f2 || r1 != r2 {
		t.Errorf("two identical runs diverged: (%d,%d,%v) vs (%d,%d,%v)", c1, f1, r1, c2, f2, r2)
	}
}

func TestRunTimeNeverExceedsWallPerPCPU(t *testing.T) {
	h, _ := newTestHyp(2)
	var doms []*Domain
	for i := 0; i < 4; i++ {
		d := h.CreateDomain("vm", 0, 0, 1)
		d.OS.Spawn("w", 0, false, &burnProgram{prof: smallProf(), job: 2 * sim.Millisecond}, 0)
		doms = append(doms, d)
	}
	h.Run(1 * sim.Second)
	var total sim.Time
	for _, d := range doms {
		total += d.VCPUs[0].RunTime
	}
	if total > 2*sim.Second {
		t.Errorf("total run time %v exceeds 2 pCPU-seconds", total)
	}
	if total < 1900*sim.Millisecond {
		t.Errorf("total run time %v, want ~2s (busy machine)", total)
	}
}
