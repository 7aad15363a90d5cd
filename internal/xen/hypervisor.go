package xen

import (
	"fmt"
	"math"

	"aqlsched/internal/cache"
	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// burstKind distinguishes compute bursts from spin-waits.
type burstKind int

const (
	burstRun burstKind = iota
	burstSpin
)

// burst is the in-flight execution of one guest step on a pCPU. Compute
// bursts are planned eagerly through the cache model; if preempted
// mid-way they are rolled back and re-run with the actually elapsed
// budget (the insertion clock is additive, so this is exact). A vCPU
// runs at most one burst at a time, so each vCPU keeps its burst in its
// own slot and steady-state dispatch allocates nothing.
type burst struct {
	kind     burstKind
	thread   *guest.Thread
	prof     *cache.Profile
	work     sim.Time
	start    sim.Time // dispatch time of this burst
	overhead sim.Time // context-switch cost charged before execution
	planned  cache.BurstResult
	fpBefore cache.Footprint
	coreWas  *cache.Footprint
}

// Hypervisor owns the machine, the domains, the pools and the dispatch
// machinery.
type Hypervisor struct {
	Engine *sim.Engine
	Topo   *hw.Topology
	Cache  *cache.Model
	RNG    *sim.RNG

	Domains []*Domain
	Sched   Scheduler

	guestPCPUs []hw.PCPUID
	// poolOf and running are dense, indexed by hw.PCPUID: the dispatch
	// path touches them on every decision and map lookups were a
	// measurable fraction of simulation time.
	poolOf  []*CPUPool
	pools   []*CPUPool
	running []*VCPU

	allVCPUs []*VCPU // cached AllVCPUs slice, appended on CreateDomain

	// speed caches each pCPU's core-class speed factor. It stays nil on
	// homogeneous machines, so the dispatch hot path does no float work
	// there and existing results are bit-identical.
	speed []float64

	// OnDispatch, when set, observes every dispatch: v waited `wait`
	// since becoming runnable before going on CPU at `now`. Policies
	// install it (EDF's deadline-miss accounting); nil costs one branch.
	OnDispatch func(v *VCPU, wait, now sim.Time)

	nextDomID  int
	nextGlobal int

	// CtxSwitches counts dispatches (overhead diagnostics).
	CtxSwitches uint64
	// Preemptions counts slice-cut events (BOOST/kick/reconfigure).
	Preemptions uint64
	// PoolMigrations counts vCPUs moved between pools by ApplyPlan —
	// the migration-churn half of the paper's reactivity trade-off
	// (Section 3.3: a short vTRS window reacts faster but reclusters,
	// and therefore migrates, more).
	PoolMigrations uint64
}

// Option configures a Hypervisor.
type Option func(*Hypervisor)

// WithGuestPCPUs restricts guest scheduling to the given pCPUs (the
// paper pins dom0/driver domains to dedicated cores that the guest
// scheduler never sees).
func WithGuestPCPUs(pcpus []hw.PCPUID) Option {
	return func(h *Hypervisor) { h.guestPCPUs = append([]hw.PCPUID(nil), pcpus...) }
}

// New builds a hypervisor over topo using sched, with a single default
// pool spanning all guest pCPUs at the Xen default 30 ms quantum.
func New(topo *hw.Topology, sched Scheduler, seed uint64, opts ...Option) *Hypervisor {
	if err := topo.Validate(); err != nil {
		panic(fmt.Sprintf("xen: %v", err))
	}
	h := &Hypervisor{
		Engine:  sim.NewEngine(),
		Topo:    topo,
		Cache:   cache.NewModel(topo),
		RNG:     sim.NewRNG(seed),
		Sched:   sched,
		poolOf:  make([]*CPUPool, topo.TotalPCPUs()),
		running: make([]*VCPU, topo.TotalPCPUs()),
	}
	if h.guestPCPUs == nil {
		for p := 0; p < topo.TotalPCPUs(); p++ {
			h.guestPCPUs = append(h.guestPCPUs, hw.PCPUID(p))
		}
	}
	for _, o := range opts {
		o(h)
	}
	def := NewCPUPool("default", DefaultSlice, h.guestPCPUs)
	h.pools = []*CPUPool{def}
	for _, p := range h.guestPCPUs {
		h.poolOf[p] = def
	}
	if topo.Heterogeneous() {
		speed := make([]float64, topo.TotalPCPUs())
		uniform := true
		for p := range speed {
			speed[p] = topo.SpeedOf(hw.PCPUID(p))
			if speed[p] != 1 {
				uniform = false
			}
		}
		if !uniform {
			h.speed = speed
		}
	}
	sched.Attach(h)
	return h
}

// speedOf reports pCPU p's execution speed factor (1 everywhere on
// homogeneous machines).
func (h *Hypervisor) speedOf(p hw.PCPUID) float64 {
	if h.speed == nil {
		return 1
	}
	return h.speed[p]
}

// refTime converts a wall interval on a core of speed s into the
// reference time the cache model runs in (floor, clamped to 1 so a
// positive wall interval always makes progress).
func refTime(wall sim.Time, s float64) sim.Time {
	r := sim.Time(float64(wall) * s)
	if r < 1 {
		r = 1
	}
	return r
}

// refElapsed is refTime keyed by pCPU, with the homogeneous fast path
// returning wall untouched (no float arithmetic).
func (h *Hypervisor) refElapsed(p hw.PCPUID, wall sim.Time) sim.Time {
	if s := h.speedOf(p); s != 1 {
		return refTime(wall, s)
	}
	return wall
}

// GuestPCPUs lists the pCPUs guests may use.
func (h *Hypervisor) GuestPCPUs() []hw.PCPUID { return h.guestPCPUs }

// Pools lists the current CPU pools.
func (h *Hypervisor) Pools() []*CPUPool { return h.pools }

// PoolOf reports the pool owning pCPU p.
func (h *Hypervisor) PoolOf(p hw.PCPUID) *CPUPool { return h.poolOf[p] }

// RunningOn reports the vCPU currently on pCPU p (nil when idle).
func (h *Hypervisor) RunningOn(p hw.PCPUID) *VCPU { return h.running[p] }

// AllVCPUs lists every guest vCPU in creation order. The slice is
// maintained incrementally by CreateDomain; callers must not mutate it.
func (h *Hypervisor) AllVCPUs() []*VCPU { return h.allVCPUs }

// DomainsEverCreated reports how many domains were ever created.
// Unlike len(Domains) it never decreases on teardown, so it is the
// correct label space for per-VM RNG forks: two churn VMs deployed
// around a departure must not receive identical random streams.
// Without teardown it equals len(Domains), which keeps the historical
// fork labels (and therefore every static scenario) byte-identical.
func (h *Hypervisor) DomainsEverCreated() int { return h.nextDomID }

// CreateDomain builds a domain with ncpu vCPUs, all initially blocked
// (they wake when the guest spawns threads on them). weight follows the
// Credit scheduler convention (256 default); cap is a percentage of one
// pCPU, 0 meaning uncapped.
func (h *Hypervisor) CreateDomain(name string, weight, cap, ncpu int) *Domain {
	if weight <= 0 {
		weight = 256
	}
	d := &Domain{
		ID:     DomainID(h.nextDomID),
		Name:   name,
		Weight: weight,
		Cap:    cap,
		hyp:    h,
	}
	h.nextDomID++
	d.OS = guest.NewOS(name, ncpu, h.Engine, d)
	for i := 0; i < ncpu; i++ {
		v := &VCPU{
			Domain: d,
			Index:  i,
			Global: h.nextGlobal,
			state:  Blocked,
			pool:   h.pools[0],
		}
		h.nextGlobal++
		v.lastPCPU = h.pools[0].PCPUs()[v.Global%len(h.pools[0].PCPUs())]
		// One burst-end callback per vCPU, bound once: re-arming it is
		// allocation-free no matter how many bursts the vCPU runs.
		v.endBurst = h.Engine.NewTimer(func(now sim.Time) {
			if b := v.burst; b != nil {
				h.burstEnded(v, b, now)
			}
		})
		d.VCPUs = append(d.VCPUs, v)
		h.allVCPUs = append(h.allVCPUs, v)
		h.Sched.AddVCPU(v, h.Engine.Now())
	}
	h.Domains = append(h.Domains, d)
	return d
}

// DestroyDomain tears a VM down (churn departure): the guest OS shuts
// down, every vCPU leaves its pCPU/runqueue, and the domain disappears
// from Domains/AllVCPUs so monitoring, clustering and credit
// accounting stop seeing it. In-flight bursts are settled through the
// normal preemption path, so cache state and counters stay exact.
// Idempotent; freed pCPUs are immediately rescheduled.
func (h *Hypervisor) DestroyDomain(d *Domain, now sim.Time) {
	if d.dead {
		return
	}
	d.dead = true
	d.OS.Shutdown()
	for _, v := range d.VCPUs {
		switch v.state {
		case Running:
			p := v.pcpu
			h.stopRunning(v, now)
			v.state = Blocked
			h.Sched.RemoveVCPU(v, now)
			v.destroyed = true
			h.TryRun(p, now)
		case Runnable:
			h.Sched.RemoveVCPU(v, now)
			v.state = Blocked
			v.destroyed = true
		case Blocked:
			h.Sched.RemoveVCPU(v, now)
			v.destroyed = true
		}
		v.endBurst.Stop()
	}
	for i, x := range h.Domains {
		if x == d {
			h.Domains = append(h.Domains[:i], h.Domains[i+1:]...)
			break
		}
	}
	live := h.allVCPUs[:0]
	for _, v := range h.allVCPUs {
		if !v.destroyed {
			live = append(live, v)
		}
	}
	h.allVCPUs = live
}

// NotifyIO injects one event-channel notification for (dom, port),
// modelling the split-driver upcall path: the event counter of the
// target vCPU advances and the guest wakes the waiting handler thread.
func (h *Hypervisor) NotifyIO(d *Domain, port int, now sim.Time) {
	cpu := d.OS.DeliverIO(port, now)
	if cpu >= 0 && cpu < len(d.VCPUs) {
		d.VCPUs[cpu].Counters.IOEvents++
	}
}

// --- dispatch machinery -------------------------------------------------

// wake transitions a blocked vCPU to runnable.
func (h *Hypervisor) wake(v *VCPU, now sim.Time) {
	if v.destroyed || v.state != Blocked {
		return
	}
	v.state = Runnable
	v.runnableSince = now
	h.Sched.Wake(v, now)
}

// kick ends the current burst of a running vCPU so the next guest step
// is re-evaluated immediately (IRQ arrival, lock grant).
func (h *Hypervisor) kick(v *VCPU, now sim.Time) {
	if v.state != Running || v.burst == nil {
		return
	}
	b := v.burst
	v.burst = nil
	v.endBurst.Stop()
	h.settleBurst(v, b, now)
	h.runBurst(v, now)
}

// TryRun attempts to dispatch work on an idle pCPU (schedulers call this
// when a wake-up may fill an idle core).
func (h *Hypervisor) TryRun(p hw.PCPUID, now sim.Time) {
	if h.running[p] != nil {
		return
	}
	v := h.Sched.PickNext(p, now)
	if v == nil {
		return
	}
	h.dispatch(v, p, now)
}

// Preempt evicts the vCPU running on p (if any), requeueing it, and
// immediately reschedules the pCPU.
func (h *Hypervisor) Preempt(p hw.PCPUID, now sim.Time) {
	v := h.running[p]
	if v == nil {
		h.TryRun(p, now)
		return
	}
	h.Preemptions++
	h.endSlice(v, now)
}

// dispatch puts v on p and starts its first burst.
func (h *Hypervisor) dispatch(v *VCPU, p hw.PCPUID, now sim.Time) {
	if v.state == Running {
		panic(fmt.Sprintf("xen: dispatching already-running vCPU %v", v))
	}
	if h.running[p] != nil {
		panic(fmt.Sprintf("xen: dispatching %v on busy pCPU %d", v, p))
	}
	if !v.pool.Contains(p) {
		panic(fmt.Sprintf("xen: dispatching %v on pCPU %d outside pool %s", v, p, v.pool.Name))
	}
	h.CtxSwitches++
	v.state = Running
	v.pcpu = p
	v.lastPCPU = p
	v.dispatchedAt = now
	v.everRan = true
	wait := now - v.runnableSince
	v.Counters.StolenTime += uint64(wait)
	slice := h.Sched.SliceFor(v, p)
	if slice <= 0 {
		panic(fmt.Sprintf("xen: zero slice for %v", v))
	}
	v.sliceEnd = now + slice
	h.running[p] = v
	if h.OnDispatch != nil {
		h.OnDispatch(v, wait, now)
	}
	h.runBurstWithOverhead(v, now, h.Topo.CtxSwitchCost)
}

// runBurst asks the guest what v does next and executes it.
func (h *Hypervisor) runBurst(v *VCPU, now sim.Time) {
	h.runBurstWithOverhead(v, now, 0)
}

func (h *Hypervisor) runBurstWithOverhead(v *VCPU, now sim.Time, overhead sim.Time) {
	if v.state != Running || v.burst != nil {
		return
	}
	if now+overhead >= v.sliceEnd {
		h.endSlice(v, now)
		return
	}
	step := v.Domain.OS.NextStep(v.Index, now)
	switch step.Kind {
	case guest.StepIdle:
		h.blockVCPU(v, now)
	case guest.StepRun:
		budget := v.sliceEnd - now - overhead
		b := &v.slot
		b.kind = burstRun
		b.thread = step.Thread
		b.prof = step.Prof
		b.work = step.Work
		b.start = now
		b.overhead = overhead
		b.fpBefore = step.Thread.FP
		b.coreWas = h.Cache.CoreOccupant(v.pcpu)
		var wall sim.Time
		if s := h.speedOf(v.pcpu); s != 1 {
			// Heterogeneous core: the cache model runs in reference
			// time (the budget shrinks by the speed factor), and the
			// planned wall stretches back for the timer, so slow cores
			// accrue proportionally less work per wall second.
			h.Cache.Run(&step.Thread.FP, v.pcpu, step.Prof, step.Work, refTime(budget, s), &b.planned)
			wall = sim.Time(math.Ceil(float64(b.planned.Wall) / s))
			if wall > budget {
				wall = budget
			}
		} else {
			h.Cache.Run(&step.Thread.FP, v.pcpu, step.Prof, step.Work, budget, &b.planned)
			wall = b.planned.Wall
		}
		v.burst = b
		step.Thread.OnCPU = true
		v.endBurst.Arm(now + overhead + wall)
	case guest.StepSpin:
		b := &v.slot
		b.kind = burstSpin
		b.thread = step.Thread
		b.start = now
		b.overhead = overhead
		v.burst = b
		step.Thread.OnCPU = true
		v.endBurst.Arm(v.sliceEnd)
	default:
		panic(fmt.Sprintf("xen: unknown step kind %d", step.Kind))
	}
}

// burstEnded handles the natural completion of a burst (work done or
// slice expired).
func (h *Hypervisor) burstEnded(v *VCPU, b *burst, now sim.Time) {
	if v.burst != b {
		return // stale event (should have been cancelled)
	}
	v.burst = nil
	b.thread.OnCPU = false
	switch b.kind {
	case burstRun:
		v.Counters.Add(b.planned.Counters)
		v.Domain.OS.BurstDone(b.thread, b.planned.Ideal, now)
	case burstSpin:
		d := now - b.start - b.overhead
		if d > 0 {
			v.Counters.Add(cache.SpinCounters(h.refElapsed(v.pcpu, d)))
		}
	}
	if now >= v.sliceEnd {
		h.endSlice(v, now)
		return
	}
	h.runBurst(v, now)
}

// settleBurst accounts a burst that was cut short at `now`: the planned
// execution is rolled back and replayed with the actually elapsed
// budget.
func (h *Hypervisor) settleBurst(v *VCPU, b *burst, now sim.Time) {
	b.thread.OnCPU = false
	elapsed := now - b.start - b.overhead
	if b.kind == burstSpin {
		if elapsed > 0 {
			v.Counters.Add(cache.SpinCounters(h.refElapsed(v.pcpu, elapsed)))
		}
		return
	}
	// Roll back the planned burst...
	b.thread.FP = b.fpBefore
	h.Cache.Uninsert(v.pcpu, b.planned.InsertedBytes)
	h.Cache.SetCoreOccupant(v.pcpu, b.coreWas)
	if elapsed <= 0 {
		return // preempted during the context-switch window: no progress
	}
	// ...and replay exactly the elapsed part (in reference time on a
	// heterogeneous core). The replay overwrites the plan, whose
	// InsertedBytes the rollback has already consumed.
	h.Cache.Run(&b.thread.FP, v.pcpu, b.prof, b.work, h.refElapsed(v.pcpu, elapsed), &b.planned)
	v.Counters.Add(b.planned.Counters)
	v.Domain.OS.BurstDone(b.thread, b.planned.Ideal, now)
}

// stopRunning takes v off its pCPU, settling any in-flight burst.
func (h *Hypervisor) stopRunning(v *VCPU, now sim.Time) {
	if v.state != Running {
		panic(fmt.Sprintf("xen: stopRunning on %v in state %v", v, v.state))
	}
	if b := v.burst; b != nil {
		v.burst = nil
		v.endBurst.Stop()
		h.settleBurst(v, b, now)
	}
	v.RunTime += now - v.dispatchedAt
	h.running[v.pcpu] = nil
	v.state = Runnable
	v.runnableSince = now
}

// endSlice finishes v's quantum: requeue and reschedule the pCPU.
func (h *Hypervisor) endSlice(v *VCPU, now sim.Time) {
	p := v.pcpu
	h.stopRunning(v, now)
	h.Sched.Requeue(v, now-v.dispatchedAt, now)
	h.TryRun(p, now)
}

// blockVCPU parks a vCPU with no runnable guest work.
func (h *Hypervisor) blockVCPU(v *VCPU, now sim.Time) {
	p := v.pcpu
	h.stopRunning(v, now)
	v.state = Blocked
	h.Sched.Block(v, now)
	h.TryRun(p, now)
}

// --- pool reconfiguration ------------------------------------------------

// PoolPlan describes a full pool configuration: a partition of the guest
// pCPUs into pools and an assignment of every vCPU to one of them.
type PoolPlan struct {
	Pools  []*CPUPool
	Assign map[*VCPU]*CPUPool
}

// Validate checks that the plan partitions the guest pCPUs and assigns
// every vCPU to one of its pools.
func (pp *PoolPlan) Validate(h *Hypervisor) error {
	seen := make(map[hw.PCPUID]bool)
	for _, pool := range pp.Pools {
		for _, p := range pool.PCPUs() {
			if p < 0 || int(p) >= h.Topo.TotalPCPUs() {
				return fmt.Errorf("xen: pool %s lists pCPU %d outside the topology (%d pCPUs)",
					pool.Name, p, h.Topo.TotalPCPUs())
			}
			if seen[p] {
				return fmt.Errorf("xen: pCPU %d in two pools", p)
			}
			seen[p] = true
		}
	}
	for _, p := range h.guestPCPUs {
		if !seen[p] {
			return fmt.Errorf("xen: guest pCPU %d in no pool", p)
		}
	}
	for _, d := range h.Domains {
		for _, v := range d.VCPUs {
			pool, ok := pp.Assign[v]
			if !ok || pool == nil {
				return fmt.Errorf("xen: vCPU %v not assigned to a pool", v)
			}
			found := false
			for _, pl := range pp.Pools {
				if pl == pool {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("xen: vCPU %v assigned to foreign pool %s", v, pool.Name)
			}
		}
	}
	return nil
}

// ApplyPlan reconfigures pools and vCPU membership. Running vCPUs whose
// pCPU leaves their pool are preempted; everything else migrates for
// free (the shared-scheduler trick). Cache effects of migration emerge
// from the cache model on the next dispatch.
func (h *Hypervisor) ApplyPlan(pp *PoolPlan, now sim.Time) error {
	if err := pp.Validate(h); err != nil {
		return err
	}
	h.pools = pp.Pools
	for i := range h.poolOf {
		h.poolOf[i] = nil
	}
	for _, pool := range pp.Pools {
		for _, p := range pool.PCPUs() {
			h.poolOf[p] = pool
		}
	}
	for _, d := range h.Domains {
		for _, v := range d.VCPUs {
			newPool := pp.Assign[v]
			if v.pool == newPool {
				continue
			}
			h.PoolMigrations++
			v.pool = newPool
			switch v.state {
			case Running:
				if !newPool.Contains(v.pcpu) {
					h.Preempt(v.pcpu, now)
				} else {
					// Stays put; the new quantum takes effect at the
					// next dispatch.
				}
			case Runnable:
				h.Sched.PoolChanged(v, now)
			case Blocked:
				// Nothing queued; next wake uses the new pool.
			}
		}
	}
	// A pCPU may have changed pools under a vCPU whose assignment kept
	// the same pool object: evict any running vCPU stranded outside its
	// pool.
	for _, p := range h.guestPCPUs {
		if v := h.running[p]; v != nil && !v.pool.Contains(p) {
			h.Preemptions++
			h.stopRunning(v, now)
			h.Sched.Requeue(v, now-v.dispatchedAt, now)
		}
	}
	// Kick every idle pCPU: queues may have moved.
	for _, p := range h.guestPCPUs {
		h.TryRun(p, now)
	}
	return nil
}

// Run executes the simulation until the deadline.
func (h *Hypervisor) Run(until sim.Time) { h.Engine.RunUntil(until) }
