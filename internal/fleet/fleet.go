package fleet

import (
	"fmt"
	"math"

	"aqlsched/internal/baselines"
	"aqlsched/internal/credit"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// Host is one machine of the fleet: a private hypervisor (with its own
// engine, scheduler and policy instance) plus the fleet-level admission
// state. Host engines advance independently between fleet events, so
// they never observe each other's intermediate state — the property
// the epoch-parallel run loop in parallel.go builds on.
type Host struct {
	ID  int
	Hyp *xen.Hypervisor
	// Pol is the per-host scheduling policy instance (the sweep's
	// policy axis: xen, aql, fixed:<q>, ...).
	Pol scenario.Policy

	deployRNG *sim.RNG
	capacity  int
	committed int // admitted vCPUs, including in-flight migration reservations
	reserved  int // the reservation share of committed (incoming migrations)
	vms       []*VM

	// Fault state: a down host admits nothing until it recovers; a
	// degraded host admits only up to factor × capacity. Both stay at
	// their healthy values (false, 1) unless the spec carries a fault
	// plan, so fault-free runs are bit-identical to pre-fault builds.
	down       bool
	factor     float64
	degradeGen int
}

// Capacity is the host's nominal admission limit in vCPUs.
func (h *Host) Capacity() int { return h.capacity }

// EffCapacity is the current admission limit: nominal capacity scaled
// by the active degradation factor (0 while the host is down).
func (h *Host) EffCapacity() int {
	if h.down {
		return 0
	}
	return int(math.Floor(float64(h.capacity) * h.factor))
}

// Down reports whether the host is crashed right now.
func (h *Host) Down() bool { return h.down }

// Degraded reports whether a capacity degradation is active.
func (h *Host) Degraded() bool { return h.factor < 1 }

// Committed is the host's admitted vCPU count (reservations included).
func (h *Host) Committed() int { return h.committed }

// Load is the host's admission-load fraction.
func (h *Host) Load() float64 { return float64(h.committed) / float64(h.capacity) }

// VMs lists the VMs resident on the host; callers must not mutate it.
func (h *Host) VMs() []*VM { return h.vms }

// advance runs the host's private engine up to the fleet time t.
func (h *Host) advance(t sim.Time) {
	if t > h.Hyp.Engine.Now() {
		h.Hyp.Run(t)
	}
}

// VM is one fleet VM over its whole life: queued, placed, possibly
// migrated, possibly departed.
type VM struct {
	ID int
	VMSpec

	// PlacedAt is when placement admitted the VM (meaningful once
	// Placed).
	PlacedAt sim.Time
	Placed   bool
	Gone     bool

	host      *Host
	dep       *workload.Deployment
	migrating bool
	// runCarried accumulates attained vCPU time from hosts the VM
	// already left (live migrations fold the old deployment's runtime
	// in here before redeploying).
	runCarried sim.Time
	// baseRun is the attained-time watermark at measurement start.
	baseRun sim.Time

	// gen is the placement-stint epoch: bumped on every (re)placement
	// and on crash-eviction, so timeline events scheduled against an
	// earlier stint (the old departure, a migration completion) detect
	// they are stale and clean up instead of acting.
	gen int
	// Crash-recovery state: waitRepl marks a crash victim not yet
	// re-placed (crashedAt anchors its downtime), retries counts failed
	// re-placement attempts, remaining is the unserved share of
	// Lifetime at crash time.
	waitRepl  bool
	crashedAt sim.Time
	retries   int
	remaining sim.Time
}

// Host reports where the VM currently runs (nil while queued or gone).
func (v *VM) Host() *Host { return v.host }

// Migrating reports whether a live migration is in flight.
func (v *VM) Migrating() bool { return v.migrating }

// --- Fleet -----------------------------------------------------------------

// Fleet is one running (or finished) fleet simulation. Tests and
// diagnostics may inspect it through Result.Fleet; sweep artifacts only
// ever see the metric Sets.
type Fleet struct {
	Spec    Spec
	Tenants []Tenant
	Hosts   []*Host
	VMs     []*VM

	placer  Placement
	pending []*VM
	// tenantCommitted tracks admitted vCPUs per tenant (placement
	// fairness state; reservations excluded).
	tenantCommitted []int

	warmup, end sim.Time

	// timeline is the central clock. Every cross-host event (arrival,
	// departure, migration completion, rebalance tick, fault) is a Fleet
	// method scheduled on it and fires in (time, seq) order, seq being
	// schedule order, so same-time events fire deterministically. Events
	// scheduled against a placement stint or degradation episode carry
	// its gen and turn into no-ops once the world has moved on.
	timeline *sim.Engine

	// pool, when non-nil, shards per-host engine advancement across
	// worker goroutines at every epoch barrier (see parallel.go). It is
	// execution machinery only: results are byte-identical with or
	// without it.
	pool *advancePool
	// advances counts per-host advance calls actually issued by the
	// epoch barriers — hosts already at the barrier time are skipped, so
	// this is an efficiency probe for advanceAll, not a result metric.
	advances int

	// Fault state: faults is the plan with defaults applied (nil when
	// the spec injects none); faultRNG drives the per-run migration
	// failure draws, consumed in central-timeline order.
	faults   *FaultPlan
	faultRNG *sim.RNG

	// counters and accumulators
	placements, migrations, aborted int
	waitSum                         sim.Time
	imbSum                          float64
	imbN                            int
	vmSeconds                       float64
	tenantAttained                  []float64
	tenantShares                    [][]float64

	// fault counters
	faultsInjected, migFailures int
	vmsLost, vmsReplaced        int
	replWaitSum                 sim.Time
	downtimeVMSec               float64
}

// Options tunes execution. Everything here is per-run state the sweep
// layer provides; none of it may influence results across runs.
type Options struct {
	// NewPolicy builds one fresh per-host scheduling policy instance
	// (nil = the unmodified credit scheduler). Each host gets its own
	// instance so policies that capture controllers stay host-local.
	NewPolicy func() scenario.Policy
	// Workers bounds the shard-worker pool advancing host engines in
	// parallel between fleet events (0 = the spec's Workers hint, else
	// GOMAXPROCS; 1 = the serial loop; capped at the host count).
	// Results are byte-identical at any value.
	Workers int
}

// Result is one executed fleet run: per-tenant measures (the fleet's
// "apps") plus the run-scoped fleet metric Set, both flowing through
// the registry exactly like single-host scenario results.
type Result struct {
	Spec    Spec
	Policy  string
	Apps    []scenario.AppMeasure
	Metrics metrics.Set
	// Fleet keeps the full simulation state for tests and diagnostics.
	Fleet *Fleet
}

// Run executes the fleet spec. It panics on an invalid spec (the sweep
// spec-file layer validates at parse time; the sweep executor converts
// panics into run errors).
func Run(spec Spec, opts Options) *Result {
	vms, err := spec.GenVMs()
	if err != nil {
		panic(err.Error())
	}
	sp := spec.withDefaults()
	newPol := opts.NewPolicy
	if newPol == nil {
		newPol = func() scenario.Policy { return baselines.XenDefault{} }
	}

	f := &Fleet{
		Spec:            sp,
		Tenants:         sp.Tenants,
		warmup:          sp.Warmup,
		end:             sp.Warmup + sp.Measure,
		tenantCommitted: make([]int, len(sp.Tenants)),
		tenantAttained:  make([]float64, len(sp.Tenants)),
		tenantShares:    make([][]float64, len(sp.Tenants)),
		timeline:        sim.NewEngine(),
	}
	f.placer, err = PlacementByName(sp.Placement)
	if err != nil {
		panic(err.Error())
	}

	capacity := int(math.Round(float64(sp.Topo.TotalPCPUs()) * sp.OverSub))
	if capacity < 1 {
		capacity = 1
	}
	var polName string
	for i := 0; i < sp.Hosts; i++ {
		// Every host owns an independent seed forked from the run seed
		// by its ID, and a deploy RNG split exactly like scenario.Run's.
		hostSeed := sim.NewRNG(sp.Seed).Fork(0xF1E7 + uint64(i)).Uint64()
		topo := *sp.Topo // fresh copy: hosts must not share cache models
		hyp := xen.New(&topo, credit.New(), hostSeed)
		pol := newPol()
		pol.Setup(hyp, nil)
		polName = pol.Name()
		f.Hosts = append(f.Hosts, &Host{
			ID:        i,
			Hyp:       hyp,
			Pol:       pol,
			deployRNG: sim.NewRNG(hostSeed + 0x9e37),
			capacity:  capacity,
			factor:    1,
		})
	}

	var faultTimeline []faultEvent
	if sp.Faults != nil {
		fp := sp.Faults.withDefaults(sp.GenSeed)
		f.faults = &fp
		f.faultRNG = sim.NewRNG(sp.Seed).Fork(0xFA11)
		faultTimeline = f.faults.timeline(sp.Hosts)
	}

	f.VMs = make([]*VM, 0, len(vms))
	f.pending = make([]*VM, 0, len(vms))
	for i := range vms {
		vm := &VM{ID: i, VMSpec: vms[i]}
		f.VMs = append(f.VMs, vm)
		f.timeline.At(vm.ArriveAt, func(now sim.Time) { f.arrive(vm, now) })
	}
	f.timeline.At(f.warmup, f.measureStart)
	every := sim.Time(sp.Rebalance.Every)
	for t := every; t < f.end; t += every {
		f.timeline.At(t, f.tick)
	}
	for _, fe := range faultTimeline {
		h := f.Hosts[fe.host]
		if fe.crash {
			f.timeline.At(fe.at, func(now sim.Time) { f.crash(h, now, fe.dur) })
		} else {
			f.timeline.At(fe.at, func(now sim.Time) { f.degrade(h, fe.factor, fe.dur, now) })
		}
	}

	if workers := resolveWorkers(opts.Workers, sp.Workers, sp.Hosts); workers > 1 {
		pool := newAdvancePool(workers)
		f.pool = pool
		// Release the workers on every exit path (including a propagated
		// host panic) and detach the pool: the Fleet outlives Run inside
		// Result.Fleet, and nothing after this point may use barriers.
		defer func() {
			f.pool = nil
			pool.close()
		}()
	}
	f.run()
	for _, vm := range f.VMs {
		if vm.Placed && !vm.Gone {
			f.settle(vm, f.end)
			f.vmSeconds += float64(vm.VCPUs()) * seconds(f.end-vm.PlacedAt)
		}
		// Crash victims never re-placed (still backing off, requeued, or
		// dropped) were down from the crash to the end of the run.
		if vm.waitRepl {
			f.downtimeVMSec += float64(vm.VCPUs()) * seconds(f.end-vm.crashedAt)
		}
	}

	return f.collect(polName)
}

// arrive queues a VM for placement and admits what placement allows.
func (f *Fleet) arrive(vm *VM, now sim.Time) {
	f.pending = append(f.pending, vm)
	f.drain(now)
}

// measureStart is one global barrier: every host advances to the window
// edge so attained-time watermarks are read at one consistent instant.
// (In epoch mode the epoch barrier already did this; these advances are
// then no-ops.)
func (f *Fleet) measureStart(now sim.Time) {
	f.advanceAll(now)
	for _, vm := range f.VMs {
		if vm.Placed && !vm.Gone {
			vm.baseRun = f.attained(vm, now)
		}
	}
}

// tick rebalances and, inside the measurement window, samples the load
// imbalance.
func (f *Fleet) tick(now sim.Time) {
	f.rebalance(now)
	if now >= f.warmup {
		f.imbSum += f.imbalance()
		f.imbN++
	}
}

// depart tears down a VM whose lifetime ran out in placement stint gen.
func (f *Fleet) depart(vm *VM, gen int, now sim.Time) {
	if vm.Gone || gen != vm.gen {
		// Stale: the VM already departed, or this departure belongs to
		// a placement stint a crash has since ended.
		return
	}
	h := vm.host
	h.advance(now)
	h.Hyp.DestroyDomain(vm.dep.Dom, now)
	f.settle(vm, now)
	f.vmSeconds += float64(vm.VCPUs()) * seconds(now-vm.PlacedAt)
	vm.Gone = true
	h.committed -= vm.VCPUs()
	f.tenantCommitted[vm.Tenant] -= vm.VCPUs()
	removeVM(h, vm)
	// A departure mid-migration leaves the destination reservation
	// in place; the migration-done event releases it as an abort.
	f.drain(now)
}

// migDone completes the live migration of vm from src to dst that
// started in placement stint gen — or fails it, releasing the
// destination reservation.
func (f *Fleet) migDone(vm *VM, src, dst *Host, gen int, now sim.Time) {
	dst.reserved -= vm.VCPUs()
	if vm.Gone {
		// Torn down in flight: release the reservation, nothing moved.
		dst.committed -= vm.VCPUs()
		f.aborted++
		f.drain(now)
		return
	}
	if gen != vm.gen {
		// The source host crashed mid-transfer and the VM went back
		// through recovery: the copy in flight is worthless. Release
		// the reservation and count a failed migration.
		dst.committed -= vm.VCPUs()
		f.migFailures++
		f.drain(now)
		return
	}
	if dst.down {
		// The destination died while the transfer ran: the VM keeps
		// running where it was.
		dst.committed -= vm.VCPUs()
		vm.migrating = false
		f.migFailures++
		f.drain(now)
		return
	}
	if f.faults != nil && f.faults.MigFailProb > 0 && f.faultRNG.Float64() < f.faults.MigFailProb {
		// Injected transfer failure (dirty-page copy never converged,
		// network fault, ...): same outcome as a dead destination.
		dst.committed -= vm.VCPUs()
		vm.migrating = false
		f.migFailures++
		f.faultsInjected++
		f.drain(now)
		return
	}
	vm.migrating = false
	src.advance(now)
	dst.advance(now)
	src.Hyp.DestroyDomain(vm.dep.Dom, now)
	vm.runCarried = f.attained(vm, now)
	src.committed -= vm.VCPUs()
	removeVM(src, vm)
	vm.host = dst
	dst.vms = append(dst.vms, vm)
	vm.dep = workload.Deploy(dst.Hyp, vm.App, fmt.Sprintf("v%d", vm.ID), dst.deployRNG)
	f.migrations++
	f.drain(now)
}

// recoverHost brings a crashed host back into the fleet.
func (f *Fleet) recoverHost(h *Host, now sim.Time) {
	if !h.down {
		return
	}
	h.down = false
	f.drain(now)
}

// degrade caps the host's admissions at factor × capacity for dur.
func (f *Fleet) degrade(h *Host, factor float64, dur, now sim.Time) {
	h.factor = factor
	h.degradeGen++
	f.faultsInjected++
	gen := h.degradeGen
	f.timeline.At(now+dur, func(now sim.Time) { f.degradeEnd(h, gen, now) })
}

// degradeEnd lifts degradation episode gen.
func (f *Fleet) degradeEnd(h *Host, gen int, now sim.Time) {
	if gen != h.degradeGen {
		return // a newer degradation superseded this one
	}
	h.factor = 1
	f.drain(now)
}

// retry attempts to re-place a crash victim lost in placement stint gen.
func (f *Fleet) retry(vm *VM, gen int, now sim.Time) {
	if vm.Gone || gen != vm.gen {
		return
	}
	if vi, h, ok := f.placer.Choose(f, []*VM{vm}); ok && vi == 0 {
		f.place(vm, h, now)
		f.drain(now)
		return
	}
	vm.retries++
	rec := f.faults.Recovery
	if vm.retries > rec.MaxRetries {
		if rec.OnExhaust == "drop" {
			vm.Gone = true
			f.vmsLost++
		} else {
			// Requeue: the victim joins the tail of the regular
			// placement queue and waits for capacity like any arrival.
			f.pending = append(f.pending, vm)
		}
		return
	}
	f.scheduleRetry(vm, now)
}

// crash kills a host: every resident VM is lost and handed to the
// recovery policy, admissions stop until the host recovers (never, when
// down is 0). A second crash on an already-down host is a no-op.
func (f *Fleet) crash(h *Host, now sim.Time, down sim.Time) {
	if h.down {
		return
	}
	h.advance(now)
	h.down = true
	f.faultsInjected++
	if down > 0 {
		f.timeline.At(now+down, func(now sim.Time) { f.recoverHost(h, now) })
	}
	victims := append([]*VM(nil), h.vms...)
	h.vms = h.vms[:0]
	for _, vm := range victims {
		h.Hyp.DestroyDomain(vm.dep.Dom, now)
		f.settle(vm, now)
		f.vmSeconds += float64(vm.VCPUs()) * seconds(now-vm.PlacedAt)
		h.committed -= vm.VCPUs()
		f.tenantCommitted[vm.Tenant] -= vm.VCPUs()
		if vm.Lifetime > 0 {
			vm.remaining = vm.PlacedAt + vm.Lifetime - now
			if vm.remaining <= 0 {
				// The departure was due this very instant: keep a token
				// remaining lifetime so the replacement departs immediately
				// instead of reading 0 as "runs forever".
				vm.remaining = 1
			}
		}
		// End the placement stint: outstanding depart/migration events
		// for this stint become stale, and an in-flight outbound
		// migration will release its reservation at completion time.
		vm.gen++
		vm.Placed = false
		vm.host = nil
		vm.dep = nil
		vm.migrating = false
		vm.runCarried = 0
		vm.baseRun = 0
		vm.waitRepl = true
		vm.crashedAt = now
		vm.retries = 0
		f.scheduleRetry(vm, now)
	}
}

// scheduleRetry arms the victim's next re-placement attempt after the
// recovery policy's exponential backoff.
func (f *Fleet) scheduleRetry(vm *VM, now sim.Time) {
	rec := f.faults.Recovery
	delay := float64(rec.RetryDelay)
	for i := 0; i < vm.retries; i++ {
		delay *= rec.Backoff
	}
	gen := vm.gen
	f.timeline.At(now+sim.Time(delay), func(now sim.Time) { f.retry(vm, gen, now) })
}

// drain admits pending VMs until the placement policy cannot (or will
// not) place anything else.
func (f *Fleet) drain(now sim.Time) {
	for len(f.pending) > 0 {
		vi, h, ok := f.placer.Choose(f, f.pending)
		if !ok {
			return
		}
		vm := f.pending[vi]
		f.pending = append(f.pending[:vi], f.pending[vi+1:]...)
		f.place(vm, h, now)
	}
}

func (f *Fleet) place(vm *VM, h *Host, now sim.Time) {
	h.advance(now)
	h.committed += vm.VCPUs()
	f.tenantCommitted[vm.Tenant] += vm.VCPUs()
	vm.host = h
	vm.Placed = true
	vm.PlacedAt = now
	vm.gen++ // a new placement stint begins
	h.vms = append(h.vms, vm)
	vm.dep = workload.Deploy(h.Hyp, vm.App, fmt.Sprintf("v%d", vm.ID), h.deployRNG)
	lifetime := vm.Lifetime
	if vm.waitRepl {
		// Re-placement of a crash victim: close its downtime window and
		// resume the unserved share of its lifetime.
		f.vmsReplaced++
		f.replWaitSum += now - vm.crashedAt
		f.downtimeVMSec += float64(vm.VCPUs()) * seconds(now-vm.crashedAt)
		vm.waitRepl = false
		lifetime = vm.remaining
	} else {
		f.placements++
		f.waitSum += now - vm.ArriveAt
	}
	if lifetime > 0 {
		gen := vm.gen
		f.timeline.At(now+lifetime, func(now sim.Time) { f.depart(vm, gen, now) })
	}
}

// rebalance initiates up to MaxPerTick live migrations from the most to
// the least loaded host while the load gap exceeds the threshold and a
// move would strictly shrink the pair's worse load (no oscillation).
func (f *Fleet) rebalance(now sim.Time) {
	for n := 0; n < f.Spec.Rebalance.MaxPerTick; n++ {
		var src, dst *Host
		for _, h := range f.Hosts {
			if h.down {
				continue // a dead host neither sheds nor receives load
			}
			if src == nil || h.Load() > src.Load() {
				src = h
			}
			if dst == nil || h.Load() < dst.Load() {
				dst = h
			}
		}
		if src == nil || dst == nil || src == dst {
			return
		}
		gap := src.Load() - dst.Load()
		if gap <= f.Spec.Rebalance.Threshold {
			return
		}
		var vm *VM
		for _, c := range src.vms {
			if c.migrating || c.Gone || !fits(dst, c.VCPUs()) {
				continue
			}
			after := math.Max(
				src.Load()-float64(c.VCPUs())/float64(src.capacity),
				dst.Load()+float64(c.VCPUs())/float64(dst.capacity),
			)
			if after < src.Load() {
				vm = c
				break
			}
		}
		if vm == nil {
			return
		}
		vm.migrating = true
		dst.committed += vm.VCPUs()
		dst.reserved += vm.VCPUs()
		gen := vm.gen
		f.timeline.At(now+sim.Time(f.Spec.Rebalance.MigrationTime), func(now sim.Time) { f.migDone(vm, src, dst, gen, now) })
	}
}

// imbalance is the coefficient of variation of host admission loads.
func (f *Fleet) imbalance() float64 {
	mean := 0.0
	for _, h := range f.Hosts {
		mean += h.Load()
	}
	mean /= float64(len(f.Hosts))
	if mean == 0 {
		return 0
	}
	ss := 0.0
	for _, h := range f.Hosts {
		d := h.Load() - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(f.Hosts))) / mean
}

// attained is the VM's total attained vCPU execution time: runtime
// carried from previous hosts plus the current deployment's, including
// the in-flight slice of currently running vCPUs. The caller must have
// advanced the VM's host to now.
func (f *Fleet) attained(vm *VM, now sim.Time) sim.Time {
	att := vm.runCarried
	if vm.dep != nil {
		for _, v := range vm.dep.Dom.VCPUs {
			att += v.RunTime + v.RanFor(now)
		}
	}
	return att
}

// settle folds the VM's measurement-window attainment into its tenant's
// accumulators. Called exactly once per placement stint, at departure,
// crash-eviction or run end; VMs that departed before the window
// contribute nothing.
func (f *Fleet) settle(vm *VM, now sim.Time) {
	if now <= f.warmup {
		return
	}
	start := vm.PlacedAt
	if start < f.warmup {
		start = f.warmup
	}
	dur := now - start
	if dur <= 0 {
		return
	}
	att := seconds(f.attained(vm, now) - vm.baseRun)
	f.tenantAttained[vm.Tenant] += att
	share := att / (float64(vm.VCPUs()) * seconds(dur))
	f.tenantShares[vm.Tenant] = append(f.tenantShares[vm.Tenant], share)
}

func (f *Fleet) collect(polName string) *Result {
	res := &Result{Spec: f.Spec, Policy: polName, Fleet: f}
	total := 0.0
	for _, a := range f.tenantAttained {
		total += a
	}
	for i, t := range f.Tenants {
		m := scenario.AppMeasure{
			Name:      "tenant:" + t.Name,
			Expected:  vcputype.None,
			Instances: len(f.tenantShares[i]),
		}
		m.Metrics.Put(MTenantVCPUSeconds, f.tenantAttained[i])
		if total > 0 {
			m.Metrics.Put(MTenantShare, f.tenantAttained[i]/total)
		}
		if j, ok := metrics.Jain(f.tenantShares[i]); ok {
			m.Metrics.Put(scenario.MFairnessJain, j)
		}
		res.Apps = append(res.Apps, m)
	}

	res.Metrics.Put(MHosts, float64(len(f.Hosts)))
	res.Metrics.Put(MPlacements, float64(f.placements))
	res.Metrics.Put(MUnplaced, float64(len(f.pending)))
	if f.placements > 0 {
		res.Metrics.Put(MPlacementWait, float64(f.waitSum)/float64(f.placements))
	}
	res.Metrics.Put(MMigrations, float64(f.migrations))
	res.Metrics.Put(MMigrationsAborted, float64(f.aborted))
	if f.imbN > 0 {
		res.Metrics.Put(MUtilImbalance, f.imbSum/float64(f.imbN))
	}
	weighted := make([]float64, len(f.Tenants))
	for i, t := range f.Tenants {
		weighted[i] = f.tenantAttained[i] / t.Weight
	}
	if j, ok := metrics.Jain(weighted); ok {
		res.Metrics.Put(MTenantJain, j)
	}
	res.Metrics.Put(MVMSeconds, f.vmSeconds)
	if f.faults != nil {
		// Fault metrics only exist when a plan was injected, so fault-free
		// runs keep their pre-fault artifact bytes.
		res.Metrics.Put(MFaultsInjected, float64(f.faultsInjected))
		res.Metrics.Put(MMigrationFailures, float64(f.migFailures))
		res.Metrics.Put(MVMsLost, float64(f.vmsLost))
		res.Metrics.Put(MVMsReplaced, float64(f.vmsReplaced))
		if f.vmsReplaced > 0 {
			res.Metrics.Put(MReplacementWait, float64(f.replWaitSum)/float64(f.vmsReplaced))
		}
		res.Metrics.Put(MDowntimeVMSeconds, f.downtimeVMSec)
	}
	// Policy-reported run metrics (EDF's deadline accounting) merge one
	// host at a time, in host order — the reporters accumulate, so the
	// fleet-wide counts are deterministic sums. Policies that report
	// nothing keep the artifact bytes unchanged.
	for _, h := range f.Hosts {
		if r, ok := h.Pol.(scenario.RunMetricsReporter); ok {
			r.ReportRunMetrics(&res.Metrics)
		}
	}
	return res
}

// CheckInvariants verifies the fleet's admission bookkeeping; tests
// call it after (and during) runs. It returns the first violation.
func (f *Fleet) CheckInvariants() error {
	for _, h := range f.Hosts {
		resident := 0
		for _, vm := range h.vms {
			if vm.Gone {
				return fmt.Errorf("host %d holds departed VM %d", h.ID, vm.ID)
			}
			if vm.host != h {
				return fmt.Errorf("VM %d resident on host %d but points at another host", vm.ID, h.ID)
			}
			resident += vm.VCPUs()
		}
		if h.committed != resident+h.reserved {
			return fmt.Errorf("host %d committed %d != resident %d + reserved %d",
				h.ID, h.committed, resident, h.reserved)
		}
		if h.committed < 0 || h.committed > h.capacity {
			return fmt.Errorf("host %d committed %d outside [0, %d]", h.ID, h.committed, h.capacity)
		}
	}
	for _, vm := range f.pending {
		if vm.Placed || vm.Gone {
			return fmt.Errorf("pending VM %d already placed or gone", vm.ID)
		}
	}
	want := make([]int, len(f.Tenants))
	for _, vm := range f.VMs {
		if vm.Placed && !vm.Gone {
			want[vm.Tenant] += vm.VCPUs()
		}
	}
	for i := range want {
		if f.tenantCommitted[i] != want[i] {
			return fmt.Errorf("tenant %d committed %d, want %d", i, f.tenantCommitted[i], want[i])
		}
	}
	return nil
}

// Pending lists the VMs still waiting for placement.
func (f *Fleet) Pending() []*VM { return f.pending }

// Migrations reports completed live migrations.
func (f *Fleet) Migrations() int { return f.migrations }

// Aborted reports migrations aborted by in-flight teardown.
func (f *Fleet) Aborted() int { return f.aborted }

// Placements reports completed VM placements.
func (f *Fleet) Placements() int { return f.placements }

func removeVM(h *Host, vm *VM) {
	for i, x := range h.vms {
		if x == vm {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			return
		}
	}
}

func seconds(t sim.Time) float64 { return float64(t) / float64(sim.Second) }
