// Package credit implements the Xen Credit scheduler model the paper
// extends (Section 2.1).
//
// Each domain holds a weight (proportional share) and an optional cap.
// Every accounting period (30 ms) the scheduler mints credits — 300 per
// pCPU — and distributes them to domains in proportion to their
// weights, splitting each domain's share across its vCPUs. Running
// vCPUs burn credits at 300 per 30 ms of pCPU time. A vCPU with
// positive credit is UNDER, negative is OVER; UNDER vCPUs are scheduled
// round-robin before OVER ones (the paper's Q1), each for the quantum of
// its CPU pool (the paper's Q2; Xen default 30 ms).
//
// The BOOST mechanism ([13], discussed in Sections 1 and 3.4) is
// modelled faithfully: a vCPU that wakes from blocked while UNDER enters
// the BOOST priority, is queued ahead of everyone and may preempt a
// running vCPU that has held its pCPU for at least the rate limit. This
// is what makes *exclusively* IO-bound vCPUs quantum-agnostic
// (Fig. 2(a)) while heterogeneous vCPUs — which exhaust their slice and
// are never boost-eligible — wait a full round of quanta (Fig. 2(b)).
package credit

import (
	"fmt"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/xen"
)

// Priorities, lower is better.
const (
	prioBoost = 0
	prioUnder = 1
	prioOver  = 2
	// prioParked marks capped domains that exhausted their cap: they
	// stay queued but are never picked until credits replenish (Xen's
	// CSCHED_PRI_TS_PARKED).
	prioParked = 3
)

// Accounting constants mirroring Xen's credit scheduler.
const (
	// AcctPeriod is the credit accounting period.
	AcctPeriod = 30 * sim.Millisecond
	// creditsPerAcct is minted per pCPU per accounting period.
	creditsPerAcct = 300.0
	// creditPerUs converts run time to burned credits.
	creditPerUs = creditsPerAcct / float64(AcctPeriod)
	// creditClamp bounds accumulated credit (Xen caps hoarding).
	creditClamp = 300.0
)

// data is the scheduler-private state of one vCPU.
type data struct {
	credit float64
	prio   int
	queued bool
	queue  hw.PCPUID // which runqueue holds it (valid when queued)
	// chargedUpTo is the watermark up to which run time has been
	// converted into burned credit, so periodic accounting and
	// requeue-time burning never double-charge.
	chargedUpTo sim.Time
	// boostRetry is the vCPU's pre-bound boost-retry event body. Bound
	// once at AddVCPU, it lets boostPreempt schedule any number of
	// pending retries without allocating a closure per attempt (the
	// retry path fires on every BOOST wake and used to dominate the
	// allocation profile).
	boostRetry sim.EventFunc
}

func sd(v *xen.VCPU) *data { return v.SD.(*data) }

// Scheduler is the Credit policy. One instance serves all pools.
type Scheduler struct {
	h *xen.Hypervisor
	// runq is indexed by hw.PCPUID (sized in Attach): every enqueue,
	// dequeue and pick touches it, and map access was a measurable
	// share of simulation time.
	runq  [][]*xen.VCPU
	vcpus []*xen.VCPU
}

// New returns a Credit scheduler with BOOST enabled.
func New() *Scheduler { return &Scheduler{} }

// Attach implements xen.Scheduler and starts the accounting tick.
func (s *Scheduler) Attach(h *xen.Hypervisor) {
	s.h = h
	s.runq = make([][]*xen.VCPU, h.Topo.TotalPCPUs())
	var acct func(now sim.Time)
	acct = func(now sim.Time) {
		s.account(now)
		h.Engine.After(AcctPeriod, acct)
	}
	h.Engine.After(AcctPeriod, acct)
}

// AddVCPU implements xen.Scheduler.
func (s *Scheduler) AddVCPU(v *xen.VCPU, now sim.Time) {
	c := &data{credit: 0, prio: prioUnder}
	c.boostRetry = func(t sim.Time) {
		// Still waiting with its boost? Try again.
		if v.State() == xen.Runnable && c.queued && c.prio == prioBoost {
			s.boostPreempt(v, t)
		}
	}
	v.SD = c
	s.vcpus = append(s.vcpus, v)
}

// RemoveVCPU implements xen.Scheduler: drop the vCPU from its runqueue
// and the accounting list (VM teardown).
func (s *Scheduler) RemoveVCPU(v *xen.VCPU, now sim.Time) {
	s.dequeue(v)
	for i, x := range s.vcpus {
		if x == v {
			s.vcpus = append(s.vcpus[:i], s.vcpus[i+1:]...)
			break
		}
	}
}

// burnUpTo converts run time in (chargedUpTo, now] into burned credit.
func (s *Scheduler) burnUpTo(v *xen.VCPU, now sim.Time) {
	c := sd(v)
	if now <= c.chargedUpTo {
		return
	}
	c.credit -= float64(now-c.chargedUpTo) * creditPerUs
	if c.credit < -creditClamp {
		c.credit = -creditClamp
	}
	c.chargedUpTo = now
}

// account mints and distributes credits (every 30 ms).
func (s *Scheduler) account(now sim.Time) {
	// Charge running vCPUs for time elapsed since their watermark, so
	// long slices burn credit across period boundaries.
	for _, v := range s.vcpus {
		if v.State() == xen.Running {
			s.burnUpTo(v, now)
		}
	}
	// Mint: 300 credits per guest pCPU per period, split by weight.
	total := creditsPerAcct * float64(len(s.h.GuestPCPUs()))
	weightSum := 0
	for _, d := range s.h.Domains {
		weightSum += d.Weight * len(d.VCPUs)
	}
	if weightSum == 0 {
		return
	}
	for _, d := range s.h.Domains {
		domShare := total * float64(d.Weight*len(d.VCPUs)) / float64(weightSum)
		perVCPU := domShare / float64(len(d.VCPUs))
		if d.Cap > 0 {
			// Cap: the domain may consume at most Cap% of one pCPU.
			maxPerVCPU := creditsPerAcct * float64(d.Cap) / 100 / float64(len(d.VCPUs))
			if perVCPU > maxPerVCPU {
				perVCPU = maxPerVCPU
			}
		}
		for _, v := range d.VCPUs {
			c := sd(v)
			c.credit += perVCPU
			if c.credit > creditClamp {
				c.credit = creditClamp
			}
			// A boosted vCPU that is still waiting in a run queue keeps
			// its boost: clearing it here would strand a woken IO vCPU
			// behind full slices whenever the tick lands inside its
			// (rate-limited) preemption window.
			if c.prio == prioBoost && c.queued && v.State() == xen.Runnable {
				continue
			}
			// Priority recomputes at the tick; BOOST expires here.
			switch {
			case c.credit >= 0:
				c.prio = prioUnder
			case d.Cap > 0:
				// Over budget with a cap: parked until replenished.
				c.prio = prioParked
			default:
				c.prio = prioOver
			}
			// A running capped vCPU that went over budget is evicted.
			if c.prio == prioParked && v.State() == xen.Running {
				s.h.Preempt(v.PCPU(), now)
			}
		}
	}
	// Priorities moved around: idle pCPUs may now have runnable work
	// (e.g. a parked vCPU just unparked).
	for _, p := range s.h.GuestPCPUs() {
		if s.h.RunningOn(p) == nil {
			s.h.TryRun(p, now)
		}
	}
}

// homePCPU picks the runqueue pCPU for v: its last pCPU when inside its
// pool, otherwise the pool pCPU with the shortest queue.
func (s *Scheduler) homePCPU(v *xen.VCPU) hw.PCPUID {
	pool := v.Pool()
	if pool.Contains(v.LastPCPU()) {
		return v.LastPCPU()
	}
	best := pool.PCPUs()[0]
	for _, p := range pool.PCPUs() {
		if len(s.runq[p]) < len(s.runq[best]) {
			best = p
		}
	}
	return best
}

// enqueue inserts v into its home runqueue in priority order (FIFO
// within a priority level).
func (s *Scheduler) enqueue(v *xen.VCPU) {
	c := sd(v)
	if c.queued {
		panic(fmt.Sprintf("credit: %v queued twice", v))
	}
	p := s.homePCPU(v)
	q := s.runq[p]
	pos := len(q)
	for i := range q {
		if sd(q[i]).prio > c.prio {
			pos = i
			break
		}
	}
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = v
	s.runq[p] = q
	c.queued = true
	c.queue = p
}

// dequeue removes v from its runqueue.
func (s *Scheduler) dequeue(v *xen.VCPU) {
	c := sd(v)
	if !c.queued {
		return
	}
	q := s.runq[c.queue]
	for i, x := range q {
		if x == v {
			s.runq[c.queue] = append(q[:i], q[i+1:]...)
			break
		}
	}
	c.queued = false
}

// Wake implements xen.Scheduler: BOOST when eligible, then try to place.
// Eligibility follows Xen: a vCPU that was UNDER at the last accounting
// tick boosts on wake; OVER (or parked) ones do not.
func (s *Scheduler) Wake(v *xen.VCPU, now sim.Time) {
	c := sd(v)
	boosted := false
	if c.prio <= prioUnder {
		c.prio = prioBoost
		boosted = true
	}
	s.enqueue(v)

	pool := v.Pool()
	// Fill an idle pCPU first (prefer the vCPU's last pCPU).
	if pool.Contains(v.LastPCPU()) && s.h.RunningOn(v.LastPCPU()) == nil {
		s.h.TryRun(v.LastPCPU(), now)
		return
	}
	for _, p := range pool.PCPUs() {
		if s.h.RunningOn(p) == nil {
			s.h.TryRun(p, now)
			return
		}
	}
	if boosted {
		s.boostPreempt(v, now)
	}
}

// boostPreempt tries to evict the worst-priority running vCPU in v's
// pool for the boosted v. When every candidate is still inside its rate
// limit, the attempt is retried the moment the earliest one becomes
// eligible (Xen defers the tickle the same way); without the retry a
// boosted vCPU that wakes just after a hog's dispatch would wait the
// hog's entire quantum, defeating BOOST for long slices.
func (s *Scheduler) boostPreempt(v *xen.VCPU, now sim.Time) {
	pool := v.Pool()
	var target hw.PCPUID
	worst := prioBoost // only preempt strictly worse than BOOST
	found := false
	soonest := sim.MaxTime
	for _, p := range pool.PCPUs() {
		r := s.h.RunningOn(p)
		if r == nil {
			s.h.TryRun(p, now)
			return
		}
		if pr := sd(r).prio; pr > prioBoost {
			if ran := r.RanFor(now); ran < xen.RateLimit {
				if at := now + xen.RateLimit - ran; at < soonest {
					soonest = at
				}
				continue
			}
			if pr > worst {
				worst = pr
				target = p
				found = true
			}
		}
	}
	if found {
		s.h.Preempt(target, now)
		return
	}
	if soonest == sim.MaxTime {
		// No candidate at all right now (e.g. every runner is itself
		// boosted). Those states are transient — retry after the rate
		// limit rather than stranding the boosted vCPU for a slice.
		soonest = now + xen.RateLimit
	}
	s.h.Engine.At(soonest, sd(v).boostRetry)
}

// Requeue implements xen.Scheduler: burn credits for the slice that just
// ended and queue on the home runqueue. As in Xen, the priority is NOT
// recomputed here — UNDER/OVER only changes at the accounting tick — but
// an expiring slice does consume a BOOST.
func (s *Scheduler) Requeue(v *xen.VCPU, ranFor sim.Time, now sim.Time) {
	s.burnUpTo(v, now)
	c := sd(v)
	if c.prio == prioBoost {
		c.prio = prioUnder
	}
	s.enqueue(v)
}

// Block implements xen.Scheduler: burn for the partial slice. The
// tick-time priority is kept (Xen semantics).
func (s *Scheduler) Block(v *xen.VCPU, now sim.Time) {
	s.dequeue(v) // defensive; a blocking vCPU is normally unqueued
	s.burnUpTo(v, now)
	c := sd(v)
	if c.prio == prioBoost {
		c.prio = prioUnder
	}
}

// PickNext implements xen.Scheduler: pop the best local vCPU, else steal
// from the peer queue (within the pool) holding the most stealable work.
func (s *Scheduler) PickNext(p hw.PCPUID, now sim.Time) *xen.VCPU {
	if v := s.popLocal(p, now); v != nil {
		return v
	}
	pool := s.h.PoolOf(p)
	if pool == nil {
		return nil
	}
	var richest hw.PCPUID
	max := 0
	for _, q := range pool.PCPUs() {
		if q == p {
			continue
		}
		if n := s.countStealable(q, p); n > max {
			max = n
			richest = q
		}
	}
	if max == 0 {
		return nil
	}
	if v := s.popStealable(richest, p, now); v != nil {
		sd(v).chargedUpTo = now
		return v
	}
	return nil
}

// popLocal pops the first runnable (non-parked) vCPU of p's queue,
// re-homing strays whose pool no longer includes p (self-healing after
// reconfiguration).
func (s *Scheduler) popLocal(p hw.PCPUID, now sim.Time) *xen.VCPU {
	for {
		idx := -1
		for i, v := range s.runq[p] {
			if sd(v).prio != prioParked {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil
		}
		q := s.runq[p]
		v := q[idx]
		s.runq[p] = append(q[:idx], q[idx+1:]...)
		sd(v).queued = false
		if v.Pool().Contains(p) {
			sd(v).chargedUpTo = now
			return v
		}
		s.enqueue(v) // re-home to its own pool
	}
}

// countStealable counts vCPUs queued on q that are allowed to run on p.
func (s *Scheduler) countStealable(q, p hw.PCPUID) int {
	n := 0
	for _, v := range s.runq[q] {
		if v.Pool().Contains(p) && sd(v).prio != prioParked {
			n++
		}
	}
	return n
}

// popStealable removes the first vCPU on q's queue that may run on p.
func (s *Scheduler) popStealable(q, p hw.PCPUID, now sim.Time) *xen.VCPU {
	for i, v := range s.runq[q] {
		if v.Pool().Contains(p) && sd(v).prio != prioParked {
			s.runq[q] = append(s.runq[q][:i], s.runq[q][i+1:]...)
			sd(v).queued = false
			return v
		}
	}
	return nil
}

// SliceFor implements xen.Scheduler: the pool quantum, clipped by any
// per-vCPU override (vSlicer-style policies).
func (s *Scheduler) SliceFor(v *xen.VCPU, p hw.PCPUID) sim.Time {
	slice := v.Pool().Slice
	if v.SliceOverride > 0 && v.SliceOverride < slice {
		slice = v.SliceOverride
	}
	return slice
}

// PoolChanged implements xen.Scheduler: re-home a queued vCPU.
func (s *Scheduler) PoolChanged(v *xen.VCPU, now sim.Time) {
	if sd(v).queued {
		s.dequeue(v)
		s.enqueue(v)
	}
}
