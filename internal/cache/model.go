// Package cache models the memory hierarchy's effect on execution speed.
//
// The paper's entire cache argument (Section 3.2) is about what a
// quantum length does to last-level-cache (LLC) occupancy:
//
//   - an LLCF vCPU (working set fits in the LLC) loses its resident
//     footprint to co-runners while descheduled and pays a refill cost
//     every time it is dispatched — so short quanta amortize that cost
//     badly and long quanta amortize it well;
//   - an LLCO vCPU (working set overflows the LLC) misses constantly no
//     matter what, so it is quantum-agnostic, but its stream of
//     insertions is what evicts everyone else ("trashing");
//   - a LoLCF vCPU (working set fits in L1/L2) refills a few hundred
//     kilobytes per dispatch, which is negligible at any realistic
//     quantum — also agnostic.
//
// The model reproduces exactly that mechanism analytically. Each thread
// owns a Footprint: the bytes of its working set currently resident in
// some socket's LLC. Sockets carry a monotone "insertion clock" counting
// all bytes inserted into their LLC; a footprint decays between
// dispatches in proportion to how much co-runners inserted in the
// interim (random replacement: each inserted byte evicts a resident byte
// with probability resident/size, giving exponential decay). While a
// thread runs, its misses re-install lines, warming the footprint toward
// its working-set size.
//
// Execution time follows: a burst of "ideal" work w (time it would take
// with a warm cache) is stretched by miss stalls, wall = w + misses *
// missCost. Warm-up misses follow the closed form of the occupancy ODE
// dr/dt = refRate*lineSize*(1-r/WSS), so a burst is simulated in O(1)
// regardless of length.
//
// A set-associative cache simulator (setassoc.go) validates the analytic
// parameters against a directly simulated Drepper-style list walk.
package cache

import (
	"fmt"
	"math"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// Profile describes the memory behaviour of a compute burst. Profiles
// are the synthetic stand-ins for the paper's benchmark working sets.
type Profile struct {
	// WSS is the working-set size in bytes.
	WSS int64
	// RefRate is the number of references reaching the LLC per ideal
	// microsecond of execution (loads missing L1/L2). Working sets that
	// fit in L2 should use a near-zero rate.
	RefRate float64
	// MissFloor is the steady-state LLC miss ratio once the working set
	// is fully resident (conflict/cold misses that never go away).
	MissFloor float64
	// Streaming marks sets traversed with no reuse: every LLC reference
	// misses with ratio StreamMissRatio regardless of occupancy (LLCO).
	Streaming bool
	// StreamMissRatio is the constant miss ratio for streaming sets.
	StreamMissRatio float64
	// ReuseFactor models in-window temporal locality for the PMU
	// reference counter: each line brought into the LLC is re-referenced
	// (ReuseFactor - 1) additional times, so the reported LLC reference
	// count is RefRate*work*ReuseFactor while misses are unchanged.
	// Cache-friendly programs have high reuse — that is what keeps their
	// measured miss *ratio* low even when co-runners evict them between
	// dispatches. Zero means 1 (no extra reuse).
	ReuseFactor float64
}

// DefaultInstrPerUs is the nominal retirement rate of a compute burst
// (one instruction per nanosecond of ideal time).
const DefaultInstrPerUs = 1000.0

// reuse returns the profile's reference reuse factor.
func (p *Profile) reuse() float64 {
	if p.ReuseFactor > 1 {
		return p.ReuseFactor
	}
	return 1
}

// Footprint is the cache-residency state of one thread (or one vCPU when
// a vCPU runs a single thread, the paper's framing). The zero value is a
// fully cold footprint.
type Footprint struct {
	resident float64     // bytes of WSS resident in the LLC of `socket`
	socket   hw.SocketID // which socket's LLC holds the footprint
	valid    bool        // false until first run
	mark     float64     // socket insertion clock at last run
}

// Resident reports the resident bytes (diagnostics and tests).
func (f *Footprint) Resident() float64 { return f.resident }

// Invalidate drops all residency (e.g. after an explicit flush).
func (f *Footprint) Invalidate() { *f = Footprint{} }

// BurstResult reports what happened during a modelled burst.
type BurstResult struct {
	// Wall is the wall-clock (simulated) time consumed.
	Wall sim.Time
	// Ideal is the ideal work completed (warm-cache time units).
	Ideal sim.Time
	// Counters holds the PMU events the burst generated.
	Counters hw.Counters
	// Finished reports whether the requested work completed within the
	// wall budget.
	Finished bool
	// InsertedBytes is how much this burst inserted into the socket LLC
	// (needed to roll the insertion clock back when a planned burst is
	// cut short by preemption).
	InsertedBytes float64
}

// socketLLC is the per-socket shared-LLC state.
type socketLLC struct {
	inserted float64 // monotone byte-insertion clock
}

// coreState tracks which footprint last ran on a core, to charge private
// L1/L2 refill when cores are time-shared.
type coreState struct {
	last *Footprint
}

// Model is the machine-wide cache/performance model.
type Model struct {
	topo     *hw.Topology
	sockets  []socketLLC
	cores    []coreState
	socketOf []hw.SocketID // per core: Topology.SocketOf without a division

	llcSize  float64
	capBytes float64 // max residency a single footprint may hold
	missCost float64 // extra wall µs per LLC miss (vs. an LLC hit)
	l2Fill   float64 // wall µs per byte of private-cache refill
	l2Size   []int64 // per-core private L2 capacity (class overrides)
}

// NewModel builds a cache model for the given machine.
func NewModel(topo *hw.Topology) *Model {
	if err := topo.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	memLatUs := float64(topo.MemLatencyNS) / 1000.0
	llcLatUs := float64(topo.LLC.LatencyNS) / 1000.0
	// Per-core L2 capacity: heterogeneous core classes may shrink a
	// class's private cache. On homogeneous machines every entry equals
	// topo.L2.Size, so the burst arithmetic is unchanged bit for bit.
	l2Size := make([]int64, topo.TotalPCPUs())
	socketOf := make([]hw.SocketID, topo.TotalPCPUs())
	for p := range l2Size {
		l2Size[p] = topo.L2Of(hw.PCPUID(p)).Size
		socketOf[p] = topo.SocketOf(hw.PCPUID(p))
	}
	return &Model{
		topo:     topo,
		sockets:  make([]socketLLC, topo.Sockets),
		cores:    make([]coreState, topo.TotalPCPUs()),
		socketOf: socketOf,
		llcSize:  float64(topo.LLC.Size),
		capBytes: 0.95 * float64(topo.LLC.Size),
		missCost: memLatUs - llcLatUs,
		l2Fill:   1e6 / float64(topo.MemBandwidth),
		l2Size:   l2Size,
	}
}

// Inserted reports the insertion clock of a socket (tests/diagnostics).
func (m *Model) Inserted(s hw.SocketID) float64 { return m.sockets[s].inserted }

// Uninsert rolls back bytes that a burst on core previously inserted
// into its socket's LLC. The hypervisor uses it when a planned burst is
// preempted mid-way: the burst is rolled back and re-run with the
// actually elapsed budget. Because the insertion clock is additive,
// removing exactly this burst's contribution leaves co-runners'
// insertions intact.
func (m *Model) Uninsert(core hw.PCPUID, bytes float64) {
	s := m.socketOf[core]
	m.sockets[s].inserted -= bytes
	if m.sockets[s].inserted < 0 {
		m.sockets[s].inserted = 0
	}
}

// CoreOccupant reports which footprint last ran on a core (snapshot for
// preemption rollback).
func (m *Model) CoreOccupant(core hw.PCPUID) *Footprint { return m.cores[core].last }

// SetCoreOccupant restores a core's last-footprint record (rollback).
func (m *Model) SetCoreOccupant(core hw.PCPUID, fp *Footprint) { m.cores[core].last = fp }

// decay applies inter-dispatch eviction to fp for a dispatch on socket s.
func (m *Model) decay(fp *Footprint, s hw.SocketID) {
	if !fp.valid || fp.socket != s {
		// First run, or migrated across sockets: fully cold here.
		fp.resident = 0
		fp.socket = s
		fp.valid = true
		fp.mark = m.sockets[s].inserted
		return
	}
	// An empty footprint stays empty (0*x == 0), so it skips the Exp:
	// threads that never take the cached branch never build one.
	delta := m.sockets[s].inserted - fp.mark
	if delta > 0 && fp.resident != 0 {
		fp.resident *= math.Exp(-delta / m.llcSize)
	}
	fp.mark = m.sockets[s].inserted
}

// insert records bytes entering socket s's LLC and advances the clock.
func (m *Model) insert(s hw.SocketID, bytes float64) {
	m.sockets[s].inserted += bytes
}

// Run executes up to `work` ideal microseconds of the profile on the
// given core within `budget` wall microseconds, updating the footprint
// and the socket insertion clock, and writes what happened to res
// (overwriting all of it).
//
// Run must be called with work > 0 and budget > 0.
func (m *Model) Run(fp *Footprint, core hw.PCPUID, prof *Profile, work, budget sim.Time, res *BurstResult) {
	if work <= 0 || budget <= 0 {
		panic(fmt.Sprintf("cache: Run(work=%v, budget=%v)", work, budget))
	}
	s := m.socketOf[core]
	m.decay(fp, s)

	*res = BurstResult{}
	wallLeft := float64(budget)

	// Private L1/L2 refill: charged when another footprint used this
	// core since we last did. Bounded by the L2 size.
	if m.cores[core].last != fp {
		m.cores[core].last = fp
		fill := float64(min(prof.WSS, m.l2Size[core])) * m.l2Fill
		if fill >= wallLeft {
			// The whole budget went to private refill; almost no work.
			res.Wall = budget
			return
		}
		wallLeft -= fill
	}

	w := float64(work)
	var idealDone, misses, refsF float64

	switch {
	case prof.WSS <= m.l2Size[core] || prof.RefRate <= 0:
		// L2-resident: runs at ideal speed, negligible LLC traffic.
		idealDone = min(w, wallLeft)
		refsF = prof.RefRate * idealDone
		misses = 0

	case prof.Streaming:
		// No reuse: constant slowdown, constant insertion stream.
		slow := 1 + prof.RefRate*prof.StreamMissRatio*m.missCost
		idealDone = min(w, wallLeft/slow)
		refsF = prof.RefRate * idealDone
		misses = refsF * prof.StreamMissRatio
		res.InsertedBytes = misses * float64(m.topo.LLC.LineSize)
		m.insert(s, res.InsertedBytes)

	default:
		// Cached random access over WSS with warm-up.
		idealDone, misses, refsF = m.runCached(fp, prof, w, wallLeft)
		res.InsertedBytes = misses * float64(m.topo.LLC.LineSize)
		m.insert(s, res.InsertedBytes)
	}

	wallUsed := float64(budget) - wallLeft + idealDone + misses*m.missCost
	res.Wall = ceilTime(wallUsed)
	if res.Wall > budget {
		res.Wall = budget
	}
	if res.Wall < 1 {
		res.Wall = 1
	}
	res.Ideal = sim.Time(idealDone)
	res.Finished = res.Ideal >= work
	if res.Finished {
		res.Ideal = work
	}
	res.Counters = hw.Counters{
		Instructions:  uint64(idealDone * DefaultInstrPerUs),
		LLCReferences: uint64(refsF * prof.reuse()),
		LLCMisses:     uint64(misses),
	}
	fp.mark = m.sockets[s].inserted
}

// runCached integrates the occupancy ODE for a cache-friendly random
// access pattern and returns (idealDone, misses, refs) for the burst,
// updating fp.resident.
//
// Let r be the resident fraction of the effective working set E =
// min(WSS, cap). Misses occur at rate RefRate*(miss probability), with
// missProb = floor + (1-floor)*(1-r). Each miss installs a line:
// dr/dw = RefRate*(1-floor)*(1-r)*line/E, so (1-r) decays exponentially
// in ideal time with constant T = E / (RefRate*(1-floor)*line).
//
// The expensive primitive here is math.Exp: every evaluation of the
// wall-time function costs one. The whole-burst path shares a single
// exp(-w/T) between the budget check, the miss count and the footprint
// update (they all need the same value), and the budget-limited path
// finds the root of wall(w) = budget with a guarded Newton iteration
// (one exp per step, quadratic convergence) instead of the former
// 48-evaluation bisection. To keep results bit-identical with that
// bisection, the converged root then replays the bisection's midpoint
// lattice — pure arithmetic, no exp — reproducing its exact return
// value; see solveBudget.
func (m *Model) runCached(fp *Footprint, prof *Profile, work, wallBudget float64) (idealDone, misses, refs float64) {
	eff := min(float64(prof.WSS), m.capBytes)
	line := float64(m.topo.LLC.LineSize)
	floor := prof.MissFloor
	if prof.WSS > int64(m.capBytes) {
		// Set bigger than the cache but with reuse: references to the
		// uncacheable remainder always miss. Raise the floor by the
		// uncacheable fraction.
		floor = max(floor, 1-m.capBytes/float64(prof.WSS))
	}
	r0 := 0.0
	if eff > 0 {
		r0 = min(fp.resident/eff, 1)
	}
	T := eff / (prof.RefRate * max(1-floor, 1e-9) * line)

	// wall(w) = w + missCost*missCount(w), with
	// missCount(w) = RefRate*(floor*w + (1-floor)*coldInt(w)) and
	// coldInt(w) = (1-r0)*T*(1-exp(-w/T)). Every formula below is kept
	// as the exact expression tree of those definitions — only the
	// shared exp(-w/T) is hoisted — so results match the previous
	// implementation bit for bit.
	missCountAt := func(w, ew float64) float64 {
		c := (1 - r0) * T * (1 - ew)
		return prof.RefRate * (floor*w + (1-floor)*c)
	}
	wallAt := func(w, ew float64) float64 { return w + m.missCost*missCountAt(w, ew) }

	w := work
	ew := math.Exp(-w / T)
	if wallAt(w, ew) > wallBudget {
		w = m.solveBudget(wallBudget, min(w, wallBudget), r0, T, floor, prof.RefRate)
		ew = math.Exp(-w / T)
	}
	idealDone = w
	misses = missCountAt(w, ew)
	refs = prof.RefRate * w

	// Footprint after the burst.
	r := 1 - (1-r0)*ew
	fp.resident = min(r*eff, eff)
	return idealDone, misses, refs
}

// solveBudget finds the ideal work w in [0, hi0] whose wall time equals
// wallBudget, reproducing bit for bit what the legacy bisection
// returned.
//
// wall(w) = w + missCost*RefRate*(floor*w + (1-floor)*(1-r0)*T*(1-exp(-w/T)))
// is strictly increasing (wall' >= 1) and concave (the transient term's
// second derivative is negative), so Newton from below converges
// monotonically and quadratically: each tangent line lies above a
// concave function, so its root never overshoots the true root. Once
// the root is known to full precision, the bisection's answer is a pure
// function of the comparison wall(mid) > budget <=> mid > root, so its
// 48-step midpoint lattice is replayed with plain comparisons — no
// transcendental calls — to land on the exact same float64 the old code
// produced. Should Newton stall (it cannot, but guard anyway), the
// legacy bisection runs as the fallback.
func (m *Model) solveBudget(wallBudget, hi0, r0, T, floor, refRate float64) float64 {
	// Exactly the legacy expression tree (w + missCost*(refRate*(...)));
	// regrouping the products would round differently.
	wallAt := func(w, ew float64) float64 {
		c := (1 - r0) * T * (1 - ew)
		return w + m.missCost*(refRate*(floor*w+(1-floor)*c))
	}

	// Newton on g(w) = wall(w) - budget from w=0 (g(0) = -budget < 0).
	// g'(w) = 1 + missCost*refRate*(floor + (1-floor)*(1-r0)*exp(-w/T)).
	dBase := 1 + m.missCost*refRate*floor
	dCold := m.missCost * refRate * (1 - floor) * (1 - r0)
	root, converged := 0.0, false
	for i := 0; i < 64; i++ {
		ew := math.Exp(-root / T)
		g := wallAt(root, ew) - wallBudget
		if g >= 0 {
			// At (or an ulp past) the root: cannot get closer.
			converged = true
			break
		}
		next := root - g/(dBase+dCold*ew)
		if next > hi0 {
			// Concavity makes this unreachable from below; bail to the
			// exact legacy path if numerics ever disagree.
			break
		}
		if next <= root {
			// Fixed point: the iteration can no longer make progress.
			converged = true
			break
		}
		root = next
	}

	lo, hi := 0.0, hi0
	if !converged {
		// Legacy bisection, one exp per probe.
		for i := 0; i < 48 && hi-lo > 1e-9*(1+hi); i++ {
			mid := (lo + hi) / 2
			if wallAt(mid, math.Exp(-mid/T)) > wallBudget {
				hi = mid
			} else {
				lo = mid
			}
		}
		return lo
	}
	// Replay the bisection lattice against the converged root: wall is
	// strictly increasing, so wall(mid) > budget <=> mid > trueRoot —
	// except within the float evaluation noise of wall itself. That
	// noise is eps-scale in the magnitudes wall sums: the budget, the
	// work, and the transient term missCost*refRate*(1-floor)*(1-r0)*T,
	// whose (1-exp(-w/T)) factor cancels catastrophically when T is
	// huge. Both the legacy predicate's flip point and Newton's root
	// live within that noise of the true root, so midpoints further
	// than `guard` (1000x the noise bound) away are decided by
	// comparison alone, and the rare midpoint inside the band is
	// decided by evaluating the legacy comparison itself. Every replay
	// decision therefore equals the legacy decision, making the
	// returned float64 bit-identical.
	transient := m.missCost * refRate * (1 - floor) * (1 - r0) * T
	guard := 1e3 * 2.3e-16 * (1 + wallBudget + hi0 + transient)
	for i := 0; i < 48 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		var above bool
		switch {
		case mid > root+guard:
			above = true
		case mid < root-guard:
			above = false
		default:
			above = wallAt(mid, math.Exp(-mid/T)) > wallBudget
		}
		if above {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// SpinCounters synthesizes PMU counters for a spin-wait burst of the
// given wall duration: instructions retire (the PAUSE loop), essentially
// no LLC traffic, and the PAUSE-loop-exit counter advances. PauseRate is
// loop iterations per microsecond.
const PauseRate = 32.0

// SpinCounters returns the counters a spin burst of duration d produces.
func SpinCounters(d sim.Time) hw.Counters {
	return hw.Counters{
		Instructions: uint64(float64(d) * DefaultInstrPerUs * 0.25),
		PauseLoops:   uint64(float64(d) * PauseRate),
	}
}

func ceilTime(v float64) sim.Time {
	t := sim.Time(v)
	if float64(t) < v {
		t++
	}
	return t
}
