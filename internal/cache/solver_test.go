package cache

import (
	"math"
	"testing"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

// legacyBisect is the pre-Newton budget solver, kept verbatim as the
// reference: 48 bisection steps on wall(w) with one exp per probe and
// the exact historical expression tree.
func legacyBisect(m *Model, wallBudget, hi0, r0, T, floor, refRate float64) float64 {
	coldInt := func(w float64) float64 {
		return (1 - r0) * T * (1 - math.Exp(-w/T))
	}
	missCount := func(w float64) float64 {
		c := coldInt(w)
		return refRate * (floor*w + (1-floor)*c)
	}
	wall := func(w float64) float64 { return w + m.missCost*missCount(w) }

	lo, hi := 0.0, hi0
	for i := 0; i < 48 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if wall(mid) > wallBudget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// TestSolveBudgetBitIdenticalToLegacyBisection differentially tests the
// Newton+replay solver against the legacy bisection over a large seeded
// random parameter sweep. Bit-identical means exactly that: any ulp of
// drift in the returned float64 fails, because downstream quantization
// (ceilTime, counter truncation) could amplify it into a visible
// artifact diff.
func TestSolveBudgetBitIdenticalToLegacyBisection(t *testing.T) {
	m := testModel()
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for _, seed := range []uint64{0xB157, 0x7E57, 0xFACE} {
		rng := sim.NewRNG(seed)
		t.Run("", func(t *testing.T) { diffSolver(t, m, rng, n) })
	}
}

func diffSolver(t *testing.T, m *Model, rng *sim.RNG, n int) {
	for i := 0; i < n; i++ {
		// Parameter ranges covering (and exceeding) what real profiles
		// and topologies produce.
		r0 := rng.Float64()
		floor := rng.Float64() * 0.5
		refRate := math.Exp(rng.Float64()*8 - 2)   // ~0.14 .. 55 refs/µs
		T := math.Exp(rng.Float64()*12 + 1)        // ~2.7 .. 4.4e5 µs
		work := math.Exp(rng.Float64()*14 - 2)     // ~0.14 .. 2.2e4 µs
		budget := work * (0.01 + rng.Float64()*10) // below and above wall(work)

		// Only budget-limited cases reach the solver; mirror the caller's
		// entry condition.
		ew := math.Exp(-work / T)
		c := (1 - r0) * T * (1 - ew)
		wallW := work + m.missCost*(refRate*(floor*work+(1-floor)*c))
		if wallW <= budget {
			continue
		}
		hi0 := math.Min(work, budget)
		want := legacyBisect(m, budget, hi0, r0, T, floor, refRate)
		got := m.solveBudget(budget, hi0, r0, T, floor, refRate)
		if got != want {
			t.Fatalf("case %d: solveBudget(budget=%.17g, hi0=%.17g, r0=%.17g, T=%.17g, floor=%.17g, refRate=%.17g)\n got %.17g\nwant %.17g (diff %g)",
				i, budget, hi0, r0, T, floor, refRate, got, want, got-want)
		}
	}
}

// TestRunBudgetLimitedMatchesLegacyEndToEnd drives Model.Run itself on
// budget-limited bursts and checks the full BurstResult (Wall, Ideal,
// counters, inserted bytes, footprint) against a model running the
// legacy solver — the end-to-end guarantee the artifacts depend on.
func TestRunBudgetLimitedMatchesLegacyEndToEnd(t *testing.T) {
	mNew := testModel()
	mRef := testModel()
	rng := sim.NewRNG(0x5EED)
	profs := []Profile{
		{WSS: 4 * hw.MB, RefRate: 10, MissFloor: 0.01},
		{WSS: 6 * hw.MB, RefRate: 40, MissFloor: 0.02},
		{WSS: 12 * hw.MB, RefRate: 25, MissFloor: 0.01}, // overflows cap
	}
	for i := 0; i < 2000; i++ {
		prof := profs[int(rng.Uint64()%3)]
		work := sim.Time(1000 + rng.Uint64()%200000)
		budget := sim.Time(1 + rng.Uint64()%2000)
		var fpN, fpR Footprint
		fpN.resident = rng.Float64() * float64(prof.WSS)
		fpN.socket, fpN.valid, fpN.mark = 0, true, mNew.sockets[0].inserted
		fpR.resident = fpN.resident
		fpR.socket, fpR.valid, fpR.mark = 0, true, mRef.sockets[0].inserted

		got := run(mNew, &fpN, 0, prof, work, budget)
		want := runWithLegacySolver(mRef, &fpR, 0, prof, work, budget)
		if got != want {
			t.Fatalf("case %d (prof=%+v work=%v budget=%v):\n got %+v\nwant %+v", i, prof, work, budget, got, want)
		}
		if fpN.resident != fpR.resident {
			t.Fatalf("case %d: footprint drifted: %.17g vs %.17g", i, fpN.resident, fpR.resident)
		}
	}
}

// runWithLegacySolver reimplements Run's cached branch with the legacy
// bisection (everything else shared), for the end-to-end reference.
func runWithLegacySolver(m *Model, fp *Footprint, core hw.PCPUID, prof Profile, work, budget sim.Time) BurstResult {
	s := m.topo.SocketOf(core)
	m.decay(fp, s)
	res := BurstResult{}
	wallLeft := float64(budget)
	if m.cores[core].last != fp {
		m.cores[core].last = fp
		fill := float64(min(prof.WSS, m.topo.L2.Size)) * m.l2Fill
		if fill >= wallLeft {
			res.Wall = budget
			res.Ideal = 0
			return res
		}
		wallLeft -= fill
	}
	w := float64(work)

	eff := math.Min(float64(prof.WSS), m.capBytes)
	line := float64(m.topo.LLC.LineSize)
	floor := prof.MissFloor
	if prof.WSS > int64(m.capBytes) {
		floor = math.Max(floor, 1-m.capBytes/float64(prof.WSS))
	}
	r0 := 0.0
	if eff > 0 {
		r0 = math.Min(fp.resident/eff, 1)
	}
	T := eff / (prof.RefRate * math.Max(1-floor, 1e-9) * line)
	coldInt := func(w float64) float64 { return (1 - r0) * T * (1 - math.Exp(-w/T)) }
	missCount := func(w float64) float64 {
		c := coldInt(w)
		return prof.RefRate * (floor*w + (1-floor)*c)
	}
	wall := func(w float64) float64 { return w + m.missCost*missCount(w) }
	if wall(w) > wallLeft {
		w = legacyBisect(m, wallLeft, math.Min(w, wallLeft), r0, T, floor, prof.RefRate)
	}
	idealDone := w
	misses := missCount(w)
	refsF := prof.RefRate * w
	r := 1 - (1-r0)*math.Exp(-w/T)
	fp.resident = math.Min(r*eff, eff)

	res.InsertedBytes = misses * float64(m.topo.LLC.LineSize)
	m.insert(s, res.InsertedBytes)
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
	return res
}
