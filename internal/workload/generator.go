package workload

import (
	"fmt"
	"strings"

	"aqlsched/internal/cache"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

// Range bounds one synthesizer knob: float draws are uniform in
// [Lo, Hi); integer draws (thread counts) are uniform over the closed
// interval [Lo, Hi].
type Range struct {
	Lo, Hi float64
}

// draw returns a uniform variate in the range (Lo when degenerate).
func (r Range) draw(rng *sim.RNG) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

func (r Range) drawTime(rng *sim.RNG) sim.Time { return sim.Time(r.draw(rng)) }

func (r Range) drawInt(rng *sim.RNG) int {
	lo, hi := int(r.Lo), int(r.Hi)
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Synthesize draws a synthetic AppSpec whose type-relevant behaviour
// (IO rate, lock cadence, working set) lands in the target type's
// regime on the given machine. The knob ranges bracket the reference
// suite's profiles (profiles.go, Table 3) without leaving each type's
// regime; cache working sets are sized relative to the machine's L2 or
// LLC (the paper's Section 3.4.2 regimes). The result is a pure
// function of the RNG state, the target and the topology: callers that
// fork a fresh RNG per call (rng.Fork(i)) get reproducible,
// order-independent populations — the discipline the sweep layer
// relies on for byte-identical artifacts at any worker count.
func Synthesize(rng *sim.RNG, target vcputype.Type, topo *hw.Topology) AppSpec {
	name := "syn-" + strings.ToLower(target.String())
	switch target {
	case vcputype.IOInt:
		return AppSpec{
			Name:     name,
			Expected: vcputype.IOInt,
			Kind:     KindWeb,
			Rate:     Range{150, 500}.draw(rng),
			Service:  Range{200, 400}.drawTime(rng) * sim.Microsecond,
			Prof:     prof(rng, Range{96, 256}, Range{0.2, 0.4}),
			CGI:      prof(rng, Range{128, 256}, Range{0.2, 0.4}),
			JobWork:  Range{3000, 6000}.drawTime(rng) * sim.Microsecond,
		}

	case vcputype.ConSpin:
		return AppSpec{
			Name:     name,
			Expected: vcputype.ConSpin,
			Kind:     KindLock,
			Prof:     prof(rng, Range{128, 256}, Range{0.3, 0.5}),
			Threads:  Range{2, 6}.drawInt(rng),
			Gap:      Range{120, 400}.drawTime(rng) * sim.Microsecond,
			Hold:     Range{6, 16}.drawTime(rng) * sim.Microsecond,
		}

	case vcputype.LLCF:
		wss := int64(Range{0.15, 0.7}.draw(rng) * float64(topo.LLC.Size))
		return AppSpec{
			Name:     name,
			Expected: vcputype.LLCF,
			Kind:     KindCPU,
			Steady:   true,
			Prof: cache.Profile{
				WSS:         wss,
				RefRate:     Range{8, 20}.draw(rng),
				MissFloor:   Range{0.01, 0.02}.draw(rng),
				ReuseFactor: float64(Range{3, 5}.drawInt(rng)),
			},
			JobWork: Range{2000, 10000}.drawTime(rng) * sim.Microsecond,
		}

	case vcputype.LLCO:
		wss := int64(Range{1.5, 3}.draw(rng) * float64(topo.LLC.Size))
		return AppSpec{
			Name:     name,
			Expected: vcputype.LLCO,
			Kind:     KindCPU,
			Steady:   true,
			Prof: cache.Profile{
				WSS:             wss,
				RefRate:         Range{25, 35}.draw(rng),
				Streaming:       true,
				StreamMissRatio: Range{0.85, 0.95}.draw(rng),
			},
			JobWork: Range{4000, 12000}.drawTime(rng) * sim.Microsecond,
		}

	case vcputype.LoLCF:
		wss := int64(Range{0.4, 0.9}.draw(rng) * float64(topo.L2.Size))
		return AppSpec{
			Name:     name,
			Expected: vcputype.LoLCF,
			Kind:     KindCPU,
			Steady:   true,
			Prof: cache.Profile{
				WSS:     wss,
				RefRate: Range{0.2, 0.5}.draw(rng),
			},
			JobWork: Range{4000, 12000}.drawTime(rng) * sim.Microsecond,
		}
	}
	panic(fmt.Sprintf("workload: cannot synthesize type %v", target))
}

// prof draws a small cache profile: WSS in KB, reference rate.
func prof(rng *sim.RNG, wssKB, refRate Range) cache.Profile {
	return cache.Profile{
		WSS:     int64(wssKB.draw(rng)) * hw.KB,
		RefRate: refRate.draw(rng),
	}
}
