package workload

import (
	"fmt"

	"aqlsched/internal/cache"
	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/iodev"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// AppPhase is one leg of a phased application's behaviour cycle. The
// program cycles through its spec's phases forever: phase k lasts Dur,
// then phase k+1 begins (wrapping around), all measured from the VM's
// deployment time. The phase's Type is the ground truth the adaptation
// diagnostics compare the vTRS's recognized type against.
//
// Compute phases (LoLCF/LLCF/LLCO) run a CPUBound-style job stream with
// the phase's Prof and JobWork. IOInt phases serve open-loop requests
// at Rate with Service time per request (the deployment runs the load
// source only while an IO phase is active). ConSpin phases are not
// supported: a single-threaded phased VM has nobody to contend with.
type AppPhase struct {
	// Dur is the phase length (> 0), from the VM's deployment clock.
	Dur sim.Time
	// Type is the ground-truth vCPU type while this phase is active.
	Type vcputype.Type

	// Prof / JobWork configure compute phases.
	Prof    cache.Profile
	JobWork sim.Time

	// Rate / Service configure IOInt phases.
	Rate    float64
	Service sim.Time
}

// ValidatePhaseDefs checks the definition-level invariants of a phase
// cycle — the parts a generator's phase list must already satisfy
// before per-VM behaviour knobs are drawn: at least two phases, each
// with a positive duration and a supported, known type.
func ValidatePhaseDefs(phases []AppPhase) error {
	if len(phases) < 2 {
		return fmt.Errorf("workload: a phase cycle needs at least 2 phases, got %d", len(phases))
	}
	for i, p := range phases {
		switch {
		case p.Dur <= 0:
			return fmt.Errorf("workload: phase %d has non-positive duration %v", i, p.Dur)
		case p.Type == vcputype.ConSpin:
			return fmt.Errorf("workload: phase %d: ConSpin phases are not supported (single-threaded phased VM)", i)
		case p.Type < 0 || p.Type > vcputype.LoLCF:
			return fmt.Errorf("workload: phase %d: unknown type %v", i, p.Type)
		}
	}
	return nil
}

// ValidatePhases rejects unusable phase schedules: the definition
// checks of ValidatePhaseDefs plus the behaviour knobs a deployable
// phase needs (IO phases a rate, compute phases work and a footprint).
func ValidatePhases(phases []AppPhase) error {
	if len(phases) == 0 {
		return nil
	}
	if err := ValidatePhaseDefs(phases); err != nil {
		return err
	}
	for i, p := range phases {
		switch {
		case p.Type == vcputype.IOInt && p.Rate <= 0:
			return fmt.Errorf("workload: phase %d: IOInt phase needs a positive request rate", i)
		case p.Type != vcputype.IOInt && (p.JobWork <= 0 || p.Prof.WSS <= 0):
			return fmt.Errorf("workload: phase %d: compute phase needs positive JobWork and WSS", i)
		}
	}
	return nil
}

// phaseCycle reports the total cycle length.
func phaseCycle(phases []AppPhase) sim.Time {
	var c sim.Time
	for _, p := range phases {
		c += p.Dur
	}
	return c
}

// PhaseAt reports the active phase index for a clock value rel
// (time since deployment plus the spec's PhaseOffset, cycling).
func PhaseAt(phases []AppPhase, offset, rel sim.Time) int {
	cycle := phaseCycle(phases)
	if cycle <= 0 {
		return 0
	}
	rel = (rel + offset) % cycle
	if rel < 0 {
		rel += cycle
	}
	for i, p := range phases {
		if rel < p.Dur {
			return i
		}
		rel -= p.Dur
	}
	return len(phases) - 1
}

// TypeAt reports the spec's ground-truth vCPU type at time rel since
// deployment: the active phase's type for phased apps, Expected
// otherwise.
func (s *AppSpec) TypeAt(rel sim.Time) vcputype.Type {
	if len(s.Phases) == 0 {
		return s.Expected
	}
	return s.Phases[PhaseAt(s.Phases, s.PhaseOffset, rel)].Type
}

// PhasedProgram drives the single worker thread of a phased VM: at
// every action boundary it re-reads the deployment clock and behaves
// per the active phase — batch jobs during compute phases, request
// service during IO phases. Phase flips therefore take effect within
// one job (a few ms), far below the 30 ms monitoring period whose
// granularity the adaptation metrics are measured at.
type PhasedProgram struct {
	Phases []AppPhase
	Offset sim.Time
	Base   sim.Time // deployment time
	Srv    *iodev.Server

	// JobSleep/SleepEveryJobs pace housekeeping pauses during compute
	// phases (see CPUBound); they also bound how long the thread can go
	// without re-reading the clock.
	JobSleep       sim.Time
	SleepEveryJobs int

	serving  bool // an IO request is being processed
	arrived  sim.Time
	sleeping bool
	count    int
}

// NewPhasedProgram builds the program; srv may be nil when no phase is
// IOInt.
func NewPhasedProgram(phases []AppPhase, offset, base sim.Time, srv *iodev.Server) *PhasedProgram {
	every := int(DefaultSleepSpacing / (5 * sim.Millisecond))
	return &PhasedProgram{
		Phases:         phases,
		Offset:         offset,
		Base:           base,
		Srv:            srv,
		JobSleep:       DefaultJobSleep,
		SleepEveryJobs: every,
	}
}

// Next implements guest.Program.
func (p *PhasedProgram) Next(t *guest.Thread, now sim.Time) guest.Action {
	if p.serving {
		// The in-flight request finished: record and look again.
		p.serving = false
		p.Srv.Complete(p.arrived, now)
		t.Jobs++
	}
	ph := &p.Phases[PhaseAt(p.Phases, p.Offset, now-p.Base)]
	if ph.Type == vcputype.IOInt {
		// Serve whatever is queued; otherwise wait for the next event.
		// Wake-ups can be spurious (phase-boundary nudges, stale events
		// from a previous IO phase), so always re-check the queue.
		if p.Srv.Pending() > 0 {
			p.arrived = p.Srv.Take()
			p.serving = true
			return guest.Compute(ph.Service, &ph.Prof)
		}
		return guest.WaitIO(p.Srv.Port)
	}
	// Compute phase: a CPUBound-style job stream with occasional
	// housekeeping pauses (the pause also re-reads the clock, so a
	// compute phase can never pin the thread past a flip for long).
	if p.sleeping {
		p.sleeping = false
		return guest.Compute(ph.JobWork, &ph.Prof)
	}
	t.Jobs++
	p.count++
	if p.JobSleep > 0 && p.SleepEveryJobs > 0 && p.count%p.SleepEveryJobs == 0 {
		p.sleeping = true
		return guest.Sleep(p.JobSleep)
	}
	return guest.Compute(ph.JobWork, &ph.Prof)
}

// SynthesizePhases draws one behaviour leg per phase definition from
// Synthesize's knob ranges — its phased analogue. The result is a pure
// function of the RNG state, so generated dynamic populations stay
// reproducible at any worker count.
func SynthesizePhases(rng *sim.RNG, defs []AppPhase, topo *hw.Topology) []AppPhase {
	out := make([]AppPhase, len(defs))
	for i, d := range defs {
		ph := AppPhase{Dur: d.Dur, Type: d.Type}
		switch d.Type {
		case vcputype.IOInt:
			ph.Rate = Range{150, 500}.draw(rng)
			ph.Service = Range{200, 400}.drawTime(rng) * sim.Microsecond
			ph.Prof = prof(rng, Range{96, 256}, Range{0.2, 0.4})
		default:
			s := Synthesize(rng, d.Type, topo)
			ph.Prof = s.Prof
			ph.JobWork = s.JobWork
		}
		out[i] = ph
	}
	return out
}

// maxPhaseRate reports the largest IO rate across phases (0 when no IO
// phase exists).
func maxPhaseRate(phases []AppPhase) float64 {
	max := 0.0
	for _, p := range phases {
		if p.Type == vcputype.IOInt && p.Rate > max {
			max = p.Rate
		}
	}
	return max
}

// untilNextBoundary reports the time until the next phase edge from
// clock value rel (time since deployment; the spec offset is applied
// inside).
func untilNextBoundary(phases []AppPhase, offset, rel sim.Time) sim.Time {
	cycle := phaseCycle(phases)
	pos := (rel + offset) % cycle
	if pos < 0 {
		pos += cycle
	}
	var acc sim.Time
	for _, p := range phases {
		acc += p.Dur
		if pos < acc {
			return acc - pos
		}
	}
	return cycle - pos
}

// deployPhased installs a phased VM: one vCPU, one worker thread
// driven by a PhasedProgram, one request server shared by every IO
// phase, and a per-IO-phase Poisson source gated on phase activity by
// a boundary ticker. The ticker consumes no randomness and the sources
// fork their RNGs at deployment, so the whole lifecycle is a pure
// function of (spec, rng, deploy time).
func deployPhased(h *xen.Hypervisor, spec AppSpec, name string, d *Deployment, rng *sim.RNG) {
	base := h.Engine.Now()
	d.Dom = h.CreateDomain(name, 0, 0, 1)
	needIO := maxPhaseRate(spec.Phases) > 0

	var srv *iodev.Server
	srcs := make([]*iodev.PoissonSource, len(spec.Phases))
	if needIO {
		srv = iodev.NewServer(name+".http", 1)
		d.Servers = append(d.Servers, srv)
		for i, ph := range spec.Phases {
			if ph.Type == vcputype.IOInt {
				src := iodev.NewPoissonSource(h, d.Dom, srv, ph.Rate,
					rng.Fork(uint64(h.DomainsEverCreated())*16+uint64(i)+7))
				srcs[i] = src
				d.sources = append(d.sources, src)
			}
		}
	}

	prog := NewPhasedProgram(spec.Phases, spec.PhaseOffset, base, srv)
	t := d.Dom.OS.Spawn(name+".phased", 0, needIO, prog, base)
	d.Threads = append(d.Threads, t)
	d.Workers = append(d.Workers, t)

	// Boundary ticker: (de)activate the phase's source and nudge a
	// thread parked in an IO wait so compute phases begin promptly.
	// Teardown (Deployment.Stop) ends the chain.
	cur := -1
	stopped := false
	d.stops = append(d.stops, func() { stopped = true })
	var tick sim.EventFunc
	tick = func(now sim.Time) {
		if stopped {
			return
		}
		rel := now - base
		i := PhaseAt(spec.Phases, spec.PhaseOffset, rel)
		if i != cur {
			if cur >= 0 && srcs[cur] != nil {
				srcs[cur].Stop()
				srv.DropPending()
			}
			if srcs[i] != nil {
				srcs[i].Start()
			}
			if cur >= 0 && srv != nil {
				// Spurious-wake nudge; PhasedProgram re-checks the queue.
				d.Dom.OS.DeliverIO(srv.Port, now)
			}
			cur = i
		}
		h.Engine.After(untilNextBoundary(spec.Phases, spec.PhaseOffset, rel), tick)
	}
	tick(base)
}
