package scenario

import (
	"fmt"
	"math"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// GenSpec describes a generated colocation scenario: a machine, a vCPU
// budget, an over-subscription ratio and a type mix. Generate expands
// it into a reproducible Spec — the population is a pure function of
// the GenSpec (including its Seed), so every sweep run of the same axis
// point deploys the identical VM set regardless of worker interleaving,
// while the per-run simulation seed still varies across replications.
type GenSpec struct {
	// Name labels the generated scenario (the sweep axis name).
	Name string
	// Topo is the machine; nil defaults to the i7-3770.
	Topo *hw.Topology
	// VCPUs is the total guest vCPU budget to fill (≥ 1).
	VCPUs int
	// OverSub is the vCPU : guest-pCPU ratio (default 4, the paper's
	// single-socket consolidation ratio). The generator provisions
	// ceil(VCPUs/OverSub) guest pCPUs, capped at the machine size.
	OverSub float64
	// Mix weights the five vCPU types; weights need not sum to 1.
	// Types absent from the map are never drawn.
	Mix map[vcputype.Type]float64
	// Fixed deploys these named applications first (one VM each);
	// their vCPUs count against the budget. Synthetic VMs fill the
	// remainder.
	Fixed []workload.AppSpec
	// Seed drives the generator's draws (types and app knobs). It is
	// independent of the simulation seed the sweep assigns per run.
	Seed uint64

	// Phases, when non-empty, defines a behaviour cycle (each entry's
	// Dur and Type; the per-phase knobs are drawn per VM): generated
	// VMs become phased applications with probability PhaseProb.
	Phases []workload.AppPhase
	// PhaseProb is the probability a generated VM is phased. The zero
	// value means "unset" and defaults to 1 when Phases is set; to
	// generate no phased VMs, leave Phases empty instead. (The
	// spec-file layer distinguishes an explicit "phase_prob": 0 and
	// drops the phases block accordingly.)
	PhaseProb float64
	// Churn, when set, adds VM arrival/departure events to the
	// generated scenario. See ChurnSpec.
	Churn *ChurnSpec
}

// ChurnSpec parameterizes generated VM churn: Poisson arrivals at Rate
// per simulated second from Start until Horizon, each VM living an
// exponential MeanLifetime (floored at MinLifetime) before teardown.
// All draws fork from the generator seed, so the timeline is identical
// across sweep workers and replications.
type ChurnSpec struct {
	// Rate is mean VM arrivals per simulated second (> 0).
	Rate float64 `json:"rate_per_sec"`
	// MeanLifetime is the mean VM lifetime (> 0).
	MeanLifetime sim.Millis `json:"mean_life_ms"`
	// MinLifetime floors drawn lifetimes (default 200 ms).
	MinLifetime sim.Millis `json:"min_life_ms,omitempty"`
	// Start is the earliest arrival time (default 50 ms).
	Start sim.Millis `json:"start_ms,omitempty"`
	// Horizon bounds arrivals: none at or after it (required, > Start).
	Horizon sim.Millis `json:"horizon_ms"`
	// MaxVMs caps the number of arrivals (0 = unbounded).
	MaxVMs int `json:"max_vms,omitempty"`
}

// effectiveStart is Start with its default applied (Validate and
// Arrivals must agree on it).
func (c *ChurnSpec) effectiveStart() sim.Millis {
	if c.Start == 0 {
		return sim.Millis(50 * sim.Millisecond)
	}
	return c.Start
}

// Validate reports an error for an unexpandable churn block. The
// generator and the fleet both check their churn here and name
// themselves in the error.
func (c *ChurnSpec) Validate() error {
	start := c.effectiveStart()
	switch {
	case c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0):
		return fmt.Errorf("churn arrival rate %v must be positive and finite", c.Rate)
	case c.MeanLifetime <= 0:
		return fmt.Errorf("churn mean lifetime %v must be positive", c.MeanLifetime)
	case c.Horizon <= 0:
		return fmt.Errorf("churn horizon is required (no arrivals at or after it)")
	case c.Start < 0 || c.Horizon <= start:
		// Validate against the same default Start that Arrivals will
		// apply, or a tiny horizon would pass here and silently produce
		// a churn-free "churn" scenario.
		return fmt.Errorf("churn horizon %v must exceed start %v", c.Horizon, start)
	case c.MinLifetime < 0 || c.MaxVMs < 0:
		return fmt.Errorf("churn min lifetime and max VMs must be non-negative")
	}
	if expected := c.Rate * sim.Time(c.Horizon-start).Seconds(); expected > maxChurnArrivals {
		return fmt.Errorf("churn expects ~%.0f arrivals, more than the %d sanity cap", expected, maxChurnArrivals)
	}
	return nil
}

// Arrivals draws the churn timeline: Poisson arrivals with exponential
// lifetimes from the seed's churn fork (label 0xC4A2), so adding churn
// never perturbs the standing population's draws. draw synthesizes each
// arriving VM from the stream and a per-VM fork label; emit receives
// each arrival, its app named chnNN-<name>, right after its draw. The
// generator and the fleet both draw churn here.
func (c ChurnSpec) Arrivals(seed uint64, draw func(rng *sim.RNG, label uint64) workload.AppSpec, emit func(Arrival)) {
	minLife := sim.Time(c.MinLifetime)
	if minLife == 0 {
		minLife = 200 * sim.Millisecond
	}
	rng := sim.NewRNG(seed).Fork(0xC4A2)
	meanInter := sim.Time(float64(sim.Second) / c.Rate)
	at := sim.Time(c.effectiveStart())
	for k := 0; c.MaxVMs == 0 || k < c.MaxVMs; k++ {
		at += rng.ExpTime(meanInter)
		if at >= sim.Time(c.Horizon) {
			break
		}
		s := draw(rng, uint64(k)+0x11)
		s.Name = fmt.Sprintf("chn%02d-%s", k, s.Name)
		life := rng.ExpTime(sim.Time(c.MeanLifetime))
		if life < minLife {
			life = minLife
		}
		emit(Arrival{At: at, Spec: s, Lifetime: life})
	}
}

// Populate draws a standing population filling budget vCPUs from the
// seed's population fork (label 0x5CE0): draw synthesizes VM i from the
// stream with fork label i, the last lock gang is clamped to the
// remaining budget, and emit receives each app, named <name>-NN, right
// after its draw. The generator and the fleet both populate here.
func Populate(seed uint64, budget int, draw func(rng *sim.RNG, label uint64) workload.AppSpec, emit func(workload.AppSpec)) {
	rng := sim.NewRNG(seed).Fork(0x5CE0)
	for i := 0; budget > 0; i++ {
		s := draw(rng, uint64(i))
		if s.Kind == workload.KindLock && s.Threads > budget {
			s.Threads = budget
		}
		s.Name = fmt.Sprintf("%s-%02d", s.Name, i)
		budget -= VCPUsOf(s)
		emit(s)
	}
}

// ParseMix converts a name → weight map (spec-file form) into a typed
// mix, rejecting unknown type names and non-positive weights.
func ParseMix(m map[string]float64) (map[vcputype.Type]float64, error) {
	if len(m) == 0 {
		return nil, fmt.Errorf("scenario: generator mix is missing (want e.g. {\"IOInt\": 0.25, \"LLCF\": 0.75})")
	}
	out := make(map[vcputype.Type]float64, len(m))
	for name, w := range m {
		t, err := vcputype.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("scenario: generator mix: %v", err)
		}
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("scenario: generator mix: weight %v for %s must be positive and finite", w, name)
		}
		out[t] = w
	}
	return out, nil
}

// MixDrawer draws synthetic applications from a weighted vCPU-type mix.
// It is the reusable core of the generator's drawApp (and of the fleet
// generator, which synthesizes per-host VM populations the same way):
// cumulative weights in the taxonomy's fixed order, one Float64 per type
// draw, one Fork per VM — so the draw sequence is a pure function of
// the RNG stream and never of map iteration order.
type MixDrawer struct {
	types []vcputype.Type
	cum   []float64
	total float64
	topo  *hw.Topology
}

// NewMixDrawer prepares a drawer over mix (weights need not sum to 1;
// types absent from the map are never drawn). topo sizes cache working
// sets.
func NewMixDrawer(mix map[vcputype.Type]float64, topo *hw.Topology) *MixDrawer {
	m := &MixDrawer{topo: topo}
	for _, t := range vcputype.All() {
		if w, ok := mix[t]; ok {
			m.total += w
			m.types = append(m.types, t)
			m.cum = append(m.cum, m.total)
		}
	}
	return m
}

// Empty reports whether the mix has no drawable types.
func (m *MixDrawer) Empty() bool { return len(m.types) == 0 }

// DrawType draws one vCPU type, consuming exactly one Float64.
func (m *MixDrawer) DrawType(rng *sim.RNG) vcputype.Type {
	u := rng.Float64() * m.total
	typ := m.types[len(m.types)-1]
	for j, c := range m.cum {
		if u < c {
			typ = m.types[j]
			break
		}
	}
	return typ
}

// Draw synthesizes one VM's application: a type draw from rng followed
// by knob draws from rng's fork labelled label (the generator's exact
// per-VM stream split).
func (m *MixDrawer) Draw(rng *sim.RNG, label uint64) workload.AppSpec {
	typ := m.DrawType(rng)
	return workload.Synthesize(rng.Fork(label), typ, m.topo)
}

// VCPUsOf reports how many vCPUs one VM of the app consumes (its thread
// count for lock applications, 1 otherwise — mirroring Deploy). The
// generator and the fleet layer budget populations with it.
func VCPUsOf(s workload.AppSpec) int {
	if s.Kind == workload.KindLock {
		if s.Threads > 0 {
			return s.Threads
		}
		return 4
	}
	return 1
}

// Sanity caps on generator sizes: a typo (or a fuzzer) asking for a
// billion vCPUs or arrivals must fail validation, not exhaust memory
// expanding the population.
const (
	maxGenVCPUs      = 1 << 16
	maxChurnArrivals = 1 << 16
)

// Validate reports an error for an unexpandable generator spec.
func (g *GenSpec) Validate() error {
	topo := g.Topo
	if topo == nil {
		topo = hw.I73770()
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("scenario: generator %q: %v", g.Name, err)
	}
	if g.VCPUs < 1 {
		return fmt.Errorf("scenario: generator %q: vCPU budget must be ≥ 1, got %d", g.Name, g.VCPUs)
	}
	if g.VCPUs > maxGenVCPUs {
		return fmt.Errorf("scenario: generator %q: vCPU budget %d exceeds the %d sanity cap", g.Name, g.VCPUs, maxGenVCPUs)
	}
	if g.OverSub < 0 || math.IsNaN(g.OverSub) || math.IsInf(g.OverSub, 0) {
		return fmt.Errorf("scenario: generator %q: over-subscription ratio %v must be positive", g.Name, g.OverSub)
	}
	if len(g.Mix) == 0 && len(g.Fixed) == 0 && len(g.Phases) == 0 {
		return fmt.Errorf("scenario: generator %q: mix is missing and no fixed apps or phases given", g.Name)
	}
	for t, w := range g.Mix {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("scenario: generator %q: weight %v for %s must be positive and finite", g.Name, w, t)
		}
	}
	fixed := 0
	for _, f := range g.Fixed {
		fixed += VCPUsOf(f)
	}
	if fixed > g.VCPUs {
		return fmt.Errorf("scenario: generator %q: fixed apps need %d vCPUs but the budget is %d", g.Name, fixed, g.VCPUs)
	}
	if fixed < g.VCPUs && len(g.Mix) == 0 && len(g.Phases) == 0 {
		return fmt.Errorf("scenario: generator %q: %d vCPUs left to fill but the mix is missing", g.Name, g.VCPUs-fixed)
	}
	if len(g.Phases) > 0 {
		if err := workload.ValidatePhaseDefs(g.Phases); err != nil {
			return fmt.Errorf("scenario: generator %q: %v", g.Name, err)
		}
		if p := g.PhaseProb; p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("scenario: generator %q: phase probability %v must be in [0, 1]", g.Name, p)
		}
	}
	if c := g.Churn; c != nil {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario: generator %q: %v", g.Name, err)
		}
		if len(g.Mix) == 0 && len(g.Phases) == 0 {
			return fmt.Errorf("scenario: generator %q: churn needs a mix or phases to draw VMs from", g.Name)
		}
	}
	return nil
}

// Generate expands the generator spec into a concrete scenario. The
// result's Seed is the generator seed; sweeps override it per run.
func (g *GenSpec) Generate() (Spec, error) {
	if err := g.Validate(); err != nil {
		return Spec{}, err
	}
	topo := g.Topo
	if topo == nil {
		topo = hw.I73770()
	}
	t := *topo // fresh copy per expansion: runs must not share state
	topo = &t

	oversub := g.OverSub
	if oversub == 0 {
		oversub = 4
	}
	pcpus := int(math.Ceil(float64(g.VCPUs) / oversub))
	if pcpus < 1 {
		pcpus = 1
	}
	if max := topo.TotalPCPUs(); pcpus > max {
		pcpus = max
	}
	ids := make([]hw.PCPUID, pcpus)
	for i := range ids {
		ids[i] = hw.PCPUID(i)
	}

	// Cumulative weights in the taxonomy's fixed order — map iteration
	// order must never leak into the draw sequence.
	md := NewMixDrawer(g.Mix, topo)

	var apps []Entry
	budget := g.VCPUs
	for _, f := range g.Fixed {
		budget -= VCPUsOf(f)
		apps = append(apps, Entry{Spec: f, Count: 1})
	}

	phaseProb := g.PhaseProb
	if len(g.Phases) > 0 && phaseProb == 0 {
		phaseProb = 1
	}
	// drawApp synthesizes one VM: a phased app (per the phase-cycle
	// definition and probability) or a static one of a mix-drawn type.
	// Static GenSpecs (no Phases) consume the exact historical draw
	// sequence, so existing generated scenarios stay byte-identical.
	drawApp := func(rng *sim.RNG, label uint64) workload.AppSpec {
		var typ vcputype.Type
		if !md.Empty() {
			typ = md.DrawType(rng)
		}
		vrng := rng.Fork(label)
		if len(g.Phases) > 0 && (md.Empty() || rng.Float64() < phaseProb) {
			ph := workload.SynthesizePhases(vrng, g.Phases, topo)
			var cycle sim.Time
			for _, p := range ph {
				cycle += p.Dur
			}
			return workload.AppSpec{
				Name:        "syn-phased",
				Expected:    ph[0].Type,
				Phases:      ph,
				PhaseOffset: vrng.UniformTime(0, cycle),
			}
		}
		return workload.Synthesize(vrng, typ, topo)
	}

	Populate(g.Seed, budget, drawApp, func(s workload.AppSpec) {
		apps = append(apps, Entry{Spec: s, Count: 1})
	})
	var arrivals []Arrival
	if g.Churn != nil {
		g.Churn.Arrivals(g.Seed, drawApp, func(a Arrival) { arrivals = append(arrivals, a) })
	}

	name := g.Name
	if name == "" {
		name = fmt.Sprintf("gen-%dv", g.VCPUs)
	}
	return Spec{
		Name:       name,
		Topo:       topo,
		GuestPCPUs: ids,
		Apps:       apps,
		Arrivals:   arrivals,
		Seed:       g.Seed,
	}, nil
}

// MustGenerate is Generate for specs validated at parse time.
func (g *GenSpec) MustGenerate() Spec {
	s, err := g.Generate()
	if err != nil {
		panic(err.Error())
	}
	return s
}
