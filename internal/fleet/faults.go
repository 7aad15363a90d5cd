// Failure injection: the fault plan turns host crashes, transient
// degradation and migration failures into first-class fleet timeline
// events, and the recovery policy re-places the victims of a dead host
// through the regular Placement registry.
//
// Determinism mirrors the population split: the fault schedule (which
// host fails when, for how long) is a pure function of the plan and its
// seed (default GenSeed), so seed replications see the same storm; the
// probabilistic migration-failure draws come from a fork of the per-run
// simulation seed, consumed in central-timeline order. Nothing in this
// file reads the wall clock or shared mutable state, so fault-injected
// runs stay bit-identical at any sweep worker count.
package fleet

import (
	"fmt"
	"math"

	"aqlsched/internal/sim"
)

// Crash is one explicit host-crash event: the host dies at At, losing
// every resident VM, and rejoins the fleet Down later (Down 0 = the
// host never recovers).
type Crash struct {
	Host int        `json:"host"`
	At   sim.Millis `json:"at_ms"`
	Down sim.Millis `json:"down_ms,omitempty"`
}

// Degrade is one explicit transient-degradation event: from At until
// At+For the host admits VMs only up to Factor × its nominal capacity
// (already-admitted VMs are not evicted; the host just stops accepting
// load it could no longer serve).
type Degrade struct {
	Host   int        `json:"host"`
	At     sim.Millis `json:"at_ms"`
	For    sim.Millis `json:"for_ms"`
	Factor float64    `json:"factor"`
}

// Storm draws a Poisson schedule of fault events: arrivals at Rate per
// simulated second from Start until Horizon, each lasting an
// exponential MeanDown (floored at 1 ms), on a uniformly drawn host.
// For a degrade storm, Factor is the capacity multiplier applied for
// the event's duration. Max, when positive, caps the number of events.
type Storm struct {
	Rate     float64    `json:"rate_per_sec"`
	Start    sim.Millis `json:"start_ms,omitempty"`
	Horizon  sim.Millis `json:"horizon_ms"`
	MeanDown sim.Millis `json:"mean_down_ms"`
	Factor   float64    `json:"factor,omitempty"`
	Max      int        `json:"max,omitempty"`
}

// Recovery parameterizes the re-placement of VMs lost to a host crash:
// each victim retries admission through the placement policy after
// RetryDelay, backing off by Backoff× per failed attempt, up to
// MaxRetries retries. When retries are exhausted the admission decision
// applies: "requeue" (default) drops the VM into the regular placement
// queue to wait for capacity, "drop" gives up and counts it lost.
type Recovery struct {
	// MaxRetries bounds the backoff attempts (default 5).
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryDelay is the first retry's delay (default 10 ms).
	RetryDelay sim.Millis `json:"retry_delay_ms,omitempty"`
	// Backoff multiplies the delay per failed attempt (default 2).
	Backoff float64 `json:"backoff,omitempty"`
	// OnExhaust is "requeue" or "drop" (default "requeue").
	OnExhaust string `json:"on_exhaust,omitempty"`
}

func (r Recovery) withDefaults() Recovery {
	if r.MaxRetries == 0 {
		r.MaxRetries = 5
	}
	if r.RetryDelay <= 0 {
		r.RetryDelay = sim.Millis(10 * sim.Millisecond)
	}
	if r.Backoff == 0 {
		r.Backoff = 2
	}
	if r.OnExhaust == "" {
		r.OnExhaust = "requeue"
	}
	return r
}

// FaultPlan is the spec-driven failure schedule of a fleet run:
// explicit and/or storm-drawn host crashes and degradations, a
// migration failure probability, and the recovery policy. The schedule
// expansion is a pure function of the plan and Seed, so replications
// of one spec share the storm exactly like they share the population.
type FaultPlan struct {
	// Seed drives the storm draws (default: the spec's GenSeed).
	Seed uint64 `json:"seed,omitempty"`
	// Crashes and Degrades are explicit, hand-placed events.
	Crashes  []Crash   `json:"crashes,omitempty"`
	Degrades []Degrade `json:"degrades,omitempty"`
	// CrashStorm and DegradeStorm draw seeded random schedules.
	CrashStorm   *Storm `json:"crash_storm,omitempty"`
	DegradeStorm *Storm `json:"degrade_storm,omitempty"`
	// MigFailProb fails each completing live migration with this
	// probability (the VM stays where it was; the reservation is
	// released).
	MigFailProb float64 `json:"migration_fail_prob,omitempty"`
	// Recovery re-places VMs lost to crashes.
	Recovery Recovery `json:"recovery"`
}

func (p *FaultPlan) withDefaults(genSeed uint64) FaultPlan {
	out := *p
	if out.Seed == 0 {
		out.Seed = genSeed
	}
	out.Recovery = out.Recovery.withDefaults()
	return out
}

// maxStormEvents bounds the expected draw count of one storm so a typo
// ("rate_per_sec": 1e9) fails validation instead of expanding an
// astronomically long schedule.
const maxStormEvents = 1 << 16

func validStorm(name, kind string, s *Storm, degrade bool) error {
	if s.Rate <= 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("fleet %q: %s rate %v must be positive and finite", name, kind, s.Rate)
	}
	if s.Start < 0 || s.Horizon <= s.Start {
		return fmt.Errorf("fleet %q: %s horizon %v must exceed start %v", name, kind, s.Horizon, s.Start)
	}
	if s.MeanDown <= 0 {
		return fmt.Errorf("fleet %q: %s mean duration must be positive", name, kind)
	}
	if s.Max < 0 {
		return fmt.Errorf("fleet %q: %s event cap must be non-negative, got %d", name, kind, s.Max)
	}
	if expected := s.Rate * sim.Time(s.Horizon-s.Start).Seconds(); expected > maxStormEvents {
		return fmt.Errorf("fleet %q: %s expects ~%.0f events, more than the %d sanity cap", name, kind, expected, maxStormEvents)
	}
	if degrade && (s.Factor <= 0 || s.Factor > 1 || math.IsNaN(s.Factor)) {
		return fmt.Errorf("fleet %q: %s capacity factor %v must be in (0, 1]", name, kind, s.Factor)
	}
	return nil
}

// validate rejects an unrunnable fault plan; hosts is the fleet size
// explicit events index into.
func (p *FaultPlan) validate(name string, hosts int) error {
	for i, c := range p.Crashes {
		if c.Host < 0 || c.Host >= hosts {
			return fmt.Errorf("fleet %q: crash %d targets host %d of %d", name, i, c.Host, hosts)
		}
		if c.At < 0 || c.Down < 0 {
			return fmt.Errorf("fleet %q: crash %d has a negative time", name, i)
		}
	}
	for i, d := range p.Degrades {
		if d.Host < 0 || d.Host >= hosts {
			return fmt.Errorf("fleet %q: degrade %d targets host %d of %d", name, i, d.Host, hosts)
		}
		if d.At < 0 || d.For <= 0 {
			return fmt.Errorf("fleet %q: degrade %d needs a non-negative start and a positive duration", name, i)
		}
		if d.Factor <= 0 || d.Factor > 1 || math.IsNaN(d.Factor) {
			return fmt.Errorf("fleet %q: degrade %d capacity factor %v must be in (0, 1]", name, i, d.Factor)
		}
	}
	if s := p.CrashStorm; s != nil {
		if err := validStorm(name, "crash storm", s, false); err != nil {
			return err
		}
	}
	if s := p.DegradeStorm; s != nil {
		if err := validStorm(name, "degrade storm", s, true); err != nil {
			return err
		}
	}
	if p.MigFailProb < 0 || p.MigFailProb > 1 || math.IsNaN(p.MigFailProb) {
		return fmt.Errorf("fleet %q: migration failure probability %v must be in [0, 1]", name, p.MigFailProb)
	}
	r := p.Recovery
	if r.MaxRetries < 0 {
		return fmt.Errorf("fleet %q: recovery retries must be non-negative, got %d", name, r.MaxRetries)
	}
	if r.RetryDelay < 0 {
		return fmt.Errorf("fleet %q: recovery retry delay must be non-negative, got %v", name, r.RetryDelay)
	}
	if r.Backoff != 0 && (r.Backoff < 1 || math.IsNaN(r.Backoff) || math.IsInf(r.Backoff, 0)) {
		return fmt.Errorf("fleet %q: recovery backoff factor %v must be ≥ 1", name, r.Backoff)
	}
	switch r.OnExhaust {
	case "", "requeue", "drop":
	default:
		return fmt.Errorf("fleet %q: recovery on-exhaust decision %q must be \"requeue\" or \"drop\"", name, r.OnExhaust)
	}
	return nil
}

// faultEvent is one expanded entry of the fault schedule.
type faultEvent struct {
	at     sim.Time
	crash  bool // crash vs degrade
	host   int
	dur    sim.Time // downtime (0 = permanent) or degrade duration
	factor float64  // degrade capacity multiplier
}

// stormDraws expands one storm into events; pure function of the rng
// stream it is handed.
func stormDraws(s *Storm, hosts int, crash bool, rng *sim.RNG) []faultEvent {
	var out []faultEvent
	meanInter := sim.Time(float64(sim.Second) / s.Rate)
	at := sim.Time(s.Start)
	for k := 0; s.Max == 0 || k < s.Max; k++ {
		at += rng.ExpTime(meanInter)
		if at >= sim.Time(s.Horizon) {
			break
		}
		dur := rng.ExpTime(sim.Time(s.MeanDown))
		if dur < sim.Millisecond {
			dur = sim.Millisecond
		}
		out = append(out, faultEvent{
			at: at, crash: crash, host: rng.Intn(hosts), dur: dur, factor: s.Factor,
		})
	}
	return out
}

// timeline expands the plan (with defaults applied) into its event
// schedule: explicit crashes, storm crashes, explicit degradations,
// storm degradations, in that schedule order. It is a pure function of
// the plan — the fleet schedules the events on the central (time, seq)
// timeline, which orders same-time faults deterministically.
func (p *FaultPlan) timeline(hosts int) []faultEvent {
	var out []faultEvent
	for _, c := range p.Crashes {
		out = append(out, faultEvent{at: sim.Time(c.At), crash: true, host: c.Host, dur: sim.Time(c.Down)})
	}
	if s := p.CrashStorm; s != nil {
		out = append(out, stormDraws(s, hosts, true, sim.NewRNG(p.Seed).Fork(0xFA17))...)
	}
	for _, d := range p.Degrades {
		out = append(out, faultEvent{at: sim.Time(d.At), host: d.Host, dur: sim.Time(d.For), factor: d.Factor})
	}
	if s := p.DegradeStorm; s != nil {
		out = append(out, stormDraws(s, hosts, false, sim.NewRNG(p.Seed).Fork(0xDE64))...)
	}
	return out
}
