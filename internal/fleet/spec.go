// Package fleet scales the paper's single-host simulation out to a
// simulated datacenter: N hosts, each wrapping its own topology,
// hypervisor and scheduling policy, run under one fleet-level simulated
// clock. VM arrivals are placed onto hosts by pluggable placement
// policies, and a rebalancer live-migrates VMs between hosts when the
// admission-load imbalance crosses a threshold.
//
// Determinism is inherited from the layers below and preserved at the
// merge points: every cross-host event (arrival, departure, migration
// completion, rebalance tick) lives on one central timeline ordered by
// (time, sequence), every host advances its private engine to each event
// time at one barrier before that time's events fire, and every random
// draw forks from either the population seed (the VM timeline) or the
// run seed (per-host simulation) by fixed labels. The same Spec
// therefore produces bit-identical results for any sweep worker count —
// and, because the epoch loop (parallel.go) only moves host-private
// engine work onto worker goroutines at those barriers, for any
// intra-run shard-worker count too.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
)

// Sanity caps on spec sizes: a typo (or a fuzzer) asking for a billion
// hosts should fail validation, not exhaust memory building them.
const (
	maxHosts      = 1 << 14 // 16,384 hosts
	maxFleetVCPUs = 1 << 17 // 131,072 vCPUs of initial population
)

// Tenant is one proportional-share owner of fleet VMs. Weights drive
// both the tenant-fairshare placement policy and the per-tenant
// fairness metrics.
type Tenant struct {
	Name   string
	Weight float64
}

// Rebalance parameterizes the live-migration trigger: every Every the
// fleet compares host admission loads (committed vCPUs over capacity)
// and, while the max-min gap exceeds Threshold, moves one fitting VM
// from the most to the least loaded host. A migration holds capacity on
// both hosts for MigrationTime before completing.
type Rebalance struct {
	// Every is the tick period (default 250 ms).
	Every sim.Millis `json:"every_ms,omitempty"`
	// Threshold is the load-fraction gap that triggers a migration
	// (default 0.25; set ≥ 1 to disable migrations in a fully packed
	// fleet).
	Threshold float64 `json:"threshold,omitempty"`
	// MigrationTime models the live-migration transfer (default 40 ms).
	MigrationTime sim.Millis `json:"migration_ms,omitempty"`
	// MaxPerTick bounds migrations initiated per tick (default 2).
	MaxPerTick int `json:"max_per_tick,omitempty"`
}

func (r Rebalance) withDefaults() Rebalance {
	if r.Every <= 0 {
		r.Every = sim.Millis(250 * sim.Millisecond)
	}
	if r.Threshold == 0 {
		r.Threshold = 0.25
	}
	if r.MigrationTime <= 0 {
		r.MigrationTime = sim.Millis(40 * sim.Millisecond)
	}
	if r.MaxPerTick <= 0 {
		r.MaxPerTick = 2
	}
	return r
}

// VMSpec is one VM on the fleet timeline: when it arrives, what it
// runs, whom it belongs to, and how long it lives once placed.
type VMSpec struct {
	// ArriveAt is when the VM enters the placement queue (0 = initial
	// population, admitted at simulation start in slice order).
	ArriveAt sim.Time
	// Lifetime, when positive, tears the VM down that long after
	// placement (not after arrival: a VM that waited in the queue still
	// gets its full lifetime).
	Lifetime sim.Time
	// Tenant indexes Spec.Tenants.
	Tenant int
	// App is the workload the VM runs.
	App workload.AppSpec
}

// VCPUs reports the VM's vCPU demand (the admission unit).
func (v VMSpec) VCPUs() int { return scenario.VCPUsOf(v.App) }

// Spec describes a fleet run: the machines, the VM population and
// churn, the placement policy and the rebalancer. Like the scenario
// generator, the VM timeline is a pure function of GenSeed — identical
// across seed replications, so baseline normalization pairs runs over
// the same population — while Seed drives the per-host simulations and
// varies per run.
//
// The JSON tags make Spec the schema of a spec file's {"fleet": {...}}
// block. Fields tagged "-" are not spelled in spec files: the sweep
// layer resolves Topo, Placement and Tenants from names and sets the
// run windows and Seed per run.
type Spec struct {
	Name string `json:"name,omitempty"`
	// Hosts is the number of hosts (≥ 1).
	Hosts int `json:"hosts"`
	// Topo is the per-host machine (nil = i7-3770). Every host runs a
	// fresh copy.
	Topo *hw.Topology `json:"-"`
	// OverSub is the admission ratio: each host accepts up to
	// TotalPCPUs · OverSub vCPUs (default 3).
	OverSub float64 `json:"oversub,omitempty"`
	// Placement names the placement policy (default "least-loaded").
	Placement string `json:"-"`
	// Tenants lists the VM owners (default one tenant "t0", weight 1).
	Tenants []Tenant `json:"-"`
	// VCPUs is the initial population's vCPU budget across the fleet.
	VCPUs int `json:"vcpus"`
	// Mix weights the generated VM types (required unless Explicit is
	// set).
	Mix scenario.Mix `json:"mix,omitempty"`
	// Churn adds Poisson VM arrivals with exponential lifetimes, drawn
	// from GenSeed exactly like the scenario generator's churn.
	Churn *scenario.ChurnSpec `json:"churn,omitempty"`
	// Rebalance parameterizes the migration trigger.
	Rebalance Rebalance `json:"rebalance"`
	// Faults, when non-nil, injects host crashes, transient degradation
	// and migration failures on a seeded schedule (see FaultPlan).
	Faults *FaultPlan `json:"faults,omitempty"`
	// Warmup and Measure window the run (defaults 500 ms / 1 s).
	Warmup  sim.Time `json:"-"`
	Measure sim.Time `json:"-"`
	// Seed is the per-run simulation seed (sweeps override it per run).
	Seed uint64 `json:"-"`
	// GenSeed drives the population draws (default: Seed of the spec as
	// written — sweeps leave it alone so replications share the
	// population). Spec files spell it "seed" and default it to the
	// file's base seed.
	GenSeed uint64 `json:"seed,omitempty"`
	// Explicit, when non-empty, is the exact VM timeline (tests and
	// hand-authored fleets); no population is generated and Mix/VCPUs/
	// Churn are ignored.
	Explicit []VMSpec `json:"-"`
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.Topo == nil {
		out.Topo = hw.I73770()
	}
	if out.OverSub == 0 {
		out.OverSub = 3
	}
	if out.Placement == "" {
		out.Placement = "least-loaded"
	}
	if len(out.Tenants) == 0 {
		out.Tenants = []Tenant{{Name: "t0", Weight: 1}}
	}
	if out.Warmup == 0 {
		out.Warmup = 500 * sim.Millisecond
	}
	if out.Measure == 0 {
		out.Measure = 1 * sim.Second
	}
	if out.GenSeed == 0 {
		out.GenSeed = out.Seed
	}
	out.Rebalance = out.Rebalance.withDefaults()
	return out
}

// Validate reports an error for an unrunnable fleet spec. The sweep
// spec-file layer calls it (plus a trial GenVMs) at parse time, so a
// bad fleet block fails the load, not the run.
func (s *Spec) Validate() error {
	name := s.Name
	if name == "" {
		name = "fleet"
	}
	if s.Hosts < 1 {
		return fmt.Errorf("fleet %q: needs at least one host, got %d", name, s.Hosts)
	}
	if s.Hosts > maxHosts {
		return fmt.Errorf("fleet %q: %d hosts exceeds the %d sanity cap", name, s.Hosts, maxHosts)
	}
	if s.Topo != nil {
		if err := s.Topo.Validate(); err != nil {
			return fmt.Errorf("fleet %q: %v", name, err)
		}
	}
	if s.OverSub < 0 || math.IsNaN(s.OverSub) || math.IsInf(s.OverSub, 0) {
		return fmt.Errorf("fleet %q: over-subscription ratio %v must be positive", name, s.OverSub)
	}
	if p := s.Placement; p != "" && !Placements.Has(p) {
		return fmt.Errorf("fleet %q: unknown placement policy %q (known: %v)", name, p, Placements.Names())
	}
	seen := map[string]bool{}
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("fleet %q: tenant %d has no name", name, i)
		}
		if seen[t.Name] {
			return fmt.Errorf("fleet %q: duplicate tenant %q", name, t.Name)
		}
		seen[t.Name] = true
		if t.Weight <= 0 || math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) {
			return fmt.Errorf("fleet %q: tenant %q weight %v must be positive and finite", name, t.Name, t.Weight)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(name, s.Hosts); err != nil {
			return err
		}
	}
	if len(s.Explicit) > 0 {
		nt := len(s.Tenants)
		if nt == 0 {
			nt = 1 // the default tenant
		}
		for i, v := range s.Explicit {
			if v.Tenant < 0 || v.Tenant >= nt {
				return fmt.Errorf("fleet %q: explicit VM %d references tenant %d of %d", name, i, v.Tenant, nt)
			}
			if v.ArriveAt < 0 || v.Lifetime < 0 {
				return fmt.Errorf("fleet %q: explicit VM %d has a negative arrival or lifetime", name, i)
			}
		}
		return nil
	}
	if s.VCPUs < 1 {
		return fmt.Errorf("fleet %q: initial population vCPU budget must be ≥ 1, got %d", name, s.VCPUs)
	}
	if s.VCPUs > maxFleetVCPUs {
		return fmt.Errorf("fleet %q: population budget %d vCPUs exceeds the %d sanity cap", name, s.VCPUs, maxFleetVCPUs)
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("fleet %q: mix is missing (want e.g. {\"IOInt\": 0.25, \"LLCF\": 0.75})", name)
	}
	if err := s.Mix.Validate(); err != nil {
		return fmt.Errorf("fleet %q: %v", name, err)
	}
	if c := s.Churn; c != nil {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("fleet %q: %v", name, err)
		}
	}
	return nil
}

// GenVMs expands the spec into its VM timeline, sorted by arrival (the
// initial population first, in draw order). It is a pure function of
// the spec and GenSeed.
func (s *Spec) GenVMs() ([]VMSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sp := s.withDefaults()
	if len(sp.Explicit) > 0 {
		out := append([]VMSpec(nil), sp.Explicit...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].ArriveAt < out[j].ArriveAt })
		return out, nil
	}

	topo := *sp.Topo // drawers size working sets off a private copy
	md := scenario.NewMixDrawer(sp.Mix, &topo)

	// Tenant weights, cumulative in declaration order.
	var tcum []float64
	ttotal := 0.0
	for _, t := range sp.Tenants {
		ttotal += t.Weight
		tcum = append(tcum, ttotal)
	}
	// draw leads each VM's draws with its tenant, then synthesizes the
	// app; the emit callbacks, which run right after each draw, pair the
	// finished app with that tenant.
	tenant := 0
	draw := func(rng *sim.RNG, label uint64) workload.AppSpec {
		u := rng.Float64() * ttotal
		tenant = len(tcum) - 1
		for i, c := range tcum {
			if u < c {
				tenant = i
				break
			}
		}
		return md.Draw(rng, label)
	}

	var out []VMSpec
	scenario.Populate(sp.GenSeed, sp.VCPUs, draw, func(app workload.AppSpec) {
		out = append(out, VMSpec{Tenant: tenant, App: app})
	})
	if sp.Churn != nil {
		sp.Churn.Arrivals(sp.GenSeed, draw, func(a scenario.Arrival) {
			out = append(out, VMSpec{ArriveAt: a.At, Lifetime: a.Lifetime, Tenant: tenant, App: a.Spec})
		})
	}
	return out, nil
}
