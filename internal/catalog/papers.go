package catalog

import (
	"fmt"
	"time"

	"aqlsched/internal/baselines"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
)

// The paper's catalogue registers itself: its two machines, Table 4's
// five colocation scenarios plus the four-socket case, the full
// reference benchmark suite, and every scheduling policy of the
// evaluation.
func init() {
	Topologies.Register("i7-3770", hw.I73770)
	Topologies.Register("xeon-e5-4603", hw.XeonE54603)

	// Scenarios. Seed 0 in the constructors: the sweep layer overrides
	// the simulation seed per run.
	for _, s := range scenario.Table4(0) {
		name := s.Name
		Scenarios.Register(name, func() scenario.Spec {
			return scenario.ScenarioByName(name, 0)
		})
	}
	Scenarios.Register("four-socket", func() scenario.Spec {
		return scenario.FourSocket(0)
	})
	// The dynamic-scenario catalogue entry: phased VMs whose type flips
	// mid-run (the adaptation experiment's workload).
	Scenarios.Register("dynphase", func() scenario.Spec {
		return scenario.DynPhase(0)
	})

	// Workloads: the reference suite (SPECweb2009, SPECmail2009,
	// SPEC CPU2006, PARSEC).
	for _, s := range workload.Suite() {
		s := s
		Workloads.Register(s.Name, func() workload.AppSpec { return s })
	}

	// Policies: every spelling of the evaluation registers as a plugin —
	// the descriptor declares the aliases and typed knobs, and the
	// grammar/spec-file/-list surfaces all derive from it.
	RegisterPolicyPlugin(PolicyDesc{
		Name:    "xen",
		Aliases: []string{"xen-credit"},
		Help:    "unmodified Xen credit scheduler (30 ms quantum, BOOST)",
	}, func(Params) (Policy, error) { return XenPolicy(), nil })

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "aql",
		Help:       "the paper's AQL_Sched: vTRS recognition + two-level clustering + per-pool quanta",
		Positional: "window",
		Params: []scenario.ParamDesc{{
			Name: "window", Kind: scenario.ParamInt, Hint: "<periods>",
			Help: "vTRS sliding-window length n (paper default 4)",
			Min:  "1", Max: "64",
		}},
	}, func(p Params) (Policy, error) {
		if n, ok := p.Int("window"); ok {
			return AQLWindowPolicy(n), nil
		}
		return AQLPolicy(), nil
	})

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "aql-w",
		Help:       "AQL at a non-default vTRS window (the reactivity-vs-churn axis)",
		Positional: "n",
		Params: []scenario.ParamDesc{{
			Name: "n", Kind: scenario.ParamInt, Hint: "<periods>",
			Help: "vTRS sliding-window length", Min: "1", Max: "64", Required: true,
		}},
	}, func(p Params) (Policy, error) {
		n, _ := p.Int("n")
		return AQLWindowPolicy(n), nil
	})

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "aql-nocustom",
		Help:       "Fig. 7 ablation: clustering active, every pool at one fixed quantum",
		Positional: "q",
		Params: []scenario.ParamDesc{{
			Name: "q", Kind: scenario.ParamDuration,
			Help: "the fixed per-pool quantum", Required: true,
		}},
	}, func(p Params) (Policy, error) {
		q, _ := p.Duration("q")
		return AQLNoCustomPolicy(q), nil
	})

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "fixed",
		Help:       "every vCPU in one pool at a fixed quantum",
		Positional: "q",
		Params: []scenario.ParamDesc{{
			Name: "q", Kind: scenario.ParamDuration,
			Help: "the quantum", Required: true,
		}},
	}, func(p Params) (Policy, error) {
		q, _ := p.Duration("q")
		return FixedPolicy(q), nil
	})

	RegisterPolicyPlugin(PolicyDesc{
		Name: "vturbo",
		Help: "dedicated turbo cores at a small quantum for IO vCPUs (related system, Fig. 8)",
	}, func(Params) (Policy, error) { return VTurboPolicy(), nil })

	RegisterPolicyPlugin(PolicyDesc{
		Name: "vslicer",
		Help: "shorter slices for IO vCPUs on shared pools (related system, Fig. 8)",
	}, func(Params) (Policy, error) { return VSlicerPolicy(), nil })

	RegisterPolicyPlugin(PolicyDesc{
		Name: "microsliced",
		Help: "1 ms quantum for every vCPU (related system, Fig. 8)",
	}, func(Params) (Policy, error) { return MicroslicedPolicy(), nil })

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "hetero-aql",
		Help:       "class-aware AQL: latency vCPUs pool onto the fastest core class; plain AQL on homogeneous machines",
		Positional: "fast_q",
		Params: []scenario.ParamDesc{{
			Name: "fast_q", Kind: scenario.ParamDuration,
			Help: "quantum of the fast-class pool", Default: "1ms",
		}},
	}, func(p Params) (Policy, error) {
		q, _ := p.Duration("fast_q")
		return HeteroAQLPolicy(q), nil
	})

	RegisterPolicyPlugin(PolicyDesc{
		Name:       "edf",
		Help:       "deadline-aware quantum policy; reports deadline_miss_ratio over per-dispatch scheduling delays",
		Positional: "deadline",
		Params: []scenario.ParamDesc{{
			Name: "deadline", Kind: scenario.ParamDuration,
			Help: "per-dispatch scheduling-delay bound", Required: true,
		}},
	}, func(p Params) (Policy, error) {
		d, _ := p.Duration("deadline")
		return EDFPolicy(d), nil
	})
}

// policy names an axis point by the policy mk builds; every run calls
// mk for a fresh instance, so a stateful policy (AQL's controller,
// EDF's counters) keeps its run's state to itself.
func policy(mk func() scenario.Policy) Policy {
	return Policy{Name: mk().Name(), New: mk}
}

// XenPolicy is the unmodified credit scheduler (the usual baseline).
func XenPolicy() Policy {
	return policy(func() scenario.Policy { return baselines.XenDefault{} })
}

// AQLPolicy is the paper's system. Each run's controller is
// retrievable via sweep.RunResult.Controller.
func AQLPolicy() Policy {
	return policy(func() scenario.Policy { return &baselines.AQL{} })
}

// AQLWindowPolicy is AQL with a non-default vTRS window n (recluster
// cadence and grace period scale with it) — the reactivity-vs-churn
// axis of the adaptation experiment.
func AQLWindowPolicy(n int) Policy {
	return policy(func() scenario.Policy { return &baselines.AQL{Window: n} })
}

// AQLNoCustomPolicy is the Fig. 7 ablation: clustering stays active but
// every pool runs the fixed quantum q.
func AQLNoCustomPolicy(q sim.Time) Policy {
	return policy(func() scenario.Policy { return &baselines.AQL{FixedQuantum: q} })
}

// FixedPolicy runs every vCPU at quantum q in one pool.
func FixedPolicy(q sim.Time) Policy {
	return policy(func() scenario.Policy { return baselines.FixedQuantum{Q: q} })
}

// VTurboPolicy, VSlicerPolicy and MicroslicedPolicy are the related
// systems of Fig. 8, manually configured as in the paper.
func VTurboPolicy() Policy {
	return policy(func() scenario.Policy { return baselines.VTurbo{} })
}

// VSlicerPolicy differentiates IO-intensive slices on shared pools.
func VSlicerPolicy() Policy {
	return policy(func() scenario.Policy { return baselines.VSlicer{} })
}

// MicroslicedPolicy shortens the quantum for every vCPU.
func MicroslicedPolicy() Policy {
	return policy(func() scenario.Policy { return baselines.Microsliced() })
}

// HeteroAQLPolicy is the heterogeneous-topology consumer of the AQL
// machinery: on machines with core classes it pools latency vCPUs onto
// the fastest class at quantum fastQ; on homogeneous machines it is
// plain AQL.
func HeteroAQLPolicy(fastQ sim.Time) Policy {
	return policy(func() scenario.Policy { return &baselines.HeteroAQL{FastQ: fastQ} })
}

// EDFPolicy runs every vCPU at a deadline-derived quantum and counts
// per-dispatch scheduling delays against the deadline (the
// deadline_miss_ratio metric).
func EDFPolicy(deadline sim.Time) Policy {
	return policy(func() scenario.Policy { return &baselines.EDF{Deadline: deadline} })
}

// ParseQuantum parses a quantum duration argument ("10ms", "90ms").
func ParseQuantum(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("catalog: bad quantum %q: %v", s, err)
	}
	q := sim.Time(d / time.Microsecond)
	if q <= 0 {
		return 0, fmt.Errorf("catalog: quantum %q must be positive", s)
	}
	return q, nil
}
