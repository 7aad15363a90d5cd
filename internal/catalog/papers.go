package catalog

import (
	"errors"
	"time"

	"aqlsched/internal/baselines"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
)

// paperScenarios is the scenario table: Table 4's five colocation
// scenarios, the four-socket case and the dynamic-scenario entry
// (phased VMs whose type flips mid-run, the adaptation experiment's
// workload). Seed 0 in the constructors: the sweep layer overrides the
// simulation seed per run.
func paperScenarios() map[string]func() scenario.Spec {
	m := map[string]func() scenario.Spec{
		"four-socket": func() scenario.Spec { return scenario.FourSocket(0) },
		"dynphase":    func() scenario.Spec { return scenario.DynPhase(0) },
	}
	for _, s := range scenario.Table4(0) {
		name := s.Name
		m[name] = func() scenario.Spec { return scenario.ScenarioByName(name, 0) }
	}
	return m
}

// paperWorkloads is the workload table: the reference suite
// (SPECweb2009, SPECmail2009, SPEC CPU2006, PARSEC).
func paperWorkloads() map[string]func() workload.AppSpec {
	m := map[string]func() workload.AppSpec{}
	for _, s := range workload.Suite() {
		m[s.Name] = func() workload.AppSpec { return s }
	}
	return m
}

// policyPlugins is the policy axis: every scheduling policy of the
// evaluation, as a descriptor declaring its aliases and typed knobs
// plus a build function. The grammar, spec-file and -list surfaces all
// derive from it, and PolicyGrammar lists the parameterized forms in
// this order. TestPolicyTable checks the declarations.
var policyPlugins = []policyPlugin{
	{PolicyDesc{
		Name:    "xen",
		Aliases: []string{"xen-credit"},
		Help:    "unmodified Xen credit scheduler (30 ms quantum, BOOST)",
	}, func(Params) Policy { return XenPolicy() }},

	{PolicyDesc{
		Name:       "aql",
		Help:       "the paper's AQL_Sched: vTRS recognition + two-level clustering + per-pool quanta",
		Positional: "window",
		Params: []scenario.ParamDesc{{
			Name: "window", Kind: scenario.ParamInt, Hint: "<periods>",
			Help: "vTRS sliding-window length n (paper default 4)",
			Min:  "1", Max: "64",
		}},
	}, func(p Params) Policy {
		if n, ok := p.Int("window"); ok {
			return AQLWindowPolicy(n)
		}
		return AQLPolicy()
	}},

	{PolicyDesc{
		Name:       "aql-w",
		Help:       "AQL at a non-default vTRS window (the reactivity-vs-churn axis)",
		Positional: "n",
		Params: []scenario.ParamDesc{{
			Name: "n", Kind: scenario.ParamInt, Hint: "<periods>",
			Help: "vTRS sliding-window length", Min: "1", Max: "64", Required: true,
		}},
	}, func(p Params) Policy {
		n, _ := p.Int("n")
		return AQLWindowPolicy(n)
	}},

	{PolicyDesc{
		Name:       "aql-nocustom",
		Help:       "Fig. 7 ablation: clustering active, every pool at one fixed quantum",
		Positional: "q",
		Params: []scenario.ParamDesc{{
			Name: "q", Kind: scenario.ParamDuration,
			Help: "the fixed per-pool quantum", Required: true,
		}},
	}, func(p Params) Policy {
		q, _ := p.Duration("q")
		return AQLNoCustomPolicy(q)
	}},

	{PolicyDesc{
		Name:       "fixed",
		Help:       "every vCPU in one pool at a fixed quantum",
		Positional: "q",
		Params: []scenario.ParamDesc{{
			Name: "q", Kind: scenario.ParamDuration,
			Help: "the quantum", Required: true,
		}},
	}, func(p Params) Policy {
		q, _ := p.Duration("q")
		return FixedPolicy(q)
	}},

	{PolicyDesc{
		Name: "vturbo",
		Help: "dedicated turbo cores at a small quantum for IO vCPUs (related system, Fig. 8)",
	}, func(Params) Policy {
		return policy(func() scenario.Policy { return baselines.VTurbo{} })
	}},

	{PolicyDesc{
		Name: "vslicer",
		Help: "shorter slices for IO vCPUs on shared pools (related system, Fig. 8)",
	}, func(Params) Policy {
		return policy(func() scenario.Policy { return baselines.VSlicer{} })
	}},

	{PolicyDesc{
		Name: "microsliced",
		Help: "1 ms quantum for every vCPU (related system, Fig. 8)",
	}, func(Params) Policy {
		return policy(func() scenario.Policy { return baselines.Microsliced() })
	}},

	{PolicyDesc{
		Name:       "hetero-aql",
		Help:       "class-aware AQL: latency vCPUs pool onto the fastest core class; plain AQL on homogeneous machines",
		Positional: "fast_q",
		Params: []scenario.ParamDesc{{
			Name: "fast_q", Kind: scenario.ParamDuration,
			Help: "quantum of the fast-class pool", Default: "1ms",
		}},
	}, func(p Params) Policy {
		q, _ := p.Duration("fast_q")
		return policy(func() scenario.Policy { return &baselines.HeteroAQL{FastQ: q} })
	}},

	{PolicyDesc{
		Name:       "edf",
		Help:       "deadline-aware quantum policy; reports deadline_miss_ratio over per-dispatch scheduling delays",
		Positional: "deadline",
		Params: []scenario.ParamDesc{{
			Name: "deadline", Kind: scenario.ParamDuration,
			Help: "per-dispatch scheduling-delay bound", Required: true,
		}},
	}, func(p Params) Policy {
		d, _ := p.Duration("deadline")
		return policy(func() scenario.Policy { return &baselines.EDF{Deadline: d} })
	}},
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

// ParseQuantum parses a policy duration ("10ms", "90us"). Simulated
// time counts whole microseconds, so a duration that is not a positive
// whole number of them is refused rather than truncated. The error says
// only what is wrong with s; the caller names the parameter.
func ParseQuantum(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	switch {
	case err != nil:
		return 0, err
	case d%time.Microsecond != 0:
		return 0, errors.New("want a whole number of microseconds")
	case d <= 0:
		return 0, errors.New("must be positive")
	}
	return sim.Time(d / time.Microsecond), nil
}
