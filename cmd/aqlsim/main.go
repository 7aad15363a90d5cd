// Command aqlsim runs one catalog scenario under one catalog policy
// and prints per-application performance, the AQL cluster layout (when
// the policy recognizes types) and, for dynamic scenarios, the
// adaptation diagnostics.
//
// Scenario and policy names resolve through the internal/catalog
// registries — the same grammar sweep spec files use. `aqlsweep -list`
// prints every valid name and the full policy grammar:
//
//	aqlsim -scenario S1..S5|four-socket|dynphase -policy <policy>
//	       [-quantum 30ms] [-warmup 2s] [-measure 6s] [-seed N]
//
// `-policy fixed -quantum 5ms` is accepted as back-compat sugar for
// `-policy fixed:5ms`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"aqlsched/internal/catalog"
	"aqlsched/internal/metrics"
	"aqlsched/internal/report"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// fmtMetric renders one registry metric value with its unit; "us"
// durations use the simulator's adaptive time formatting.
func fmtMetric(name string, v float64) string {
	d, ok := metrics.DescByName(name)
	if !ok {
		return fmt.Sprintf("%.4g", v)
	}
	switch d.Unit {
	case "us":
		return sim.Time(v).String()
	case "s":
		return fmt.Sprintf("%.4g s", v)
	case "index", "frac":
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g %s", v, d.Unit)
	}
}

func main() {
	scen := flag.String("scenario", "S5", "catalog scenario name (aqlsweep -list prints them)")
	policy := flag.String("policy", "aql", "catalog policy name or parameterized form such as fixed:5ms (aqlsweep -list prints the grammar)")
	quantum := flag.Duration("quantum", 30*time.Millisecond, "back-compat: with -policy fixed, shorthand for fixed:<quantum>")
	warmup := flag.Duration("warmup", 2*time.Second, "warm-up window (simulated)")
	measure := flag.Duration("measure", 6*time.Second, "measurement window (simulated)")
	seed := flag.Uint64("seed", 0xA91, "simulation seed")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "aqlsim: "+format+"\n", args...)
		os.Exit(2)
	}

	newSpec, err := catalog.Scenarios.Lookup(*scen)
	if err != nil {
		fail("unknown scenario %q (known: %s)", *scen, strings.Join(catalog.Scenarios.Names(), ", "))
	}

	polName := *policy
	if polName == "fixed" {
		// Pre-catalog spelling: -policy fixed -quantum 5ms.
		polName = fmt.Sprintf("fixed:%s", *quantum)
	}
	p, err := catalog.PolicyByName(polName)
	if err != nil {
		fail("%v", err)
	}

	spec := newSpec()
	spec.Seed = *seed
	spec.Warmup = sim.Time(warmup.Microseconds())
	spec.Measure = sim.Time(measure.Microseconds())

	pol := p.New()
	start := time.Now()
	res := scenario.Run(spec, pol)

	t := &report.Table{
		Title:   fmt.Sprintf("%s under %s", spec.Name, res.Policy),
		Headers: []string{"application", "type", "metric", "value"},
	}
	for _, a := range res.Apps {
		if a.Metrics.Len() == 0 {
			t.AddRow(a.Name, a.Expected.String(), "-", "measurement failed")
			continue
		}
		for _, name := range a.Metrics.Names() {
			v, _ := a.Metrics.Get(name)
			t.AddRow(a.Name, a.Expected.String(), name, fmtMetric(name, v))
		}
	}
	t.AddNote("context switches: %d, preemptions: %d, pool migrations: %d, wall time: %v",
		res.CtxSwitches, res.Preemptions, res.PoolMigrations, time.Since(start).Round(time.Millisecond))
	t.Render(os.Stdout)

	if cp, ok := pol.(scenario.ControllerProvider); ok {
		if ctl := cp.AQLController(); ctl != nil && ctl.LastPlan != nil {
			ct := &report.Table{
				Title:   "AQL_Sched cluster layout",
				Headers: []string{"cluster", "quantum", "pCPUs", "members"},
			}
			for _, c := range ctl.LastPlan.Clusters {
				ct.AddRow(c.Name, c.Quantum.String(), len(c.PCPUs), c.MemberSummary())
			}
			ct.Render(os.Stdout)
		}
	}

	if a := res.Adapt; a != nil {
		at := &report.Table{
			Title:   fmt.Sprintf("Adaptation (vTRS window n=%d)", a.Window),
			Headers: []string{"VM", "flips", "recognized", "mean latency (periods)", "truth match"},
		}
		for _, vm := range a.PerVM {
			if !vm.Dynamic {
				continue
			}
			match := 0.0
			if vm.Total > 0 {
				match = float64(vm.Matched) / float64(vm.Total)
			}
			at.AddRow(vm.VM, vm.Flips, vm.RecognizedFlips,
				fmt.Sprintf("%.2f", vm.MeanLatency()), fmt.Sprintf("%.0f%%", 100*match))
		}
		at.AddNote("overall: latency %.2f periods over %d/%d recognized flips; reclusters %d, migrations %d in the measure window",
			a.MeanLatencyPeriods, a.RecognizedFlips, a.Flips, a.Reclusters, a.Migrations)
		at.Render(os.Stdout)
	}
}
