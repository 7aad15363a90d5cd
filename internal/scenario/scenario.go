// Package scenario builds and runs the paper's experimental setups: a
// machine, a set of colocated application VMs, a scheduling policy, and
// a warm-up + measurement window. It also defines the paper's concrete
// scenarios (Table 4's S1-S5 and the four-socket case of Fig. 3).
package scenario

import (
	"fmt"

	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// Policy configures the scheduler under test after deployment. The
// baselines package provides implementations. A policy's typed knobs
// are declared as ParamDesc values (params.go) in its entry of the
// catalog's policy table (internal/catalog's policyPlugins).
type Policy interface {
	Name() string
	Setup(h *xen.Hypervisor, deps []*workload.Deployment)
}

// RunMetricsReporter is implemented by policies that produce their own
// run-scoped measurements (EDF's deadline accounting). Run invokes it
// once after the simulation; fleet runs invoke it once per host, in
// host order, against one shared set — implementations must therefore
// accumulate with any values already present rather than overwrite.
type RunMetricsReporter interface {
	ReportRunMetrics(set *metrics.Set)
}

// Entry is one application and how many VMs of it to deploy.
type Entry struct {
	Spec  workload.AppSpec
	Count int
}

// Spec describes a full experiment.
type Spec struct {
	Name       string
	Topo       *hw.Topology
	GuestPCPUs []hw.PCPUID
	Apps       []Entry
	Warmup     sim.Time
	Measure    sim.Time
	Seed       uint64
	// StartJitter staggers VM start times (default 120 ms — one full
	// 4-vCPU rotation at the default quantum). Set negative to disable.
	StartJitter sim.Time
	// Arrivals schedules VM churn: applications deploying (and, with a
	// Lifetime, departing) while the run is underway. See Arrival.
	Arrivals []Arrival
}

// AppMeasure is the measured performance of one application (aggregated
// over its VM instances) or of one VM: a typed, self-describing metric
// Set recorded against the package's registered Descs (see measure.go).
// IO applications carry latency_mean plus the latency percentiles,
// batch applications time_per_job; apps with ≥ 2 instances add
// fairness_jain. A metric the probes could not measure (a batch app
// that completed no jobs) is absent from the Set, never zero.
type AppMeasure struct {
	Name     string
	Expected vcputype.Type
	// Instances is how many VMs were aggregated.
	Instances int
	// Metrics is the app's measurement set (registry-described).
	Metrics metrics.Set
}

// Perf reports the app's primary lower-is-better performance value:
// mean latency in µs for IO apps, time-per-job for batch. ok is false
// when the measurement failed (no requests served, no jobs completed).
func (a AppMeasure) Perf() (v float64, ok bool) {
	_, v, ok = a.Metrics.Primary()
	return v, ok
}

// Result is one experiment run.
type Result struct {
	Spec   Spec
	Policy string
	Apps   []AppMeasure
	// PerVM holds one measurement per deployment (Name = domain name),
	// for experiments that report per-VM or per-cluster results.
	PerVM []AppMeasure
	// Metrics is the run-scoped measurement set: hypervisor counters
	// (ctx_switches, preemptions, pool_migrations) and, for dynamic runs
	// under a recognizing policy, the adaptation diagnostics — all
	// recorded through the same registry the per-app metrics use.
	Metrics metrics.Set
	// Hypervisor diagnostics (also present in Metrics).
	CtxSwitches uint64
	Preemptions uint64
	// PoolMigrations counts vCPU pool moves over the whole run.
	PoolMigrations uint64
	// Adapt keeps the full adaptation drill-down of a dynamic run under
	// a recognizing policy (nil otherwise): the per-VM recognized-vs-
	// truth time series behind the adapt_* metrics.
	Adapt *Adaptation
	// Hyp and Deps stay accessible for experiment-specific inspection.
	Hyp  *xen.Hypervisor
	Deps []*workload.Deployment
}

// VM finds a per-VM measurement by domain name.
func (r *Result) VM(name string) AppMeasure {
	for _, a := range r.PerVM {
		if a.Name == name {
			return a
		}
	}
	panic(fmt.Sprintf("scenario: no per-VM measurement for %q in %s", name, r.Spec.Name))
}

// App finds a measurement by application name.
func (r *Result) App(name string) AppMeasure {
	for _, a := range r.Apps {
		if a.Name == name {
			return a
		}
	}
	panic(fmt.Sprintf("scenario: no measurement for %q in %s", name, r.Spec.Name))
}

// Run executes the scenario under the policy and returns measurements.
func Run(spec Spec, pol Policy) *Result {
	if spec.Topo == nil {
		spec.Topo = hw.I73770()
	}
	if spec.Warmup == 0 {
		spec.Warmup = 1 * sim.Second
	}
	if spec.Measure == 0 {
		spec.Measure = 4 * sim.Second
	}
	switch {
	case spec.StartJitter == 0:
		spec.StartJitter = 120 * sim.Millisecond
	case spec.StartJitter < 0:
		spec.StartJitter = 0
	}
	var opts []xen.Option
	if spec.GuestPCPUs != nil {
		opts = append(opts, xen.WithGuestPCPUs(spec.GuestPCPUs))
	}
	h := xen.New(spec.Topo, credit.New(), spec.Seed, opts...)
	rng := sim.NewRNG(spec.Seed + 0x9e37)

	var deps []*workload.Deployment
	for _, e := range spec.Apps {
		n := e.Count
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			inst := ""
			if n > 1 {
				inst = fmt.Sprintf("%d", i+1)
			}
			s := e.Spec
			if s.StartJitter == 0 {
				s.StartJitter = spec.StartJitter
			}
			deps = append(deps, workload.Deploy(h, s, inst, rng))
		}
	}

	// VM churn: arrivals deploy (and, with a lifetime, depart) while
	// the run is underway. Everything is scheduled up front so the
	// whole lifecycle is a pure function of the spec and seed.
	gone := map[*workload.Deployment]metrics.JobSnapshot{}
	for i, a := range spec.Arrivals {
		a := a
		inst := fmt.Sprintf("a%d", i+1)
		at := a.At
		if at <= 0 {
			at = 1 // time-0 VMs belong in Apps; clamp instead of racing Setup
		}
		h.Engine.At(at, func(now sim.Time) {
			d := workload.Deploy(h, a.Spec, inst, rng)
			deps = append(deps, d)
			if a.Lifetime > 0 {
				h.Engine.At(now+a.Lifetime, func(end sim.Time) {
					d.Stop()
					gone[d] = d.Snapshot(end)
					h.DestroyDomain(d.Dom, end)
				})
			}
		})
	}

	pol.Setup(h, deps)

	// Adaptation diagnostics: dynamic scenario + a policy that exposes
	// a vTRS (the AQL controller). Static runs take none of this path.
	var tracker *adaptTracker
	if spec.Dynamic() {
		if cp, ok := pol.(ControllerProvider); ok {
			if ctl := cp.AQLController(); ctl != nil {
				tracker = newAdaptTracker(ctl, h, &deps, gone)
				tracker.install()
			}
		}
	}

	h.Run(spec.Warmup)
	snaps := map[*workload.Deployment]metrics.JobSnapshot{}
	for _, d := range deps {
		if _, departed := gone[d]; departed {
			continue
		}
		d.ResetLatencies()
		snaps[d] = d.Snapshot(h.Engine.Now())
	}
	if tracker != nil {
		tracker.markMeasureStart()
	}
	h.Run(spec.Warmup + spec.Measure)

	// Aggregate per application name, and record per-VM measures. Each
	// app's probe accumulates raw measurements over its instances in
	// deployment order, then finish() folds them into the typed Set.
	type appState struct {
		m     AppMeasure
		probe appProbe
	}
	states := map[string]*appState{}
	var order []string
	res := &Result{
		Spec:           spec,
		Policy:         pol.Name(),
		CtxSwitches:    h.CtxSwitches,
		Preemptions:    h.Preemptions,
		PoolMigrations: h.PoolMigrations,
		Hyp:            h,
		Deps:           deps,
	}
	res.Metrics.Put(MCtxSwitches, float64(h.CtxSwitches))
	res.Metrics.Put(MPreemptions, float64(h.Preemptions))
	res.Metrics.Put(MPoolMigrations, float64(h.PoolMigrations))
	if r, ok := pol.(RunMetricsReporter); ok {
		r.ReportRunMetrics(&res.Metrics)
	}
	if tracker != nil {
		res.Adapt = tracker.finalize()
		res.Adapt.record(&res.Metrics)
	}
	for _, d := range deps {
		name := d.Spec.Name
		st, ok := states[name]
		if !ok {
			st = &appState{
				m:     AppMeasure{Name: name, Expected: d.Spec.Expected},
				probe: appProbe{isLatency: d.IsLatencyApp()},
			}
			states[name] = st
			order = append(order, name)
		}
		st.m.Instances++
		vm := AppMeasure{
			Name:      d.Dom.Name,
			Expected:  d.Spec.Expected,
			Instances: 1,
		}
		if st.probe.isLatency {
			for _, s := range d.Servers {
				if s.Lat.Count() > 0 {
					st.probe.latSum += s.Lat.Mean() * sim.Time(s.Lat.Count())
					st.probe.latN += s.Lat.Count()
					st.probe.hist.Merge(s.Lat)
				}
			}
			// A VM that served no requests has no latency information:
			// its measurement is absent, and it contributes nothing to
			// the fairness index.
			if lat := d.MeanLatency(); lat > 0 {
				vm.Metrics.Put(MLatencyMean, float64(lat))
				st.probe.perVM = append(st.probe.perVM, float64(lat))
			}
		} else {
			// Throughput windows: [measure start, run end] for VMs that
			// lived through the window; churn VMs count from arrival
			// and/or to departure.
			start, ok := snaps[d]
			if !ok {
				start = metrics.JobSnapshot{At: d.DeployedAt}
			}
			end := d.Snapshot(h.Engine.Now())
			if snap, departed := gone[d]; departed {
				end = snap
			}
			rate := metrics.Rate(start, end)
			st.probe.rate += rate
			if rate > 0 {
				vm.Metrics.Put(MTimePerJob, 1/rate)
			}
			// A zero rate is a meaningful measurement for fairness — a
			// starved VM is the unfairness the index should expose — so
			// it joins the sample set even though the VM's own
			// time_per_job is a failed (absent) measurement.
			st.probe.perVM = append(st.probe.perVM, rate)
		}
		res.PerVM = append(res.PerVM, vm)
	}
	for _, name := range order {
		st := states[name]
		st.probe.finish(&st.m.Metrics)
		res.Apps = append(res.Apps, st.m)
	}
	return res
}

// Normalize computes the paper's normalized performance per app:
// measured primary metric over baseline, lower is better. Apps whose
// measurement failed on either side are absent from the map.
func Normalize(measured, baseline *Result) map[string]float64 {
	out := make(map[string]float64, len(measured.Apps))
	for _, a := range measured.Apps {
		d, v, ok := a.Metrics.Primary()
		if !ok {
			continue
		}
		bv, ok := baseline.App(a.Name).Metrics.Get(d.Name)
		if !ok {
			continue
		}
		if n, ok := d.Normalized(v, bv); ok {
			out[a.Name] = n
		}
	}
	return out
}
