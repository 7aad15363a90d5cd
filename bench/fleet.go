package main

import (
	"fmt"
	"path/filepath"
	"time"

	"aqlsched/internal/fleet"
	"aqlsched/internal/metrics"
	"aqlsched/internal/sweep"
)

// fleetSpecs are the multi-host example specs: a 100-host datacenter
// under two placements, and a 20-host fleet under crash and degradation
// storms with migration failures.
var fleetSpecs = []string{"fleet", "faultfleet"}

// fleetCase is one fleet.Run the workload makes per repetition, exactly
// as sweep.Exec would configure it.
type fleetCase struct {
	name string
	make func() fleet.Spec
	pol  sweep.Policy
}

// fleetOutcome is what a run must reproduce in every repetition.
type fleetOutcome struct {
	metrics metrics.Set
	apps    []metrics.Set
}

type fleetCounts struct {
	events, placements, migrations, aborted, ctx, preempt, poolMig, vmSeconds float64
}

type fleetWorkload struct {
	e       *env
	cases   []fleetCase
	want    []fleetOutcome
	counts  fleetCounts
	speedup bool // the traced run measured fleet.speedup_w2 already
}

func newFleet(e *env) workload { return &fleetWorkload{e: e} }

// setup parses the fleet specs at the workload seed and generates every
// run's VM population once, which validates it.
func (w *fleetWorkload) setup() error {
	w.cases = w.cases[:0]
	for _, file := range fleetSpecs {
		sp, err := sweep.Load(filepath.Join(w.e.root, "examples", "specs", file+".json"))
		if err != nil {
			return err
		}
		sp.BaseSeed = w.e.seed
		if sp.BaseSeed == 0 {
			sp.BaseSeed = sweep.DefaultSeed
		}
		for _, run := range sp.Runs() {
			sc, pol, seed := sp.Scenarios[run.ScenarioIdx], sp.Policies[run.PolicyIdx], run.Seed
			warm, meas, gen := sp.Warmup, sp.Measure, sp.BaseSeed
			tiny := w.e.tiny
			c := fleetCase{
				name: fmt.Sprintf("%s/%s#%d", sc.Name, pol.Name, run.SeedIdx),
				pol:  pol,
				make: func() fleet.Spec {
					fs := sc.NewFleet()
					fs.Seed = seed
					if fs.GenSeed == 0 {
						fs.GenSeed = gen
					}
					if warm > 0 {
						fs.Warmup = warm
					}
					if meas > 0 {
						fs.Measure = meas
					}
					if tiny {
						fs.Hosts = max(2, fs.Hosts/25)
						fs.VCPUs = max(8, fs.VCPUs/25)
					}
					return *fs
				},
			}
			fs := c.make()
			if err := fs.Validate(); err != nil {
				return err
			}
			if _, err := fs.GenVMs(); err != nil {
				return err
			}
			w.cases = append(w.cases, c)
		}
	}
	return nil
}

// runAll makes every fleet run once with the given shard-worker count.
func (w *fleetWorkload) runAll(rc *repCtx, workers int) ([]fleetOutcome, fleetCounts, []string) {
	var out []fleetOutcome
	var counts fleetCounts
	var errs []string
	for _, c := range w.cases {
		t0 := time.Now()
		res, err := runFleet(c.make(), c.pol, workers)
		t1 := time.Now()
		if rc != nil {
			rc.spans.add(rc.span, "fleet", "fleet.Run "+c.name, "", t0, t1)
			rc.op(t1.Sub(t0), t1.Sub(t0))
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("fleet-dc: %s: %v", c.name, err))
			out = append(out, fleetOutcome{})
			continue
		}
		if err := res.Fleet.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Sprintf("fleet-dc: %s: invariants: %v", c.name, err))
		}
		o := fleetOutcome{metrics: res.Metrics}
		for _, a := range res.Apps {
			o.apps = append(o.apps, a.Metrics)
		}
		out = append(out, o)
		for _, h := range res.Fleet.Hosts {
			counts.events += float64(h.Hyp.Engine.Fired())
			counts.ctx += float64(h.Hyp.CtxSwitches)
			counts.preempt += float64(h.Hyp.Preemptions)
			counts.poolMig += float64(h.Hyp.PoolMigrations)
		}
		counts.placements += float64(res.Fleet.Placements())
		counts.migrations += float64(res.Fleet.Migrations())
		counts.aborted += float64(res.Fleet.Aborted())
		v, _ := res.Metrics.Get(fleet.MVMSeconds.Name)
		counts.vmSeconds += v
	}
	return out, counts, errs
}

// runFleet converts a panic (fleet.Run's error path) into an error.
func runFleet(fs fleet.Spec, pol sweep.Policy, workers int) (res *fleet.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fleet.Run(fs, fleet.Options{NewPolicy: pol.New, Workers: workers}), nil
}

func (w *fleetWorkload) rep(rc *repCtx) {
	rc.begin()
	out, counts, errs := w.runAll(rc, 2)
	rc.finish()
	for _, e := range errs {
		rc.fail("%s", e)
	}
	if rc.warm {
		w.want, w.counts = out, counts
		return
	}
	for i := range out {
		if i < len(w.want) {
			rc.check(sameOutcome(out[i], w.want[i]), "fleet-dc: %s metrics differ from the warm-up's", w.cases[i].name)
		}
	}
	rc.check(counts == w.counts, "fleet-dc: simulated counts %+v differ from the warm-up's %+v", counts, w.counts)

	runS := make([]float64, len(rc.ops))
	for i, d := range rc.ops {
		runS[i] = d.Seconds()
	}
	rc.set("fleet.vmsec_per_s", "1/s", counts.vmSeconds/rc.wall.Seconds())
	rc.set("fleet.run_s_p50", "s", median(runS))
	rc.set("fleet.ns_per_event", "ns", float64(rc.cpu.Nanoseconds())/counts.events)
	rc.set("sim.events", "count", counts.events)
	rc.set("sim.events_per_s", "1/s", counts.events/rc.wall.Seconds())
	rc.set("fleet.placements", "count", counts.placements)
	rc.set("fleet.migrations", "count", counts.migrations)
	rc.set("fleet.aborted", "count", counts.aborted)
	rc.set("xen.ctx_switches", "count", counts.ctx)
	rc.set("xen.preemptions", "count", counts.preempt)
	rc.set("xen.pool_migrations", "count", counts.poolMig)

	if rc.spans != nil && !w.speedup {
		// Once per traced run, untimed: the same runs serially and on two
		// shard workers, both unprofiled.
		w.speedup = true
		t := time.Now()
		w.runAll(nil, 1)
		serial := time.Since(t)
		t = time.Now()
		w.runAll(nil, 2)
		rc.set("fleet.speedup_w2", "ratio", serial.Seconds()/time.Since(t).Seconds())
	}
}

func sameOutcome(a, b fleetOutcome) bool {
	if !a.metrics.Equal(b.metrics) || len(a.apps) != len(b.apps) {
		return false
	}
	for i := range a.apps {
		if !a.apps[i].Equal(b.apps[i]) {
			return false
		}
	}
	return true
}
