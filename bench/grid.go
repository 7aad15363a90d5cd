package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aqlsched/internal/scenario"
	"aqlsched/internal/sweep"
)

// gridSpecs are the example specs the sweep-grid workload runs: a
// generated mix on a 2x8-core machine, big.LITTLE speed scaling, and VM
// churn with phase changes.
var gridSpecs = []string{"genmix", "hetero", "dynmix"}

// gridCounts are the simulated statistics a speed-only change must
// leave identical.
type gridCounts struct {
	events, ctx, preempt, poolMig float64
}

type gridWorkload struct {
	e      *env
	specs  []*sweep.Spec
	want   [][]byte // warm-up artifacts, one per spec
	counts gridCounts
}

func newGrid(e *env) workload { return &gridWorkload{e: e} }

func (w *gridWorkload) seeds() int {
	if w.e.tiny {
		return 1
	}
	return 48
}

// setup parses and expands the three spec files at the workload seed.
func (w *gridWorkload) setup() error {
	w.specs = w.specs[:0]
	for _, name := range gridSpecs {
		sp, err := sweep.Load(filepath.Join(w.e.root, "examples", "specs", name+".json"))
		if err != nil {
			return err
		}
		sp.Seeds = w.seeds()
		sp.BaseSeed = w.e.seed
		if err := sp.Validate(); err != nil {
			return err
		}
		sp.Runs()
		w.specs = append(w.specs, sp)
	}
	return nil
}

func (w *gridWorkload) rep(rc *repCtx) {
	var (
		artifacts [][]byte
		counts    gridCounts
		elapsed   time.Duration
		aggregate time.Duration
		runs      int
	)
	rc.begin()
	for _, sp := range w.specs {
		var lastRun time.Time
		id := rc.spans.begin(rc.span, "sweep", "sweep.Exec "+sp.Name, "")
		res, err := sweep.Exec(sp, sweep.Options{
			Workers: 2,
			KeepRaw: true,
			OnRun: func(rr *sweep.RunResult) {
				now := time.Now()
				lastRun = now
				rc.spans.add(id, "scenario", rr.Scenario+"/"+rr.Policy, "", now.Add(-rr.Elapsed), now)
				rc.op(rr.Elapsed, rr.Elapsed)
				elapsed += rr.Elapsed
				if rr.Err != nil {
					rc.fail("sweep-grid: %v", rr.Err)
					return
				}
				counts.add(rr.Raw)
				rr.Raw = nil
			},
		})
		done := time.Now()
		rc.spans.end(id)
		if err != nil {
			rc.fail("sweep-grid: %s: %v", sp.Name, err)
			continue
		}
		if !lastRun.IsZero() {
			aggregate += done.Sub(lastRun)
		}
		runs += len(res.Runs)
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			rc.fail("sweep-grid: %s: %v", sp.Name, err)
		}
		if err := res.WriteCSV(&buf); err != nil {
			rc.fail("sweep-grid: %s: %v", sp.Name, err)
		}
		artifacts = append(artifacts, buf.Bytes())
	}
	rc.finish()

	if rc.warm {
		w.want, w.counts = artifacts, counts
		w.goldenProbe(rc)
		return
	}
	rc.check(len(artifacts) == len(w.want), "sweep-grid: %d artifacts, want %d", len(artifacts), len(w.want))
	for i := range artifacts {
		if i < len(w.want) {
			rc.check(bytes.Equal(artifacts[i], w.want[i]), "sweep-grid: %s artifact differs from the warm-up's", w.specs[i].Name)
		}
	}
	rc.check(counts == w.counts, "sweep-grid: simulated counts %+v differ from the warm-up's %+v", counts, w.counts)

	rc.set("sweep.runs_per_s", "1/s", float64(runs)/rc.wall.Seconds())
	rc.set("sweep.pool_util", "share", elapsed.Seconds()/(rc.wall.Seconds()*2))
	rc.set("sweep.aggregate_ms", "ms", ms(aggregate))
	rc.set("sim.events", "count", counts.events)
	rc.set("sim.events_per_s", "1/s", counts.events/rc.wall.Seconds())
	rc.set("sim.ns_per_event", "ns", float64(rc.cpu.Nanoseconds())/counts.events)
	rc.set("xen.ctx_switches", "count", counts.ctx)
	rc.set("xen.preemptions", "count", counts.preempt)
	rc.set("xen.pool_migrations", "count", counts.poolMig)
}

func (c *gridCounts) add(raw *scenario.Result) {
	if raw == nil || raw.Hyp == nil {
		return
	}
	c.events += float64(raw.Hyp.Engine.Fired())
	c.ctx += float64(raw.CtxSwitches)
	c.preempt += float64(raw.Preemptions)
	c.poolMig += float64(raw.PoolMigrations)
}

// goldenProbe runs the built-in "bench" sweep, untimed, and compares
// its artifacts with the committed goldens byte for byte.
func (w *gridWorkload) goldenProbe(rc *repCtx) {
	sp, ok := sweep.Builtin("bench")
	if !rc.check(ok, "sweep-grid: built-in bench sweep missing") {
		return
	}
	res, err := sweep.Exec(sp, sweep.Options{Workers: 2})
	if !rc.check(err == nil, "sweep-grid: golden probe: %v", err) {
		return
	}
	var js, csv bytes.Buffer
	res.WriteJSON(&js)
	res.WriteCSV(&csv)
	for _, g := range []struct {
		file string
		got  []byte
	}{{"bench.golden.json", js.Bytes()}, {"bench.golden.csv", csv.Bytes()}} {
		want, err := os.ReadFile(filepath.Join(w.e.root, "internal", "sweep", "testdata", g.file))
		rc.check(err == nil && bytes.Equal(g.got, want), "sweep-grid: golden probe: %s", goldenDiff(g.file, err))
	}
}

func goldenDiff(file string, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", file, err)
	}
	return file + " differs from the committed golden"
}
