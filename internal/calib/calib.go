// Package calib is the offline quantum-length calibration of
// Section 3.4: for each application type it measures performance under
// quantum lengths {1, 10, 30, 60, 90} ms with 2 and 4 vCPUs sharing a
// pCPU, normalizes over the Xen default (30 ms), and derives the best
// quantum per type — or flags the type as quantum-agnostic when the
// spread is insignificant.
//
// The paper automated this with a deployment framework (Roboconf) and a
// self-benchmarking tool (CLIF); here the same loop runs in-process on
// the simulator.
package calib

import (
	"fmt"
	"slices"
	"sort"

	"aqlsched/internal/baselines"
	"aqlsched/internal/cluster"
	"aqlsched/internal/hw"
	"aqlsched/internal/par"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
)

// Quanta is the paper's quantum-length discretization.
func Quanta() []sim.Time {
	return []sim.Time{
		1 * sim.Millisecond,
		10 * sim.Millisecond,
		30 * sim.Millisecond,
		60 * sim.Millisecond,
		90 * sim.Millisecond,
	}
}

// BaselineQuantum is the normalization point (Xen default).
const BaselineQuantum = 30 * sim.Millisecond

// AgnosticSpread: when the best and worst normalized performance across
// quanta differ by less than this fraction, the type is declared
// quantum-agnostic. Consolidated gang schedules are noisy (alignment
// luck), so the band is generous; genuinely sensitive types (hetero
// IOInt, LLCF) show spreads several times larger.
const AgnosticSpread = 0.25

// Case identifies one calibration subject (a sub-figure of Fig. 2).
type Case struct {
	// Label as in Fig. 2, e.g. "Excl. IOInt".
	Label string
	// Type whose best quantum this case calibrates.
	Type vcputype.Type
	// Spec under calibration.
	Spec workload.AppSpec
	// UseForTable marks the case whose result enters the quantum table
	// (e.g. the heterogeneous IOInt case, not the exclusive one).
	UseForTable bool
}

// Cases returns the calibration subjects of Fig. 2 (a)-(f).
func Cases(topo *hw.Topology) []Case {
	return []Case{
		{Label: "Excl. IOInt", Type: vcputype.IOInt, Spec: workload.MicroWeb(false)},
		{Label: "Hetero. IOInt", Type: vcputype.IOInt, Spec: workload.MicroWeb(true), UseForTable: true},
		{Label: "ConSpin", Type: vcputype.ConSpin, Spec: workload.MicroKernbench(4), UseForTable: true},
		{Label: "LLCF", Type: vcputype.LLCF, Spec: workload.MicroListWalk(topo, vcputype.LLCF), UseForTable: true},
		{Label: "LoLCF", Type: vcputype.LoLCF, Spec: workload.MicroListWalk(topo, vcputype.LoLCF), UseForTable: true},
		{Label: "LLCO", Type: vcputype.LLCO, Spec: workload.MicroListWalk(topo, vcputype.LLCO), UseForTable: true},
	}
}

// Point is one measurement of a calibration curve.
type Point struct {
	Quantum sim.Time
	PerPCPU int // vCPUs sharing each pCPU
	// Norm is performance normalized over the 30 ms baseline (lower is
	// better, as in Fig. 2).
	Norm float64
	// Raw is the un-normalized metric (µs latency or time-per-job).
	Raw float64
}

// Curve is the calibration result of one case.
type Curve struct {
	Case   Case
	Points []Point
}

// At returns the point for (q, k).
func (c *Curve) At(q sim.Time, k int) (Point, bool) {
	for _, p := range c.Points {
		if p.Quantum == q && p.PerPCPU == k {
			return p, true
		}
	}
	return Point{}, false
}

// LockPoint is one lock-duration measurement (Fig. 2 rightmost).
type LockPoint struct {
	Quantum  sim.Time
	MeanHold sim.Time
	// MaxHold is the worst hold observed: the direct footprint of
	// lock-holder preemption, which stretches a hold by up to
	// (k-1) quanta.
	MaxHold sim.Time
}

// Report is the full calibration outcome.
type Report struct {
	Curves []Curve
	// LockDurations is the Fig. 2 rightmost series.
	LockDurations []LockPoint
	// Table is the derived per-type best-quantum table.
	Table cluster.QuantumTable
	// AgnosticTypes lists types whose spread was below the threshold.
	AgnosticTypes []vcputype.Type
}

// Options configure a calibration run.
type Options struct {
	Topo *hw.Topology
	// PerPCPU lists the consolidation ratios to sweep (default {2,4}).
	PerPCPU []int
	// Warmup and Measure default to 1s and 3s.
	Warmup, Measure sim.Time
	Seed            uint64
	// Repeats averages each point over several seeds (default 3):
	// consolidated schedules are bistable (aligned vs. convoyed gangs)
	// and single runs sample alignment luck, exactly like single runs
	// on real hardware.
	Repeats int
}

func (o *Options) fill() {
	if o.Topo == nil {
		o.Topo = hw.I73770()
	}
	if len(o.PerPCPU) == 0 {
		o.PerPCPU = []int{2, 4}
	}
	if o.Warmup == 0 {
		o.Warmup = 1 * sim.Second
	}
	if o.Measure == 0 {
		o.Measure = 3 * sim.Second
	}
	if o.Seed == 0 {
		o.Seed = 0xCA11B
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
}

// Colo builds the paper's standard measurement environment for one
// application (Sections 3.4.1 and 4.1) on o.Topo, with o's windows and
// seed: the subject VM colocated with disturber VMs so that k vCPUs
// share each pCPU. The subject gets one pCPU per vCPU, and each pCPU
// k-1 disturbers, alternating trashing and low-footprint workloads
// ("various workload types", Section 3.4.1) with job sizes varied per
// instance so rotation periods decorrelate. Calibration and the
// colocation experiments both measure here.
func Colo(subject workload.AppSpec, k int, o Options) scenario.Spec {
	pcpus := scenario.VCPUsOf(subject)
	ids := make([]hw.PCPUID, pcpus)
	for i := range ids {
		ids[i] = hw.PCPUID(i)
	}
	apps := []scenario.Entry{{Spec: subject, Count: 1}}
	for i := 0; i < (k-1)*pcpus; i++ {
		d := workload.MicroListWalk(o.Topo, vcputype.LLCO)
		if i%2 == 1 {
			d = workload.MicroListWalk(o.Topo, vcputype.LoLCF)
		}
		d.Steady = false // disturbers keep housekeeping pauses: schedule drift
		d.JobWork += sim.Time(i%5) * 1700 * sim.Microsecond
		apps = append(apps, scenario.Entry{Spec: d, Count: 1})
	}
	return scenario.Spec{
		Name:       fmt.Sprintf("colo-%s-k%d", subject.Name, k),
		Topo:       o.Topo,
		GuestPCPUs: ids,
		Apps:       apps,
		Warmup:     o.Warmup,
		Measure:    o.Measure,
		Seed:       o.Seed,
	}
}

// measure runs repeat r of one case at quantum q and ratio k and
// returns the subject application's raw metric.
func measure(c Case, q sim.Time, k, r int, o Options) float64 {
	spec := Colo(c.Spec, k, o)
	spec.Seed = o.Seed + uint64(r)*7919
	res := scenario.Run(spec, baselines.FixedQuantum{Q: q})
	// A failed measurement (no jobs at all) contributes 0, exactly
	// like the pre-registry scalar metric did.
	v, _ := res.Apps[0].Perf()
	return v
}

// lockQuanta are the lock-duration sweep's quanta (Fig. 2 rightmost).
var lockQuanta = []sim.Time{20 * sim.Millisecond, 40 * sim.Millisecond, 60 * sim.Millisecond, 80 * sim.Millisecond}

// Run executes the full calibration sweep. Every (case, quantum,
// ratio, repeat) colocation run and every lock-duration repeat is
// independent, so together they form one index space on the par pool
// at GOMAXPROCS. Each run writes its own slot, and the slots fold in
// the serial order (repeats summed in seed order, then averaged), so
// the report is bit-identical at any worker count.
func Run(o Options) *Report {
	o.fill()
	cases, quanta := Cases(o.Topo), Quanta()
	nq, nk, nr := len(quanta), len(o.PerPCPU), o.Repeats
	// Curve run (case c, quantum qi, ratio ki, repeat r) is index
	// ((c*nq+qi)*nk+ki)*nr+r; the lock runs (quantum li, repeat r)
	// follow at curveRuns+li*nr+r.
	curveRuns := len(cases) * nq * nk * nr
	perf := make([]float64, curveRuns)
	locks := make([]lockHolds, len(lockQuanta)*nr)
	par.Do(curveRuns+len(locks), 0, func(i int) {
		if i >= curveRuns {
			i -= curveRuns
			locks[i] = lockRun(lockQuanta[i/nr], i%nr, o)
			return
		}
		r, ki, qi, c := i%nr, i/nr%nk, i/(nr*nk)%nq, i/(nr*nk*nq)
		perf[i] = measure(cases[c], quanta[qi], o.PerPCPU[ki], r, o)
	})
	mean := func(c, qi, ki int) float64 {
		first := ((c*nq+qi)*nk + ki) * nr
		sum := 0.0
		for _, v := range perf[first : first+nr] {
			sum += v
		}
		return sum / float64(nr)
	}

	rep := &Report{}
	bests := map[vcputype.Type]sim.Time{}
	agnostic := map[vcputype.Type]bool{}
	baseQi := slices.Index(quanta, BaselineQuantum)
	for ci, c := range cases {
		curve := Curve{Case: c}
		for qi, q := range quanta {
			for ki, k := range o.PerPCPU {
				raw, base := mean(ci, qi, ki), mean(ci, baseQi, ki)
				norm := 0.0
				if base > 0 {
					norm = raw / base
				}
				curve.Points = append(curve.Points, Point{Quantum: q, PerPCPU: k, Norm: norm, Raw: raw})
			}
		}
		rep.Curves = append(rep.Curves, curve)
		if !c.UseForTable {
			continue
		}
		// Decide best-vs-agnostic at the highest consolidation ratio.
		k := o.PerPCPU[len(o.PerPCPU)-1]
		bestQ, bestN, worstN := BaselineQuantum, 1.0, 1.0
		for _, q := range quanta {
			p, ok := curve.At(q, k)
			if !ok {
				continue
			}
			if p.Norm < bestN {
				bestN, bestQ = p.Norm, q
			}
			if p.Norm > worstN {
				worstN = p.Norm
			}
		}
		if worstN-bestN < AgnosticSpread {
			agnostic[c.Type] = true
			continue
		}
		// At most one case per type has UseForTable, so this never
		// overwrites another case's result.
		bests[c.Type] = bestQ
	}

	rep.Table = cluster.QuantumTable{Best: bests, Default: BaselineQuantum}
	for t, ok := range agnostic {
		if ok && bests[t] == 0 {
			rep.AgnosticTypes = append(rep.AgnosticTypes, t)
		}
	}
	sort.Slice(rep.AgnosticTypes, func(a, b int) bool {
		return rep.AgnosticTypes[a] < rep.AgnosticTypes[b]
	})

	// Lock-duration sweep (Fig. 2 rightmost): kernbench, 4 vCPUs per
	// pCPU, the mean and worst spin-lock hold aggregated over o.Repeats
	// seeds.
	for li, q := range lockQuanta {
		var all lockHolds
		for _, h := range locks[li*nr : (li+1)*nr] {
			all.sum += h.sum
			all.n += h.n
			all.max = max(all.max, h.max)
		}
		lp := LockPoint{Quantum: q, MaxHold: all.max}
		if all.n > 0 {
			lp.MeanHold = all.sum / sim.Time(all.n)
		}
		rep.LockDurations = append(rep.LockDurations, lp)
	}
	return rep
}

// lockHolds accumulates per-lock hold statistics: the sum and count of
// mean holds and the worst hold.
type lockHolds struct {
	sum, max sim.Time
	n        int
}

// lockRun runs repeat r of the ConSpin micro-benchmark consolidated at
// 4 vCPUs per pCPU at quantum q and collects its lock hold statistics.
func lockRun(q sim.Time, r int, o Options) (h lockHolds) {
	// Longer critical sections than the throughput micro-benchmark so
	// that slice boundaries land inside holds often enough for the
	// worst-hold statistic to stabilise within the measurement window.
	app := workload.MicroKernbench(4)
	app.Hold = 200 * sim.Microsecond
	app.Gap = 600 * sim.Microsecond
	spec := Colo(app, 4, o)
	spec.Seed = o.Seed + uint64(r)*7919
	res := scenario.Run(spec, baselines.FixedQuantum{Q: q})
	for _, d := range res.Deps {
		if len(d.Locks) > 0 {
			_, m, mx := d.Locks[0].HoldStats()
			h.sum += m
			h.n++
			h.max = max(h.max, mx)
		}
	}
	return h
}
