package scenario

import (
	"aqlsched/internal/cache"
	"aqlsched/internal/core"
	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// Arrival is one VM-lifecycle event: the application deploys at At and
// (when Lifetime is positive) is torn down at At+Lifetime through the
// hypervisor's DestroyDomain. Arrivals and departures may land inside
// warmup or the measurement window — that is the point: the online
// scheduler must re-recognize and re-cluster a moving population.
type Arrival struct {
	// At is the arrival time on the run clock (> 0; time 0 VMs belong
	// in Spec.Apps).
	At sim.Time
	// Spec is the application to deploy (one VM).
	Spec workload.AppSpec
	// Lifetime, when positive, schedules teardown at At+Lifetime.
	// Zero means the VM stays until the end of the run.
	Lifetime sim.Time
}

// Dynamic reports whether the scenario exercises the online scheduler:
// it has lifecycle events or at least one phased application.
func (s *Spec) Dynamic() bool {
	if len(s.Arrivals) > 0 {
		return true
	}
	for _, e := range s.Apps {
		if len(e.Spec.Phases) > 0 {
			return true
		}
	}
	return false
}

// ControllerProvider is implemented by policies that expose their AQL
// controller after Setup (baselines.AQL). The adaptation tracker uses
// it to read the vTRS's recognized types; policies without a
// recognizer produce no adaptation diagnostics.
type ControllerProvider interface {
	AQLController() *core.Controller
}

// VMAdaptation is the per-VM adaptation record.
type VMAdaptation struct {
	VM  string
	App string
	// Dynamic marks VMs whose ground truth can change (phased apps).
	Dynamic bool
	// Flips counts observed ground-truth changes; RecognizedFlips how
	// many of them the vTRS re-recognized before the next flip (or run
	// end); LatencySum accumulates, over recognized flips, the number
	// of monitoring periods from the flip to the first period whose
	// recognized type matched the new truth.
	Flips           int
	RecognizedFlips int
	LatencySum      int
	// Matched / Total count periods where recognized == truth.
	Matched, Total int
}

// MeanLatency reports the mean recognition latency in monitoring
// periods over recognized flips (0 when no flip was recognized).
func (a *VMAdaptation) MeanLatency() float64 {
	if a.RecognizedFlips == 0 {
		return 0
	}
	return float64(a.LatencySum) / float64(a.RecognizedFlips)
}

// Adaptation aggregates the run's adaptation diagnostics: how fast and
// at what churn cost the online scheduler tracked the moving workload.
type Adaptation struct {
	// Window is the vTRS sliding-window length n the run used.
	Window int
	PerVM  []VMAdaptation
	// Flips / RecognizedFlips / MeanLatencyPeriods summarize
	// recognition reactivity across all VMs.
	Flips              int
	RecognizedFlips    int
	MeanLatencyPeriods float64
	// MatchedFrac is the fraction of (VM, period) samples whose
	// recognized type equalled the ground truth.
	MatchedFrac float64
	// Reclusters / Migrations count applied cluster reconfigurations
	// and vCPU pool moves during the measurement window — the churn
	// side of the reactivity trade-off.
	Reclusters uint64
	Migrations uint64
}

// record publishes the run's adaptation diagnostics through the metric
// registry, making the tracker an ordinary registry client: the sweep
// aggregates and emits adapt_* like any other per-run metric. A run
// that recognized no flip records no adapt_latency_periods at all (a
// mean over zero flips is undefined, not zero) — aggregation skips the
// absent measurement.
func (a *Adaptation) record(set *metrics.Set) {
	set.Put(MVTRSWindow, float64(a.Window))
	if a.RecognizedFlips > 0 {
		set.Put(MAdaptLatency, a.MeanLatencyPeriods)
	}
	set.Put(MAdaptMatch, a.MatchedFrac)
	set.Put(MAdaptFlips, float64(a.Flips))
	set.Put(MAdaptReclusters, float64(a.Reclusters))
	set.Put(MAdaptMigrations, float64(a.Migrations))
}

// DynPhase is the hand-authored dynamic scenario of the adaptation
// experiment: 12 vCPUs on 4 single-socket pCPUs, 8 of them phased VMs
// whose ground-truth type flips every 1–1.5 s (compute↔compute and
// IO↔compute cycles, phase-offset so flips never align), plus 4
// static LoLCF VMs as ballast. The population exercises exactly the
// regime Section 3.3's window trade-off is about: the vTRS must keep
// re-recognizing moving vCPUs, and every re-recognition the clustering
// acts on costs migrations.
func DynPhase(seed uint64) Spec {
	topo := hw.I73770()
	lolcf := cache.Profile{WSS: topo.L2.Size * 9 / 10, RefRate: 0.2}
	llco := cache.Profile{WSS: topo.LLC.Size * 2, RefRate: 30, Streaming: true, StreamMissRatio: 0.9}
	llcf := cache.Profile{WSS: topo.LLC.Size / 2, RefRate: 25, MissFloor: 0.01, ReuseFactor: 5}
	ioProf := cache.Profile{WSS: 128 * hw.KB, RefRate: 0.2}

	phased := func(name string, offset sim.Time, phases ...workload.AppPhase) Entry {
		return Entry{Spec: workload.AppSpec{
			Name:        name,
			Expected:    phases[0].Type,
			Phases:      phases,
			PhaseOffset: offset,
		}, Count: 1}
	}
	burnFlip := func(name string, offset sim.Time) Entry {
		return phased(name, offset,
			workload.AppPhase{Dur: 1200 * sim.Millisecond, Type: vcputype.LoLCF, Prof: lolcf, JobWork: 8 * sim.Millisecond},
			workload.AppPhase{Dur: 1200 * sim.Millisecond, Type: vcputype.LLCO, Prof: llco, JobWork: 8 * sim.Millisecond},
		)
	}
	cacheFlip := func(name string, offset sim.Time) Entry {
		return phased(name, offset,
			workload.AppPhase{Dur: 1500 * sim.Millisecond, Type: vcputype.LLCF, Prof: llcf, JobWork: 4 * sim.Millisecond},
			workload.AppPhase{Dur: 1500 * sim.Millisecond, Type: vcputype.LoLCF, Prof: lolcf, JobWork: 8 * sim.Millisecond},
		)
	}
	ioFlip := func(name string, offset sim.Time) Entry {
		return phased(name, offset,
			workload.AppPhase{Dur: 1000 * sim.Millisecond, Type: vcputype.IOInt, Rate: 300, Service: 300 * sim.Microsecond, Prof: ioProf},
			workload.AppPhase{Dur: 1000 * sim.Millisecond, Type: vcputype.LoLCF, Prof: lolcf, JobWork: 8 * sim.Millisecond},
		)
	}
	return Spec{
		Name:       "dynphase",
		Topo:       topo,
		GuestPCPUs: SingleSocketPCPUs(),
		Apps: []Entry{
			burnFlip("flipA", 0),
			burnFlip("flipB", 300*sim.Millisecond),
			burnFlip("flipC", 600*sim.Millisecond),
			burnFlip("flipD", 900*sim.Millisecond),
			cacheFlip("cacheA", 0),
			cacheFlip("cacheB", 750*sim.Millisecond),
			ioFlip("ioA", 0),
			ioFlip("ioB", 500*sim.Millisecond),
			{Spec: workload.ByName("hmmer"), Count: 4},
		},
		Seed: seed,
	}
}

// vmTrack is the tracker's working state for one VM.
type vmTrack struct {
	rec       VMAdaptation
	d         *workload.Deployment
	prevTruth vcputype.Type
	havePrev  bool
	pending   bool // a flip awaits recognition
	flipAt    int  // period of the pending flip
}

// adaptTracker samples every monitoring period (hooked behind the AQL
// controller's own OnPeriod work) and folds the observations into an
// Adaptation.
type adaptTracker struct {
	ctl  *core.Controller
	h    *xen.Hypervisor
	deps *[]*workload.Deployment
	gone map[*workload.Deployment]metrics.JobSnapshot // departed VMs' final snapshots

	vms   []*vmTrack
	byDep map[*workload.Deployment]*vmTrack

	measuring  bool
	recStart   uint64
	migStart   uint64
	recluster  uint64
	migrations uint64
}

func newAdaptTracker(ctl *core.Controller, h *xen.Hypervisor, deps *[]*workload.Deployment, gone map[*workload.Deployment]metrics.JobSnapshot) *adaptTracker {
	return &adaptTracker{
		ctl:   ctl,
		h:     h,
		deps:  deps,
		gone:  gone,
		byDep: map[*workload.Deployment]*vmTrack{},
	}
}

// install chains the tracker behind the monitor's existing OnPeriod
// hook (the controller's recluster step), so samples see the types the
// controller just acted on.
func (tr *adaptTracker) install() {
	prev := tr.ctl.Monitor.OnPeriod
	tr.ctl.Monitor.OnPeriod = func(now sim.Time, period int) {
		if prev != nil {
			prev(now, period)
		}
		tr.sample(now, period)
	}
}

// markMeasureStart snapshots the churn counters so Reclusters and
// Migrations cover the measurement window only.
func (tr *adaptTracker) markMeasureStart() {
	tr.measuring = true
	tr.recStart = tr.ctl.Reclusters
	tr.migStart = tr.h.PoolMigrations
}

// sample records one monitoring period for every live VM.
func (tr *adaptTracker) sample(now sim.Time, period int) {
	for _, d := range *tr.deps {
		if _, departed := tr.gone[d]; departed {
			continue
		}
		vt, ok := tr.byDep[d]
		if !ok {
			vt = &vmTrack{
				d: d,
				rec: VMAdaptation{
					VM:      d.Dom.Name,
					App:     d.Spec.Name,
					Dynamic: len(d.Spec.Phases) > 0,
				},
			}
			tr.byDep[d] = vt
			tr.vms = append(tr.vms, vt)
		}
		truth := d.Spec.TypeAt(now - d.DeployedAt)
		recog := tr.ctl.Monitor.TypeOf(d.Dom.VCPUs[0])
		vt.rec.Total++
		if recog == truth {
			vt.rec.Matched++
		}
		if vt.havePrev && truth != vt.prevTruth {
			// A ground-truth flip happened since the last period. A flip
			// still pending from before was never recognized in time.
			vt.pending = true
			vt.flipAt = period
			vt.rec.Flips++
		}
		if vt.pending && recog == truth {
			vt.rec.RecognizedFlips++
			vt.rec.LatencySum += period - vt.flipAt + 1
			vt.pending = false
		}
		vt.prevTruth = truth
		vt.havePrev = true
	}
}

// finalize folds the per-VM state into the run's Adaptation record.
func (tr *adaptTracker) finalize() *Adaptation {
	a := &Adaptation{Window: tr.ctl.Monitor.Window}
	if tr.measuring {
		a.Reclusters = tr.ctl.Reclusters - tr.recStart
		a.Migrations = tr.h.PoolMigrations - tr.migStart
	}
	matched, total := 0, 0
	for _, vt := range tr.vms {
		a.PerVM = append(a.PerVM, vt.rec)
		a.Flips += vt.rec.Flips
		a.RecognizedFlips += vt.rec.RecognizedFlips
		matched += vt.rec.Matched
		total += vt.rec.Total
		if vt.rec.RecognizedFlips > 0 {
			a.MeanLatencyPeriods += float64(vt.rec.LatencySum)
		}
	}
	if a.RecognizedFlips > 0 {
		a.MeanLatencyPeriods /= float64(a.RecognizedFlips)
	} else {
		a.MeanLatencyPeriods = 0
	}
	if total > 0 {
		a.MatchedFrac = float64(matched) / float64(total)
	}
	return a
}
