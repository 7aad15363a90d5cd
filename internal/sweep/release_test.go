package sweep

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aqlsched/internal/baselines"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// sentinels counts pointer-free objects that ride on a run's hypervisor:
// each is reachable only through a closure the hypervisor holds, so its
// finalizer runs once nothing reaches that hypervisor any more.
type sentinels struct {
	attached, freed atomic.Int32
}

// attach hangs a fresh sentinel on h. The finalizer sits on the
// sentinel, never on the hypervisor: the hypervisor is part of a
// reference cycle, and a finalizer there would never run.
func (s *sentinels) attach(h *xen.Hypervisor) {
	p := new([64]byte)
	runtime.SetFinalizer(p, func(*[64]byte) { s.freed.Add(1) })
	h.OnDispatch = func(*xen.VCPU, sim.Time, sim.Time) { p[0]++ }
	s.attached.Add(1)
}

// settle collects garbage until every attached sentinel is finalized,
// or gives up after 20 cycles, and reports how many were freed.
func (s *sentinels) settle() (freed, attached int32) {
	for i := 0; i < 20 && s.freed.Load() < s.attached.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	return s.freed.Load(), s.attached.Load()
}

// sentinelAQL is the AQL policy with a sentinel attached to the run's
// hypervisor at Setup.
type sentinelAQL struct {
	*baselines.AQL
	s *sentinels
}

func (p sentinelAQL) Setup(h *xen.Hypervisor, deps []*workload.Deployment) {
	p.AQL.Setup(h, deps)
	p.s.attach(h)
}

// TestSweepReleasesSimulation: a finished run keeps its measurements,
// not its simulation. Once nothing holds a run's Raw, nothing in the
// Result reaches its hypervisor — not even an AQL run's controller,
// whose cluster layout Table 5 and Fig. 6 (right) read after the sweep.
func TestSweepReleasesSimulation(t *testing.T) {
	spec := func(t *testing.T) *Spec {
		t.Helper()
		sp, err := (&File{
			Name:      "release",
			Scenarios: refs("S2"),
			Policies:  pols("aql", "xen"),
			Seeds:     2,
			WarmupMS:  400,
			MeasureMS: 900,
		}).Spec()
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	check := func(t *testing.T, res *Result, s *sentinels, want int32) {
		t.Helper()
		for i := range res.Runs {
			if err := res.Runs[i].Err; err != nil {
				t.Fatal(err)
			}
		}
		freed, attached := s.settle()
		if attached != want || freed != attached {
			t.Errorf("%d of %d sentinels freed (want %d attached, all freed): a finished run keeps its simulation reachable", freed, attached, want)
		}
		if res.RunFor("S2", "aql", 0).Controller().LastPlan == nil {
			t.Error("aql run lost its cluster layout")
		}
		runtime.KeepAlive(res)
	}

	t.Run("KeepRaw", func(t *testing.T) {
		var s sentinels
		res, err := Exec(spec(t), Options{Workers: 2, KeepRaw: true, OnRun: func(rr *RunResult) {
			if rr.Raw != nil {
				s.attach(rr.Raw.Hyp)
			}
			rr.Raw = nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, &s, 4)
	})

	t.Run("Default", func(t *testing.T) {
		var s sentinels
		sp := spec(t)
		for i := range sp.Policies {
			if sp.Policies[i].Name == "aql" {
				sp.Policies[i].New = func() scenario.Policy { return sentinelAQL{&baselines.AQL{}, &s} }
			}
		}
		res, err := Exec(sp, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, &s, 2)
	})
}
