package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// stormFleetSpec is genFleetSpec under fire: crash and degrade storms
// plus flaky migrations, so the epoch loop is exercised against the
// full fault machinery (stale-generation guards, retries, recovery).
func stormFleetSpec() Spec {
	sp := genFleetSpec()
	sp.Name = "parallel-storm"
	sp.GenSeed = 7
	sp.Faults = &FaultPlan{
		CrashStorm:   &Storm{Rate: 15, Start: sim.Millis(40 * sim.Millisecond), Horizon: sim.Millis(180 * sim.Millisecond), MeanDown: sim.Millis(30 * sim.Millisecond)},
		DegradeStorm: &Storm{Rate: 10, Horizon: sim.Millis(200 * sim.Millisecond), MeanDown: sim.Millis(50 * sim.Millisecond), Factor: 0.5},
		MigFailProb:  0.3,
		Recovery:     Recovery{MaxRetries: 3, RetryDelay: sim.Millis(5 * sim.Millisecond), Backoff: 2, OnExhaust: "requeue"},
	}
	return sp
}

// assertSameResult compares two runs metric-for-metric, tenant-for-
// tenant: the epoch loop must be observationally identical at every
// worker count, not merely statistically close.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !want.Metrics.Equal(got.Metrics) {
		t.Errorf("%s: run metrics differ from the one-worker run:\none-worker %v\nthis run   %v", label, want.Metrics, got.Metrics)
	}
	if len(want.Apps) != len(got.Apps) {
		t.Fatalf("%s: tenant app count differs: %d vs %d", label, len(want.Apps), len(got.Apps))
	}
	for i := range want.Apps {
		if want.Apps[i].Name != got.Apps[i].Name || !want.Apps[i].Metrics.Equal(got.Apps[i].Metrics) {
			t.Errorf("%s: tenant %s metrics differ from the one-worker run", label, want.Apps[i].Name)
		}
	}
}

// TestParallelRunMatchesSerial: a churn-and-migration fleet must
// produce bit-identical results at every shard-worker count, including
// counts above the host count (capped) and above GOMAXPROCS; the
// one-worker run is the reference.
func TestParallelRunMatchesSerial(t *testing.T) {
	one := Run(genFleetSpec(), Options{Workers: 1})
	if err := one.Fleet.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 16} {
		par := Run(genFleetSpec(), Options{Workers: w})
		if err := par.Fleet.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), one, par)
	}
}

// TestParallelFaultRunMatchesSerial: fault injection shares the
// central timeline, so crash storms, recovery retries and migration-
// failure draws must also be identical at any shard-worker count.
func TestParallelFaultRunMatchesSerial(t *testing.T) {
	one := Run(stormFleetSpec(), Options{Workers: 1})
	if v, _ := one.Metrics.Get("fleet_faults_injected"); v < 2 {
		t.Fatalf("fleet_faults_injected = %v, want a real storm so the test means something", v)
	}
	for _, w := range []int{2, 4} {
		par := Run(stormFleetSpec(), Options{Workers: w})
		if err := par.Fleet.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), one, par)
	}
}

func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		opt, hosts, want int
	}{
		{0, 100, min(maxprocs, 100)}, // default: GOMAXPROCS, host-capped
		{1, 100, 1},
		{4, 100, 4},
		{16, 4, 4},                    // capped at the host count
		{-5, 100, min(maxprocs, 100)}, // negatives fall through to the default
	}
	for _, c := range cases {
		if got := resolveWorkers(c.opt, c.hosts); got != c.want {
			t.Errorf("resolveWorkers(%d, %d) = %d, want %d", c.opt, c.hosts, got, c.want)
		}
	}
}

// TestBarrierPanicPropagation: a host panicking inside the epoch barrier
// must not abort it — every other host still reaches the barrier time —
// and the re-panic must name the lowest panicking host (par's job
// index), whichever worker reached it first.
func TestBarrierPanicPropagation(t *testing.T) {
	f := &Fleet{}
	for id := 0; id < 5; id++ {
		topo := *hw.I73770()
		h := &Host{ID: id, Hyp: xen.New(&topo, credit.New(), uint64(id)+1)}
		if id == 1 || id == 3 {
			h.Hyp.Engine.After(5*sim.Millisecond, func(sim.Time) { panic(fmt.Sprintf("boom-%d", id)) })
		}
		f.Hosts = append(f.Hosts, h)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		f.advanceAll(10*sim.Millisecond, 3)
		return nil
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("barrier re-panicked with %T (%v), want the formatted string", got, got)
	}
	if !strings.Contains(msg, "job 1 panicked") || !strings.Contains(msg, "boom-1") {
		t.Errorf("re-panic should name host 1, the lowest panicking host, got:\n%s", msg)
	}
	for _, id := range []int{0, 2, 4} {
		if now := f.Hosts[id].Hyp.Engine.Now(); now != 10*sim.Millisecond {
			t.Errorf("host %d engine at %v after the barrier, want 10ms", id, now)
		}
	}
}

// panicPolicy arms a timer on each host's private engine that panics
// mid-run — a stand-in for any bug inside parallel host advancement.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panic" }
func (panicPolicy) Setup(h *xen.Hypervisor, _ []*workload.Deployment) {
	h.Engine.After(30*sim.Millisecond, func(sim.Time) { panic("injected advance panic") })
}

// TestPanicInHostAdvancePropagates: a panic raised inside a host's
// engine while the epoch barrier is advancing it must reach Run's caller
// (the sweep layer converts it into a FAILED run) instead of killing a
// bare worker goroutine.
func TestPanicInHostAdvancePropagates(t *testing.T) {
	for _, w := range []int{1, 4} {
		got := func() (r any) {
			defer func() { r = recover() }()
			Run(genFleetSpec(), Options{
				Workers:   w,
				NewPolicy: func() scenario.Policy { return panicPolicy{} },
			})
			return nil
		}()
		if got == nil {
			t.Fatalf("workers=%d: injected panic did not propagate", w)
		}
		if msg := fmt.Sprint(got); !strings.Contains(msg, "injected advance panic") {
			t.Errorf("workers=%d: propagated panic lost the cause: %v", w, msg)
		}
	}
}
