package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/workload"
	"aqlsched/internal/xen"
)

// stormFleetSpec is genFleetSpec under fire: crash and degrade storms
// plus flaky migrations, so the parallel loop is exercised against the
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
// tenant: the epoch-parallel loop must be observationally identical to
// the serial one, not merely statistically close.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !want.Metrics.Equal(got.Metrics) {
		t.Errorf("%s: run metrics differ from the serial run:\nserial   %v\nparallel %v", label, want.Metrics, got.Metrics)
	}
	if len(want.Apps) != len(got.Apps) {
		t.Fatalf("%s: tenant app count differs: %d vs %d", label, len(want.Apps), len(got.Apps))
	}
	for i := range want.Apps {
		if want.Apps[i].Name != got.Apps[i].Name || !want.Apps[i].Metrics.Equal(got.Apps[i].Metrics) {
			t.Errorf("%s: tenant %s metrics differ from the serial run", label, want.Apps[i].Name)
		}
	}
}

// TestParallelRunMatchesSerial: a churn-and-migration fleet must
// produce bit-identical results at every shard-worker count, including
// counts above the host count (capped) and above GOMAXPROCS.
func TestParallelRunMatchesSerial(t *testing.T) {
	serial := Run(genFleetSpec(), Options{Workers: 1})
	if err := serial.Fleet.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 16} {
		par := Run(genFleetSpec(), Options{Workers: w})
		if err := par.Fleet.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), serial, par)
	}
}

// TestParallelFaultRunMatchesSerial: fault injection shares the
// central timeline, so crash storms, recovery retries and migration-
// failure draws must also be identical at any shard-worker count.
func TestParallelFaultRunMatchesSerial(t *testing.T) {
	serial := Run(stormFleetSpec(), Options{Workers: 1})
	if v, _ := serial.Metrics.Get("fleet_faults_injected"); v < 2 {
		t.Fatalf("fleet_faults_injected = %v, want a real storm so the test means something", v)
	}
	for _, w := range []int{2, 4} {
		par := Run(stormFleetSpec(), Options{Workers: w})
		if err := par.Fleet.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers=%d", w), serial, par)
	}
}

// TestSpecWorkersHint: the spec-level hint arms the pool exactly like
// the Options override, and the override wins when both are set.
func TestSpecWorkersHint(t *testing.T) {
	sp := genFleetSpec()
	sp.Workers = 4
	hinted := Run(sp, Options{})
	serial := Run(genFleetSpec(), Options{Workers: 1})
	assertSameResult(t, "spec hint workers=4", serial, hinted)

	overridden := Run(sp, Options{Workers: 1}) // override back to serial
	assertSameResult(t, "options override workers=1", serial, overridden)
}

func TestResolveWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		opt, hint, hosts, want int
	}{
		{0, 0, 100, min(maxprocs, 100)}, // default: GOMAXPROCS, host-capped
		{1, 8, 100, 1},                  // explicit serial override beats the hint
		{4, 0, 100, 4},
		{0, 3, 100, 3},                    // spec hint
		{16, 0, 4, 4},                     // capped at the host count
		{0, 16, 2, 2},                     // hint capped too
		{-5, -3, 100, min(maxprocs, 100)}, // negatives fall through to the default
	}
	for _, c := range cases {
		if got := resolveWorkers(c.opt, c.hint, c.hosts); got != c.want {
			t.Errorf("resolveWorkers(%d, %d, %d) = %d, want %d", c.opt, c.hint, c.hosts, got, c.want)
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	sp := genFleetSpec()
	sp.Workers = -1
	if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "workers") {
		t.Errorf("negative workers hint validated, err = %v", err)
	}
}

// TestAdvancePoolPanicPropagation: a panic on a worker must surface in
// the caller — deterministically the lowest panicking index — and the
// pool must stay usable afterwards (the barrier completes, workers
// survive).
func TestAdvancePoolPanicPropagation(t *testing.T) {
	p := newAdvancePool(3)
	defer p.close()

	var ran atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		p.do(16, func(i int) {
			ran.Add(1)
			if i%5 == 0 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
		return nil
	}()
	if got == nil {
		t.Fatal("worker panic did not propagate out of do")
	}
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("propagated panic is %T, want the formatted string", got)
	}
	if !strings.Contains(msg, "boom-0") || !strings.Contains(msg, "(host 0)") {
		t.Errorf("propagated panic should carry the lowest panicking index, got:\n%s", msg)
	}
	if n := ran.Load(); n != 16 {
		t.Errorf("barrier ran %d/16 indices; panics must not abort the epoch", n)
	}

	ran.Store(0)
	p.do(8, func(int) { ran.Add(1) })
	if n := ran.Load(); n != 8 {
		t.Errorf("pool ran %d/8 indices after a propagated panic", n)
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
// engine while the shard pool is advancing it must reach Run's caller
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

// TestAdvanceAllSkipsCurrentHosts: the epoch barrier must only issue
// advance calls for hosts whose engines are strictly behind the barrier
// time — most epochs touch a few hosts, and re-advancing the rest is
// wasted work (and, on the pool path, wasted job scheduling). Counted
// via the Fleet.advances probe in both the serial and pooled branches.
func TestAdvanceAllSkipsCurrentHosts(t *testing.T) {
	newHost := func(id int) *Host {
		topo := *hw.I73770()
		return &Host{ID: id, Hyp: xen.New(&topo, credit.New(), uint64(id)+1)}
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := &Fleet{Hosts: []*Host{newHost(0), newHost(1), newHost(2), newHost(3)}}
			if workers > 1 {
				f.pool = newAdvancePool(workers)
				defer f.pool.close()
			}

			f.advanceAll(10 * sim.Millisecond)
			if f.advances != 4 {
				t.Fatalf("first barrier issued %d advances, want 4 (all hosts stale)", f.advances)
			}

			// Two hosts run ahead (as if the epoch's events touched them);
			// the next barrier must only advance the other two.
			f.Hosts[1].advance(20 * sim.Millisecond)
			f.Hosts[3].advance(20 * sim.Millisecond)
			f.advanceAll(20 * sim.Millisecond)
			if f.advances != 6 {
				t.Errorf("second barrier brought total advances to %d, want 6 (current hosts skipped)", f.advances)
			}

			// A barrier at a time every host has reached is a no-op.
			f.advanceAll(20 * sim.Millisecond)
			if f.advances != 6 {
				t.Errorf("no-op barrier issued advances, total %d, want 6", f.advances)
			}

			for _, h := range f.Hosts {
				if now := h.Hyp.Engine.Now(); now != 20*sim.Millisecond {
					t.Errorf("host %d engine at %v after barriers, want 20ms", h.ID, now)
				}
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
