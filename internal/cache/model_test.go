package cache

import (
	"math"
	"testing"
	"testing/quick"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

func testModel() *Model { return NewModel(hw.I73770()) }

// run calls m.Run and returns its result.
func run(m *Model, fp *Footprint, core hw.PCPUID, prof Profile, work, budget sim.Time) BurstResult {
	var res BurstResult
	m.Run(fp, core, &prof, work, budget, &res)
	return res
}

// Profiles mirroring the calibration micro-benchmarks.
func llcfProfile() Profile {
	return Profile{WSS: 4 * hw.MB, RefRate: 10, MissFloor: 0.01}
}
func llcoProfile() Profile {
	return Profile{WSS: 16 * hw.MB, RefRate: 30, Streaming: true, StreamMissRatio: 0.9}
}
func lolcfProfile() Profile {
	return Profile{WSS: 230 * hw.KB, RefRate: 0.1}
}

func TestColdRunIsSlowerThanWarmRun(t *testing.T) {
	m := testModel()
	var fp Footprint
	prof := llcfProfile()
	const work = 5000 * sim.Millisecond // more than enough budget

	cold := run(m, &fp, 0, prof, 10*sim.Millisecond, work)
	if !cold.Finished {
		t.Fatal("cold burst did not finish within huge budget")
	}
	warm := run(m, &fp, 0, prof, 10*sim.Millisecond, work)
	if !warm.Finished {
		t.Fatal("warm burst did not finish")
	}
	if cold.Wall <= warm.Wall {
		t.Errorf("cold wall %v not slower than warm wall %v", cold.Wall, warm.Wall)
	}
	// Warm run should be close to ideal speed.
	ratio := float64(warm.Wall) / float64(10*sim.Millisecond)
	if ratio > 1.1 {
		t.Errorf("warm slowdown %.3f, want < 1.1", ratio)
	}
}

func TestFootprintWarmsTowardWSS(t *testing.T) {
	m := testModel()
	var fp Footprint
	prof := llcfProfile()
	for i := 0; i < 20; i++ {
		run(m, &fp, 0, prof, 20*sim.Millisecond, sim.Second)
	}
	if fp.Resident() < 0.95*float64(prof.WSS) {
		t.Errorf("after long run resident = %.0f, want >= 95%% of WSS %d", fp.Resident(), prof.WSS)
	}
	if fp.Resident() > float64(prof.WSS) {
		t.Errorf("resident %.0f exceeds WSS %d", fp.Resident(), prof.WSS)
	}
}

func TestCoRunnerInsertionsEvictFootprint(t *testing.T) {
	m := testModel()
	var victim, disturber Footprint
	prof := llcfProfile()
	// Warm the victim.
	for i := 0; i < 10; i++ {
		run(m, &victim, 0, prof, 20*sim.Millisecond, sim.Second)
	}
	warm := victim.Resident()
	// Disturber streams on another core of the same socket.
	run(m, &disturber, 1, llcoProfile(), 30*sim.Millisecond, sim.Second)
	// Victim's next dispatch sees the decayed footprint.
	run(m, &victim, 0, prof, 1*sim.Microsecond, 10*sim.Microsecond)
	if victim.Resident() >= warm {
		t.Errorf("victim resident %.0f did not decay from %.0f after disturber streamed", victim.Resident(), warm)
	}
}

func TestCrossSocketMigrationGoesCold(t *testing.T) {
	m := NewModel(hw.XeonE54603())
	var fp Footprint
	prof := llcfProfile()
	for i := 0; i < 10; i++ {
		run(m, &fp, 0, prof, 20*sim.Millisecond, sim.Second)
	}
	if fp.Resident() == 0 {
		t.Fatal("footprint never warmed")
	}
	// Core 4 is on socket 1.
	run(m, &fp, 4, prof, 1*sim.Microsecond, 100*sim.Microsecond)
	if fp.Resident() > 0.05*float64(prof.WSS) {
		t.Errorf("after cross-socket move, resident = %.0f, want near cold", fp.Resident())
	}
}

func TestStreamingSlowdownIsConstant(t *testing.T) {
	m := testModel()
	var fp Footprint
	prof := llcoProfile()
	r1 := run(m, &fp, 0, prof, 10*sim.Millisecond, sim.Second)
	r2 := run(m, &fp, 0, prof, 10*sim.Millisecond, sim.Second)
	if !r1.Finished || !r2.Finished {
		t.Fatal("streaming bursts did not finish")
	}
	// First run differs only by L2 fill; both should show the same
	// steady slowdown within 5%.
	d := math.Abs(float64(r1.Wall-r2.Wall)) / float64(r2.Wall)
	if d > 0.05 {
		t.Errorf("streaming wall times %v vs %v differ by %.1f%%", r1.Wall, r2.Wall, d*100)
	}
	if r2.Wall <= 10*sim.Millisecond {
		t.Error("streaming run not slower than ideal")
	}
}

func TestLoLCFRunsAtIdealSpeed(t *testing.T) {
	m := testModel()
	var fp Footprint
	r := run(m, &fp, 0, lolcfProfile(), 10*sim.Millisecond, sim.Second)
	if !r.Finished {
		t.Fatal("LoLCF burst did not finish")
	}
	slow := float64(r.Wall) / float64(10*sim.Millisecond)
	if slow > 1.01 {
		t.Errorf("LoLCF slowdown %.4f, want ~1.0", slow)
	}
}

func TestBudgetIsRespected(t *testing.T) {
	m := testModel()
	var fp Footprint
	prof := llcfProfile()
	r := run(m, &fp, 0, prof, 100*sim.Millisecond, 1*sim.Millisecond)
	if r.Finished {
		t.Error("burst claims finished despite small budget")
	}
	if r.Wall > 1*sim.Millisecond {
		t.Errorf("wall %v exceeds budget 1ms", r.Wall)
	}
	if r.Ideal <= 0 {
		t.Errorf("no progress within budget (ideal=%v)", r.Ideal)
	}
	if r.Ideal >= 100*sim.Millisecond {
		t.Errorf("ideal %v impossible within 1ms budget", r.Ideal)
	}
}

func TestCountersEmitted(t *testing.T) {
	m := testModel()
	var fp Footprint
	prof := llcfProfile()
	r := run(m, &fp, 0, prof, 10*sim.Millisecond, sim.Second)
	if r.Counters.Instructions == 0 {
		t.Error("no instructions counted")
	}
	if r.Counters.LLCReferences == 0 {
		t.Error("no LLC references counted")
	}
	if r.Counters.LLCMisses == 0 {
		t.Error("cold burst produced no misses")
	}
	if r.Counters.LLCMisses > r.Counters.LLCReferences {
		t.Errorf("misses %d exceed references %d", r.Counters.LLCMisses, r.Counters.LLCReferences)
	}
	// Reference ratio should approximate RefRate/instrRate.
	rr := r.Counters.LLCRefRatio()
	want := prof.RefRate / DefaultInstrPerUs
	if math.Abs(rr-want)/want > 0.05 {
		t.Errorf("LLC ref ratio %.5f, want ~%.5f", rr, want)
	}
}

func TestMissRatioDistinguishesTypes(t *testing.T) {
	m := testModel()
	var fpF, fpO Footprint
	// Warm LLCF, then measure a steady window.
	for i := 0; i < 10; i++ {
		run(m, &fpF, 0, llcfProfile(), 20*sim.Millisecond, sim.Second)
	}
	rF := run(m, &fpF, 0, llcfProfile(), 30*sim.Millisecond, sim.Second)
	rO := run(m, &fpO, 1, llcoProfile(), 30*sim.Millisecond, sim.Second)
	if mr := rF.Counters.LLCMissRatio(); mr > 0.1 {
		t.Errorf("warm LLCF miss ratio %.3f, want < 0.1", mr)
	}
	if mr := rO.Counters.LLCMissRatio(); mr < 0.5 {
		t.Errorf("LLCO miss ratio %.3f, want > 0.5", mr)
	}
}

func TestQuantumEffectOnLLCF(t *testing.T) {
	// The paper's core claim (Fig. 2d): with a trashing co-runner
	// time-sharing the same core, an LLCF application completes the
	// same work faster under a 90ms quantum than under 1ms.
	wallPerWork := func(q sim.Time) float64 {
		m := testModel()
		var llcf, llco Footprint
		profF, profO := llcfProfile(), llcoProfile()
		var wall, ideal float64
		// Alternate slices on core 0, like two vCPUs sharing a pCPU.
		for ideal < float64(500*sim.Millisecond) {
			rF := run(m, &llcf, 0, profF, sim.MaxTime/4, q)
			wall += float64(rF.Wall)
			ideal += float64(rF.Ideal)
			run(m, &llco, 0, profO, sim.MaxTime/4, q)
		}
		return wall / ideal
	}
	slow1 := wallPerWork(1 * sim.Millisecond)
	slow30 := wallPerWork(30 * sim.Millisecond)
	slow90 := wallPerWork(90 * sim.Millisecond)
	if !(slow1 > slow30 && slow30 > slow90) {
		t.Errorf("LLCF slowdowns not monotone in quantum: q1=%.3f q30=%.3f q90=%.3f", slow1, slow30, slow90)
	}
	// The 1ms penalty should be substantial (paper: ~1.3x vs 30ms).
	if slow1/slow30 < 1.1 {
		t.Errorf("1ms vs 30ms penalty only %.3f, want > 1.1", slow1/slow30)
	}
}

func TestQuantumAgnosticTypes(t *testing.T) {
	// LLCO and LoLCF should run at nearly the same speed under 1ms and
	// 90ms quanta (Fig. 2e, 2f).
	for _, tc := range []struct {
		name string
		prof Profile
	}{
		{"LLCO", llcoProfile()},
		{"LoLCF", lolcfProfile()},
	} {
		wallPerWork := func(q sim.Time) float64 {
			m := testModel()
			var fp, dist Footprint
			profD := llcoProfile()
			var wall, ideal float64
			for ideal < float64(200*sim.Millisecond) {
				r := run(m, &fp, 0, tc.prof, sim.MaxTime/4, q)
				wall += float64(r.Wall)
				ideal += float64(r.Ideal)
				run(m, &dist, 0, profD, sim.MaxTime/4, q)
			}
			return wall / ideal
		}
		s1, s90 := wallPerWork(1*sim.Millisecond), wallPerWork(90*sim.Millisecond)
		if math.Abs(s1-s90)/s90 > 0.08 {
			t.Errorf("%s: slowdown differs too much across quanta: q1=%.3f q90=%.3f", tc.name, s1, s90)
		}
	}
}

func TestRunPanicsOnNonPositiveArgs(t *testing.T) {
	m := testModel()
	var fp Footprint
	for _, args := range [][2]sim.Time{{0, 10}, {10, 0}, {-1, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(work=%v,budget=%v) did not panic", args[0], args[1])
				}
			}()
			run(m, &fp, 0, llcfProfile(), args[0], args[1])
		}()
	}
}

// TestRunOverwritesResult: Run writes every field of its result, so a
// caller may pass a result that still holds an earlier burst (the
// hypervisor replays a preempted burst into its plan).
func TestRunOverwritesResult(t *testing.T) {
	for _, prof := range []Profile{llcfProfile(), llcoProfile(), lolcfProfile()} {
		for _, budget := range []sim.Time{1, sim.Millisecond, sim.Second} {
			var fpA, fpB Footprint
			want := run(testModel(), &fpA, 0, prof, 10*sim.Millisecond, budget)
			got := BurstResult{Wall: 7, Ideal: 7, Finished: true, InsertedBytes: 7,
				Counters: hw.Counters{Instructions: 7, LLCReferences: 7, LLCMisses: 7, IOEvents: 7, PauseLoops: 7, LockOps: 7}}
			testModel().Run(&fpB, 0, &prof, 10*sim.Millisecond, budget, &got)
			if got != want {
				t.Errorf("WSS %d, budget %v: dirty result became %+v, want %+v", prof.WSS, budget, got, want)
			}
		}
	}
}

func TestSpinCounters(t *testing.T) {
	c := SpinCounters(100 * sim.Microsecond)
	if c.PauseLoops == 0 {
		t.Error("spin produced no pause loops")
	}
	if c.LLCReferences != 0 {
		t.Error("spin produced LLC references")
	}
	if c.Instructions == 0 {
		t.Error("spin retired no instructions")
	}
}

// Property: wall time always >= ideal work done, and both are bounded by
// the budget/work arguments.
func TestBurstBoundsProperty(t *testing.T) {
	m := testModel()
	f := func(wssKB uint16, refRate uint8, workMs, budgetMs uint8) bool {
		prof := Profile{
			WSS:     int64(wssKB%16384+1) * hw.KB,
			RefRate: float64(refRate % 50),
		}
		var fp Footprint
		work := sim.Time(workMs%50+1) * sim.Millisecond
		budget := sim.Time(budgetMs%50+1) * sim.Millisecond
		r := run(m, &fp, 0, prof, work, budget)
		if r.Wall < 1 || r.Wall > budget {
			return false
		}
		if r.Ideal < 0 || r.Ideal > work {
			return false
		}
		if r.Ideal > r.Wall { // work can't exceed wall time spent
			return false
		}
		if fp.Resident() < 0 || fp.Resident() > float64(prof.WSS) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the socket insertion clock is monotone non-decreasing.
func TestInsertionClockMonotoneProperty(t *testing.T) {
	m := testModel()
	var fp Footprint
	last := m.Inserted(0)
	f := func(streaming bool, workMs uint8) bool {
		prof := llcfProfile()
		if streaming {
			prof = llcoProfile()
		}
		run(m, &fp, 0, prof, sim.Time(workMs%20+1)*sim.Millisecond, sim.Second)
		now := m.Inserted(0)
		ok := now >= last
		last = now
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
