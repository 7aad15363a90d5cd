package cache

import (
	"testing"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
)

func TestSetAssocGeometry(t *testing.T) {
	c := NewSetAssoc(8*hw.MB, 16, 64)
	if c.sets != int(8*hw.MB/(16*64)) {
		t.Errorf("sets = %d", c.sets)
	}
}

func TestSetAssocBadGeometryPanics(t *testing.T) {
	cases := []struct {
		size, line int64
		ways       int
	}{
		{0, 64, 8}, {1024, 64, 0}, {100, 64, 8}, // 100 bytes < one set
	}
	for i, g := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry did not panic", i)
				}
			}()
			NewSetAssoc(g.size, g.ways, g.line)
		}()
	}
}

func TestSetAssocHitAfterMiss(t *testing.T) {
	c := NewSetAssoc(64*hw.KB, 8, 64)
	if !c.Access(0x1000) {
		t.Error("first access did not miss")
	}
	if c.Access(0x1000) {
		t.Error("second access to same line missed")
	}
	if c.Access(0x1001) {
		t.Error("same-line different-byte access missed")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Errorf("stats = (%d, %d), want (3, 1)", acc, miss)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	// 2-way, single... use small cache: 2 sets of 2 ways, 64B lines.
	c := NewSetAssoc(256, 2, 64)
	// Addresses mapping to set 0: line numbers 0, 2, 4 (2 sets).
	a, b, d := uint64(0), uint64(2*64), uint64(4*64)
	c.Access(a) // miss
	c.Access(b) // miss
	c.Access(a) // hit, refreshes a
	c.Access(d) // miss, evicts b (LRU)
	if c.Access(a) {
		t.Error("a was evicted but should have been MRU")
	}
	if !c.Access(b) {
		t.Error("b should have been evicted")
	}
}

func TestListWalkFitsInCacheHasLowMissRatio(t *testing.T) {
	llc := hw.I73770().LLC
	c := NewSetAssoc(llc.Size, llc.Ways, llc.LineSize)
	rng := sim.NewRNG(1)
	// Working set = half the LLC (the paper's LLCF configuration).
	wss := llc.Size / 2
	steps := int(wss/llc.LineSize) * 8 // several rounds
	ListWalk(c, wss, steps, rng)
	c.ResetStats()
	mr := ListWalk(c, wss, steps, rng)
	if mr > 0.05 {
		t.Errorf("warm LLCF walk miss ratio %.3f, want < 0.05", mr)
	}
}

func TestListWalkOverflowingCacheHasHighMissRatio(t *testing.T) {
	llc := hw.I73770().LLC
	c := NewSetAssoc(llc.Size, llc.Ways, llc.LineSize)
	rng := sim.NewRNG(2)
	wss := llc.Size * 2 // LLCO configuration
	steps := int(wss/llc.LineSize) * 4
	mr := ListWalk(c, wss, steps, rng)
	if mr < 0.5 {
		t.Errorf("LLCO walk miss ratio %.3f, want > 0.5", mr)
	}
}

// The analytic model's steady-state miss behaviour should agree with the
// direct set-associative simulation for the calibration working sets.
func TestAnalyticModelAgreesWithSetAssoc(t *testing.T) {
	top := hw.I73770()
	llc := top.LLC

	// Direct simulation: warm LLCF walk.
	c := NewSetAssoc(llc.Size, llc.Ways, llc.LineSize)
	rng := sim.NewRNG(3)
	wss := llc.Size / 2
	steps := int(wss/llc.LineSize) * 8
	ListWalk(c, wss, steps, rng) // warm
	c.ResetStats()
	direct := ListWalk(c, wss, steps, rng)

	// Analytic: warm footprint, steady window.
	m := NewModel(top)
	var fp Footprint
	prof := Profile{WSS: wss, RefRate: 10, MissFloor: 0.01}
	for i := 0; i < 20; i++ {
		run(m, &fp, 0, prof, 50*sim.Millisecond, sim.Second)
	}
	r := run(m, &fp, 0, prof, 50*sim.Millisecond, sim.Second)
	analytic := r.Counters.LLCMissRatio()

	if diff := analytic - direct; diff > 0.05 || diff < -0.05 {
		t.Errorf("analytic warm miss ratio %.4f vs direct %.4f: disagree", analytic, direct)
	}
}
