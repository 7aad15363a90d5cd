package experiments

import (
	"strings"
	"testing"

	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

// The experiment tests assert the paper's qualitative results (who
// wins, in which direction) on quick configurations.

func TestFig2ShapesMatchPaper(t *testing.T) {
	r := Fig2(QuickConfig())

	if q, ok := r.BestQuantum(vcputype.IOInt); !ok || q != 1*sim.Millisecond {
		t.Errorf("IOInt best quantum = %v (%v), want 1ms", q, ok)
	}
	if q, ok := r.BestQuantum(vcputype.ConSpin); ok && q > 30*sim.Millisecond {
		t.Errorf("ConSpin best quantum = %v, want small or agnostic", q)
	}
	if q, ok := r.BestQuantum(vcputype.LLCF); !ok || q != 90*sim.Millisecond {
		t.Errorf("LLCF best quantum = %v (%v), want 90ms", q, ok)
	}
	for _, ty := range []vcputype.Type{vcputype.LoLCF, vcputype.LLCO} {
		if _, ok := r.BestQuantum(ty); ok {
			t.Errorf("%v should be quantum-agnostic", ty)
		}
	}
	// Worst lock holds grow with the quantum (Fig. 2 rightmost: the
	// lock-holder-preemption footprint).
	ld := r.Report.LockDurations
	if ld[len(ld)-1].MaxHold <= ld[0].MaxHold {
		t.Errorf("worst lock durations not increasing: %v", ld)
	}
	// Rendering does not crash and mentions every case.
	var sb strings.Builder
	for _, tb := range r.Tables() {
		tb.Render(&sb)
	}
	for _, label := range []string{"Excl. IOInt", "Hetero. IOInt", "ConSpin", "LLCF", "LoLCF", "LLCO"} {
		if !strings.Contains(sb.String(), label) {
			t.Errorf("rendered calibration misses %q", label)
		}
	}
}

func TestFig4VTRSIdentifiesRepresentativeApps(t *testing.T) {
	r := Fig4(QuickConfig())
	if len(r.Traces) != 5 {
		t.Fatalf("%d traces, want 5", len(r.Traces))
	}
	for _, tr := range r.Traces {
		if tr.Final != tr.Expected {
			t.Errorf("%s: final type %v, want %v", tr.App, tr.Final, tr.Expected)
		}
		if len(tr.Samples) < 50 {
			t.Errorf("%s: only %d samples, want >= 50 monitoring periods", tr.App, len(tr.Samples))
		}
		// The expected type's curve is the highest most of the time
		// (after the first window fills).
		if ratio := tr.DominanceRatio(8); ratio < 0.6 {
			t.Errorf("%s: expected type dominant only %.0f%% of periods", tr.App, ratio*100)
		}
	}
}

func TestTable3RecognizesTheSuite(t *testing.T) {
	cfg := QuickConfig()
	if !testing.Short() {
		cfg.Quick = false // full suite when not in short mode
		cfg.Seed = QuickConfig().Seed
	}
	r := Table3(cfg)
	if m := r.Mistyped(); m > len(r.Entries)/8 {
		t.Errorf("%d/%d applications mistyped: %s", m, len(r.Entries), r.Table())
	}
}

func TestFig5EachTypePrefersItsQuantum(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 sweep is slow")
	}
	r := Fig5(QuickConfig())
	for _, a := range r.Apps {
		switch a.Expected {
		case vcputype.IOInt:
			if n := a.Norm[1*sim.Millisecond]; n >= 0.9 {
				t.Errorf("%s (IOInt): 1ms normalized %.3f, want well below 1", a.Name, n)
			}
		case vcputype.ConSpin:
			if n := a.Norm[1*sim.Millisecond]; n >= 1.3 {
				t.Errorf("%s (ConSpin): 1ms normalized %.3f, want no large penalty", a.Name, n)
			}
		case vcputype.LLCF:
			if n := a.Norm[1*sim.Millisecond]; n <= 1.0 {
				t.Errorf("%s (LLCF): 1ms normalized %.3f, want > 1 (penalty)", a.Name, n)
			}
			if n := a.Norm[90*sim.Millisecond]; n > 1.05 {
				t.Errorf("%s (LLCF): 90ms normalized %.3f, want <= ~1", a.Name, n)
			}
		case vcputype.LoLCF, vcputype.LLCO:
			if s := a.Spread(); s > 0.25 {
				t.Errorf("%s (%v): spread %.3f across quanta, want agnostic", a.Name, a.Expected, s)
			}
		}
	}
}

// TestFig5BestQuantumTieBreak: exact ties resolve the same way every
// call — to the 30 ms default, else to the shortest tied quantum — so
// the rendered Fig. 5 "best" column cannot change between processes.
func TestFig5BestQuantumTieBreak(t *testing.T) {
	ms := sim.Millisecond
	threeWay := Fig5App{Norm: map[sim.Time]float64{1 * ms: 0.9, 10 * ms: 0.8, 60 * ms: 0.8, 90 * ms: 0.8}}
	withDefault := Fig5App{Norm: map[sim.Time]float64{1 * ms: 1.2, 10 * ms: 1, 60 * ms: 1, 90 * ms: 1.1}}
	for i := 0; i < 100; i++ {
		if q := threeWay.BestQuantum(); q != 10*ms {
			t.Fatalf("call %d: three-way tie resolved to %v, want 10ms", i, q)
		}
		if q := withDefault.BestQuantum(); q != 30*ms {
			t.Fatalf("call %d: tie with the default resolved to %v, want 30ms", i, q)
		}
	}
}

func TestSingleSocketAQLBeatsXen(t *testing.T) {
	r := SingleSocket(QuickConfig())
	if len(r.Scenarios) != 5 {
		t.Fatalf("%d scenarios, want 5", len(r.Scenarios))
	}
	for _, sc := range r.Scenarios {
		for app, norm := range sc.Norm {
			switch sc.Types[app] {
			case "IOInt":
				if norm >= 1.0 {
					t.Errorf("%s/%s: normalized %.3f, want < 1 (AQL wins)", sc.Name, app, norm)
				}
			case "ConSpin":
				// Quantum-agnostic in this substrate: no regression
				// beyond gang-alignment noise (see EXPERIMENTS.md).
				if norm > 1.3 {
					t.Errorf("%s/%s: normalized %.3f, want no large regression", sc.Name, app, norm)
				}
			case "LLCF":
				if norm > 1.08 {
					t.Errorf("%s/%s: normalized %.3f, want <= ~1", sc.Name, app, norm)
				}
			default: // agnostic types: no significant regression
				if norm > 1.25 {
					t.Errorf("%s/%s: normalized %.3f, want ~1 (agnostic)", sc.Name, app, norm)
				}
			}
		}
	}
	// Table 5 layouts: S2 and S5 must match the paper exactly.
	for _, sc := range r.Scenarios {
		if sc.Name != "S2" && sc.Name != "S5" {
			continue
		}
		if len(sc.Clusters) != 2 {
			t.Errorf("%s: %d clusters, want 2", sc.Name, len(sc.Clusters))
			continue
		}
		for _, c := range sc.Clusters {
			if len(c.PCPUs) != 2 {
				t.Errorf("%s/%s: %d pCPUs, want 2", sc.Name, c.Name, len(c.PCPUs))
			}
			if c.Quantum != 1*sim.Millisecond && c.Quantum != 90*sim.Millisecond {
				t.Errorf("%s/%s: quantum %v, want 1ms or 90ms", sc.Name, c.Name, c.Quantum)
			}
		}
	}
}

func TestFig6RightFormsSixClustersAndWins(t *testing.T) {
	if testing.Short() {
		t.Skip("four-socket run is slow")
	}
	r := Fig6Right(QuickConfig())
	if len(r.Clusters) < 5 || len(r.Clusters) > 7 {
		t.Errorf("%d clusters on the 4-socket machine, want ~6 (Fig. 3)", len(r.Clusters))
	}
	// LLCF clusters at 90ms should not regress; IOInt+ clusters at 1ms
	// should improve.
	for _, c := range r.Clusters {
		for variant, norm := range c.PerVariant {
			switch {
			case variant == "IOInt+":
				if norm >= 1.0 {
					t.Errorf("cluster %s %s: normalized %.3f, want < 1", c.Cluster, variant, norm)
				}
			case variant == "LLCF" && c.Quantum == 90*sim.Millisecond:
				// Paper Fig. 6 right: LLCF varies per cluster with its
				// co-runners (C3 vs C4); allow per-cluster variance as
				// long as no cluster collapses.
				if norm > 1.8 {
					t.Errorf("cluster %s LLCF: normalized %.3f, want no collapse", c.Cluster, norm)
				}
			}
		}
	}
}

func TestFig7CustomizationHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("four-socket ablation is slow")
	}
	r := Fig7(QuickConfig())
	// With the large fixed quantum, IOInt+ must be much worse than full
	// AQL; with the small one, LLCF must be worse.
	if n := r.Norm["large (90ms)"]["IOInt"]; n <= 1.1 {
		t.Errorf("large quantum IOInt normalized %.3f, want > 1.1 (customization benefit)", n)
	}
	if n := r.Norm["small (1ms)"]["LLCF"]; n <= 1.0 {
		t.Errorf("small quantum LLCF normalized %.3f, want > 1 (customization benefit)", n)
	}
}

func TestFig8AQLBestAcrossAllTypes(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison is slow")
	}
	r := Fig8(QuickConfig())
	aql := r.Norm["aql"]
	// AQL improves IOInt strongly and never regresses the others beyond
	// gang-alignment noise.
	if n := aql["IOInt"]; n >= 1.0 {
		t.Errorf("AQL IOInt normalized %.3f, want < 1", n)
	}
	if n := aql["LLCF"]; n > 1.1 {
		t.Errorf("AQL LLCF normalized %.3f, want <= ~1", n)
	}
	if n := aql["ConSpin"]; n > 1.3 {
		t.Errorf("AQL ConSpin normalized %.3f, want no large regression", n)
	}
	// Microsliced penalizes LLCF relative to AQL (its known weakness).
	if micro, ok := r.Norm["microsliced"]; ok {
		if micro["LLCF"] <= aql["LLCF"]-0.02 {
			t.Errorf("microsliced LLCF %.3f better than AQL %.3f", micro["LLCF"], aql["LLCF"])
		}
	}
	// No baseline beats AQL on every type simultaneously.
	for pol, m := range r.Norm {
		if pol == "aql" {
			continue
		}
		better := 0
		for ty := range aql {
			if m[ty] < aql[ty]-0.02 {
				better++
			}
		}
		if better == len(aql) {
			t.Errorf("%s beats AQL on every type: %v vs %v", pol, m, aql)
		}
	}
}

func TestOverheadBelowOnePercent(t *testing.T) {
	r := Overhead(QuickConfig())
	if d := r.MaxPerfDelta(); d > 0.01 {
		t.Errorf("monitoring perturbs performance by %.2f%%, want < 1%%", d*100)
	}
	if r.ModelledOverhead > 0.01 {
		t.Errorf("modelled controller overhead %.4f, want < 1%%", r.ModelledOverhead)
	}
	if r.Periods == 0 {
		t.Error("monitor never sampled")
	}
}

func TestStaticTablesRender(t *testing.T) {
	var sb strings.Builder
	Table4(QuickConfig()).Render(&sb)
	Table6().Render(&sb)
	for _, want := range []string{"S1", "S5", "vTurbo", "AQL_Sched", "Microsliced"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("static tables missing %q", want)
		}
	}
}

// TestAdaptationLatencyGrowsWithWindow reproduces the paper's
// Section 3.3 reactivity-vs-churn argument on moving workloads: the
// recognition latency after a ground-truth type flip must grow
// monotonically with the vTRS window n, while recluster/migration
// churn shrinks. n = 1 reacts fastest but thrashes; n = 8 is calm but
// slow — which is why the paper lands on n = 4.
func TestAdaptationLatencyGrowsWithWindow(t *testing.T) {
	res := Adaptation(QuickConfig())
	if len(res.Rows) != len(AdaptationWindows) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(AdaptationWindows))
	}
	for i, row := range res.Rows {
		if row.Latency <= 0 {
			t.Fatalf("window %d: no recognition latency measured", row.Window)
		}
		if i == 0 {
			continue
		}
		prev := res.Rows[i-1]
		if row.Latency < prev.Latency {
			t.Errorf("recognition latency not monotone: n=%d -> %.2f periods, n=%d -> %.2f",
				prev.Window, prev.Latency, row.Window, row.Latency)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Latency <= first.Latency {
		t.Errorf("latency at n=%d (%.2f) not above n=%d (%.2f)",
			last.Window, last.Latency, first.Window, first.Latency)
	}
	// The other side of the trade-off: the widest window must recluster
	// and migrate less than the narrowest.
	if last.Reclusters >= first.Reclusters {
		t.Errorf("reclusters did not shrink with the window: n=%d -> %.1f, n=%d -> %.1f",
			first.Window, first.Reclusters, last.Window, last.Reclusters)
	}
	if last.Migrations >= first.Migrations {
		t.Errorf("migrations did not shrink with the window: n=%d -> %.1f, n=%d -> %.1f",
			first.Window, first.Migrations, last.Window, last.Migrations)
	}
	res.Table() // must render
}
