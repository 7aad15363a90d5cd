// Package aqlsched's root benchmarks regenerate every table and figure
// of the paper's evaluation (Section 4); one testing.B target per
// artifact. Run them with:
//
//	go test -bench=. -benchmem
//
// Each iteration performs the full experiment on the simulator; the
// reported wall time is the cost of regenerating that artifact.
package aqlsched_test

import (
	"fmt"
	"runtime"
	"testing"

	"aqlsched/internal/experiments"
	"aqlsched/internal/fleet"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
	"aqlsched/internal/sweep"
	"aqlsched/internal/vcputype"
)

func benchCfg(b *testing.B) experiments.Config {
	b.Helper()
	if testing.Short() {
		return experiments.QuickConfig()
	}
	cfg := experiments.QuickConfig() // benches always use the quick windows
	return cfg
}

// BenchmarkFig2Calibration regenerates the quantum-length calibration
// (Fig. 2 (a)-(f) plus the lock-duration inset).
func BenchmarkFig2Calibration(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(cfg)
		if len(r.Report.Curves) == 0 {
			b.Fatal("no calibration curves")
		}
	}
}

// BenchmarkFig4VTRS regenerates the online recognition traces (Fig. 4).
func BenchmarkFig4VTRS(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(cfg)
		if len(r.Traces) != 5 {
			b.Fatal("expected 5 traces")
		}
	}
}

// BenchmarkTable3Recognition regenerates the per-application type
// census (Table 3).
func BenchmarkTable3Recognition(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(cfg)
		if len(r.Entries) == 0 {
			b.Fatal("no entries")
		}
	}
}

// BenchmarkFig5Robustness regenerates the per-app quantum sweep (Fig. 5).
func BenchmarkFig5Robustness(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(cfg)
		if len(r.Apps) == 0 {
			b.Fatal("no apps")
		}
	}
}

// BenchmarkFig6SingleSocket regenerates Table 5 and Fig. 6 (left):
// scenarios S1-S5 under default Xen and AQL_Sched.
func BenchmarkFig6SingleSocket(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.SingleSocket(cfg)
		if len(r.Scenarios) != 5 {
			b.Fatal("expected 5 scenarios")
		}
	}
}

// BenchmarkFig6FourSocket regenerates Fig. 6 (right): the Fig. 3
// population on the 4-socket machine.
func BenchmarkFig6FourSocket(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6Right(cfg)
		if len(r.Clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkFig7Customization regenerates the quantum-customization
// ablation (Fig. 7).
func BenchmarkFig7Customization(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(cfg)
		if len(r.Norm) != 3 {
			b.Fatal("expected 3 ablation cases")
		}
	}
}

// BenchmarkFig8Baselines regenerates the comparison with vTurbo,
// Microsliced and vSlicer (Fig. 8).
func BenchmarkFig8Baselines(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(cfg)
		if len(r.Norm) != 4 {
			b.Fatal("expected 4 policies")
		}
	}
}

// BenchmarkOverhead regenerates the Section 4.3 overhead measurement.
func BenchmarkOverhead(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		r := experiments.Overhead(cfg)
		if r.Periods == 0 {
			b.Fatal("monitor never sampled")
		}
	}
}

// BenchmarkFleet100Hosts runs a full datacenter-scale fleet scenario —
// 100 hosts, a 2,400-vCPU population with churn, live migrations — and
// reports the simulator's scale-out throughput as simulated VM-seconds
// per wall-clock second ("vmsec/s", higher is better). The workers
// sub-benchmarks shard host advances across that many goroutines
// (epoch-parallel execution; results are identical at any count) and
// also report GOMAXPROCS: on a 1-core container workers=2/4 tie with
// workers=1 by construction, so a flat curve there is the scheduler's
// doing, not a failed optimisation.
func BenchmarkFleet100Hosts(b *testing.B) {
	spec := fleet100Spec()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var vmSeconds float64
			for i := 0; i < b.N; i++ {
				res := fleet.Run(spec, fleet.Options{Workers: workers})
				v, ok := res.Metrics.Get("fleet_vm_seconds")
				if !ok || v <= 0 {
					b.Fatalf("fleet_vm_seconds = %v (ok=%v)", v, ok)
				}
				vmSeconds = v
			}
			b.ReportMetric(vmSeconds*float64(b.N)/b.Elapsed().Seconds(), "vmsec/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
		})
	}
}

func fleet100Spec() fleet.Spec {
	return fleet.Spec{
		Name:      "fleet-bench",
		Hosts:     100,
		OverSub:   3,
		Placement: "least-loaded",
		Tenants:   []fleet.Tenant{{Name: "alpha", Weight: 2}, {Name: "beta", Weight: 1}, {Name: "gamma", Weight: 1}},
		VCPUs:     2400,
		Mix: scenario.Mix{
			vcputype.IOInt: 0.25, vcputype.ConSpin: 0.25, vcputype.LLCF: 0.2, vcputype.LLCO: 0.15, vcputype.LoLCF: 0.15,
		},
		Churn: &scenario.ChurnSpec{
			Rate:         40,
			MeanLifetime: sim.Millis(400 * sim.Millisecond),
			MinLifetime:  sim.Millis(100 * sim.Millisecond),
			Horizon:      sim.Millis(900 * sim.Millisecond),
		},
		Rebalance: fleet.Rebalance{
			Every:         sim.Millis(100 * sim.Millisecond),
			Threshold:     0.05,
			MigrationTime: sim.Millis(40 * sim.Millisecond),
			MaxPerTick:    8,
		},
		Warmup:  300 * sim.Millisecond,
		Measure: 700 * sim.Millisecond,
		Seed:    sweep.DefaultSeed,
	}
}

// sweepBenchSpec is a small real grid — S1+S5 under three policies,
// two seed replications (12 runs) — with short windows. It is the
// built-in "bench" sweep, shared with the golden-determinism test.
func sweepBenchSpec(b *testing.B) *sweep.Spec {
	b.Helper()
	spec, ok := sweep.Builtin("bench")
	if !ok {
		b.Fatal("built-in bench sweep missing")
	}
	return spec
}

// BenchmarkSweepParallel compares sequential against parallel
// execution of the same sweep grid; the aggregates are bit-identical
// either way, only the wall time differs. On a single-core host the
// two variants tie (pool overhead is noise); the speedup scales with
// GOMAXPROCS.
func BenchmarkSweepParallel(b *testing.B) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	for _, workers := range []int{1, parallel} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			spec := sweepBenchSpec(b)
			for i := 0; i < b.N; i++ {
				res, err := sweep.Exec(spec, sweep.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed() > 0 {
					b.Fatalf("%d failed runs", res.Failed())
				}
			}
		})
	}
}
