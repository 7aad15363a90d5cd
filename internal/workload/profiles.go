package workload

import (
	"fmt"

	"aqlsched/internal/cache"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
)

// The reference benchmark suite as synthetic profiles. Working-set
// sizes, LLC traffic, lock behaviour and IO rates are chosen so that
// each application lands in the type the paper's vTRS detected for it
// (Table 3). Absolute speeds are not calibrated against SPEC/PARSEC —
// only the type-relevant behaviour matters to the scheduler.
//
// SPEC CPU2006 (paper Table 3):
//
//	LLCF:  astar, xalancbmk ("Xatanbmck" in the paper), bzip2, gcc,
//	       omnetpp ("omntp")
//	LoLCF: hmmer, gobmk, perlbench, sjeng, h264ref
//	LLCO:  mcf, libquantum
//
// PARSEC: all ConSpin (bodytrack, blackscholes, canneal, dedup,
// facesim, ferret, fluidanimate, freqmine, raytrace, streamcluster,
// vips, x264).
//
// SPECweb2009 and SPECmail2009: IOInt.

// cpuSpec builds a KindCPU AppSpec.
func cpuSpec(name string, expected vcputype.Type, prof cache.Profile) AppSpec {
	return AppSpec{
		Name:     name,
		Expected: expected,
		Kind:     KindCPU,
		Prof:     prof,
		JobWork:  10 * sim.Millisecond,
		Steady:   true,
	}
}

// lockSpec builds a KindLock AppSpec (4 threads, the paper's kernbench
// configuration).
func lockSpec(name string, gap, hold sim.Time, prof cache.Profile) AppSpec {
	return AppSpec{
		Name:     name,
		Expected: vcputype.ConSpin,
		Kind:     KindLock,
		Prof:     prof,
		Threads:  4,
		Gap:      gap,
		Hold:     hold,
	}
}

// SPECWeb2009 is the internet-service benchmark: open-loop requests plus
// CGI-style dynamic content generation (heterogeneous, hence IOInt but
// never boost-eligible).
func SPECWeb2009() AppSpec {
	return AppSpec{
		Name:     "SPECweb2009",
		Expected: vcputype.IOInt,
		Kind:     KindWeb,
		Prof:     cache.Profile{WSS: 160 * hw.KB, RefRate: 0.3},
		Rate:     400,
		Service:  300 * sim.Microsecond,
		CGI:      cache.Profile{WSS: 200 * hw.KB, RefRate: 0.4},
		JobWork:  4 * sim.Millisecond,
	}
}

// SPECMail2009 is the corporate mail benchmark: a closed-loop client
// population and a mail-store indexing background task.
func SPECMail2009() AppSpec {
	return AppSpec{
		Name:     "SPECmail2009",
		Expected: vcputype.IOInt,
		Kind:     KindMail,
		Prof:     cache.Profile{WSS: 192 * hw.KB, RefRate: 0.3},
		Clients:  64,
		Think:    30 * sim.Millisecond,
		Service:  350 * sim.Microsecond,
		CGI:      cache.Profile{WSS: 160 * hw.KB, RefRate: 0.3},
		JobWork:  4 * sim.Millisecond,
	}
}

// SPECCPU2006 lists the SPEC CPU2006 programs the paper experiments
// with, in its Fig. 5 order.
func SPECCPU2006() []AppSpec {
	return []AppSpec{
		cpuSpec("hmmer", vcputype.LoLCF, cache.Profile{WSS: 120 * hw.KB, RefRate: 0.2}),
		cpuSpec("sjeng", vcputype.LoLCF, cache.Profile{WSS: 160 * hw.KB, RefRate: 0.25}),
		cpuSpec("bzip2", vcputype.LLCF, cache.Profile{WSS: 1200 * hw.KB, RefRate: 12, MissFloor: 0.01, ReuseFactor: 3}),
		cpuSpec("h264ref", vcputype.LoLCF, cache.Profile{WSS: 220 * hw.KB, RefRate: 0.5}),
		cpuSpec("mcf", vcputype.LLCO, cache.Profile{WSS: 20 * hw.MB, RefRate: 25, Streaming: true, StreamMissRatio: 0.85}),
		cpuSpec("omnetpp", vcputype.LLCF, cache.Profile{WSS: 1400 * hw.KB, RefRate: 13, MissFloor: 0.02, ReuseFactor: 3}),
		cpuSpec("astar", vcputype.LLCF, cache.Profile{WSS: 1 * hw.MB, RefRate: 10, MissFloor: 0.01, ReuseFactor: 3}),
		cpuSpec("libquantum", vcputype.LLCO, cache.Profile{WSS: 32 * hw.MB, RefRate: 35, Streaming: true, StreamMissRatio: 0.95}),
		cpuSpec("gobmk", vcputype.LoLCF, cache.Profile{WSS: 180 * hw.KB, RefRate: 0.3}),
		cpuSpec("perlbench", vcputype.LoLCF, cache.Profile{WSS: 200 * hw.KB, RefRate: 0.4}),
		cpuSpec("gcc", vcputype.LLCF, cache.Profile{WSS: 1500 * hw.KB, RefRate: 11, MissFloor: 0.02, ReuseFactor: 3}),
		cpuSpec("xalancbmk", vcputype.LLCF, cache.Profile{WSS: 1300 * hw.KB, RefRate: 12, MissFloor: 0.015, ReuseFactor: 3}),
	}
}

// PARSEC lists the PARSEC programs the paper experiments with, in its
// Fig. 5 order. All synchronize through spin-locks (ConSpin).
func PARSEC() []AppSpec {
	smallWS := cache.Profile{WSS: 192 * hw.KB, RefRate: 0.4}
	medWS := cache.Profile{WSS: 1 * hw.MB, RefRate: 3, MissFloor: 0.01, ReuseFactor: 5}
	return []AppSpec{
		lockSpec("bodytrack", 150*sim.Microsecond, 10*sim.Microsecond, smallWS),
		lockSpec("blackscholes", 400*sim.Microsecond, 6*sim.Microsecond, smallWS),
		lockSpec("canneal", 250*sim.Microsecond, 12*sim.Microsecond, medWS),
		lockSpec("dedup", 120*sim.Microsecond, 8*sim.Microsecond, smallWS),
		lockSpec("facesim", 200*sim.Microsecond, 15*sim.Microsecond, medWS),
		lockSpec("ferret", 180*sim.Microsecond, 10*sim.Microsecond, smallWS),
		lockSpec("fluidanimate", 250*sim.Microsecond, 12*sim.Microsecond, smallWS),
		lockSpec("freqmine", 300*sim.Microsecond, 10*sim.Microsecond, medWS),
		lockSpec("raytrace", 350*sim.Microsecond, 8*sim.Microsecond, smallWS),
		lockSpec("streamcluster", 200*sim.Microsecond, 14*sim.Microsecond, medWS),
		lockSpec("vips", 250*sim.Microsecond, 9*sim.Microsecond, smallWS),
		lockSpec("x264", 220*sim.Microsecond, 11*sim.Microsecond, smallWS),
	}
}

// Suite returns every reference application: SPECweb2009, SPECmail2009,
// SPEC CPU2006 and PARSEC (the paper's full evaluation set).
func Suite() []AppSpec {
	var out []AppSpec
	out = append(out, SPECWeb2009(), SPECMail2009())
	out = append(out, SPECCPU2006()...)
	out = append(out, PARSEC()...)
	return out
}

// ByName finds an application spec by name in the full suite, for
// callers with statically known names: it panics on an unknown one.
// User-supplied names (spec files) resolve through
// catalog.WorkloadByName, which reports a clean error instead.
func ByName(name string) AppSpec {
	for _, s := range Suite() {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("workload: unknown application %q", name))
}
