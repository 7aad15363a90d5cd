// The fleet run loop. A fleet run is one giant sweep cell, so
// sweep-level parallelism cannot touch it; this loop shards the run
// itself across cores and stays bit-identical at any worker count. It
// builds on host isolation: every host owns a private engine, topology,
// cache model, policy instance and RNG fork, and hosts interact only
// through the central (time, seq)-ordered timeline.
//
// All events sharing the next fleet timestamp t form one epoch. First
// the epoch barrier advances every host's private engine to t on up to
// workers goroutines; then the epoch's events, and any same-time events
// they schedule, fire single-threaded in (time, seq) order and find
// every host already at t. Between fleet events nothing outside a host
// can observe or perturb its engine, and the barrier is the only place
// host engines run, so the worker count decides only which goroutine
// runs each host: cross-host effects, every central RNG draw and all
// artifacts, fault schedules included, are byte-identical at any count.
package fleet

import (
	"runtime"

	"aqlsched/internal/par"
	"aqlsched/internal/sim"
)

// resolveWorkers picks the effective shard-worker count for one run:
// the Options override, else GOMAXPROCS; never more than one worker per
// host.
func resolveWorkers(opt, hosts int) int {
	w := opt
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, hosts))
}

// run drives the central timeline to the end of the measurement window
// one epoch at a time, then drains every host to it.
func (f *Fleet) run(workers int) {
	for {
		t, ok := f.timeline.NextAt()
		if !ok || t > f.end {
			break
		}
		f.advanceAll(t, workers)
		// Fire the epoch's events in (time, seq) order. Handlers may
		// schedule same-time events (a retry, a degradation end); those
		// carry higher sequence numbers and fire here too.
		f.timeline.RunUntil(t)
	}
	f.advanceAll(f.end, workers)
}

// advanceAll is the epoch barrier: it advances every host's private
// engine to t on up to workers par.Do goroutines. A host panic does not
// abort the barrier; once every host is done, par.Do re-raises the
// lowest panicking host's panic (its job index is the host index).
func (f *Fleet) advanceAll(t sim.Time, workers int) {
	par.Do(len(f.Hosts), workers, func(i int) { f.Hosts[i].advance(t) })
}
