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
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

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
// engine to t on workers goroutines, which claim hosts through an
// atomic cursor so skewed per-host work self-balances instead of
// serializing behind a static partition. A host panic is captured — the
// remaining hosts still advance, so the barrier always completes — and
// re-raised once every worker is done; when several hosts panic, the
// lowest host wins, so the surfaced failure does not depend on
// goroutine scheduling.
func (f *Fleet) advanceAll(t sim.Time, workers int) {
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed = -1 // lowest panicking host, -1 while none has
		cause  any
		stack  []byte
	)
	advance := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if failed < 0 || i < failed {
					failed, cause, stack = i, r, debug.Stack()
				}
				mu.Unlock()
			}
		}()
		f.Hosts[i].advance(t)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(f.Hosts) {
					return
				}
				advance(i)
			}
		}()
	}
	wg.Wait()
	if failed >= 0 {
		panic(fmt.Sprintf("fleet: parallel host advance panicked (host %d): %v\n%s", failed, cause, stack))
	}
}
