// Package par runs a fixed index space on a bounded set of goroutines.
// It is the simulator's one worker pool: the sweep engine's run matrix,
// the fleet epoch barrier, the Fig. 2 calibration grid and the Table 3
// census all run on it. Callers stay deterministic by writing each
// index's result into its own preallocated slot and folding the slots
// in index order afterwards, never in completion order.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Do calls f(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 means GOMAXPROCS; never more goroutines than n). The
// goroutines claim indexes through an atomic cursor, so skewed
// per-index work self-balances instead of serializing behind a static
// partition. A panic in f is captured and the remaining indexes still
// run; once all have finished, Do re-raises the panic of the lowest
// panicking index on the caller's goroutine, so the surfaced failure
// does not depend on goroutine scheduling.
func Do(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(0, min(workers, n))
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed = -1 // lowest panicking index, -1 while none has
		cause  any
		stack  []byte
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if failed < 0 || i < failed {
					failed, cause, stack = i, r, debug.Stack()
				}
				mu.Unlock()
			}
		}()
		f(i)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if failed >= 0 {
		panic(fmt.Sprintf("par: job %d panicked: %v\n%s", failed, cause, stack))
	}
}
