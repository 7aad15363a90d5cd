package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDoRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// whether the workers are fewer than, defaulted to, or more than the
// indexes.
func TestDoRunsEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 3, 0, n + 5} {
		calls := make([]atomic.Int32, n)
		Do(n, workers, func(i int) { calls[i].Add(1) })
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestDoZeroIndexesNeverCalls(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		Do(0, workers, func(i int) { t.Errorf("workers=%d: f(%d) called for n=0", workers, i) })
	}
}

// TestDoPanicPropagation: panics in indexes 1 and 3 do not stop the
// other indexes, and the re-panic on the caller's goroutine names the
// lowest panicking index and carries its value, whichever worker
// reached it first.
func TestDoPanicPropagation(t *testing.T) {
	const n = 6
	var ran [n]atomic.Bool
	got := func() (r any) {
		defer func() { r = recover() }()
		Do(n, 3, func(i int) {
			ran[i].Store(true)
			if i == 1 || i == 3 {
				panic(fmt.Sprintf("boom-%d", i))
			}
		})
		return nil
	}()
	msg, ok := got.(string)
	if !ok {
		t.Fatalf("Do re-panicked with %T (%v), want the formatted string", got, got)
	}
	if !strings.Contains(msg, "job 1 panicked") || !strings.Contains(msg, "boom-1") {
		t.Errorf("re-panic should name job 1, the lowest panicking index, got:\n%s", msg)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("index %d never ran", i)
		}
	}
}
