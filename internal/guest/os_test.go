package guest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"aqlsched/internal/cache"
	"aqlsched/internal/sim"
)

// mockWaker records wake/kick calls, per kind and in call order.
type mockWaker struct {
	wakes   []int
	kicks   []int
	calls   []string
	lockOps int
}

func (w *mockWaker) WakeVCPU(cpu int, now sim.Time) {
	w.wakes = append(w.wakes, cpu)
	w.calls = append(w.calls, fmt.Sprintf("wake%d", cpu))
}

func (w *mockWaker) KickVCPU(cpu int, now sim.Time) {
	w.kicks = append(w.kicks, cpu)
	w.calls = append(w.calls, fmt.Sprintf("kick%d", cpu))
}

func (w *mockWaker) CountLockOp(cpu int) { w.lockOps++ }

// seqProgram plays a fixed list of actions, then exits.
type seqProgram struct {
	actions []Action
	pos     int
}

func (p *seqProgram) Next(t *Thread, now sim.Time) Action {
	if p.pos >= len(p.actions) {
		return Exit()
	}
	a := p.actions[p.pos]
	p.pos++
	return a
}

// testProf is the profile of every compute action in these tests.
var testProf = cache.Profile{WSS: 16 * 1024}

func computeAction(d sim.Time) Action {
	return Compute(d, &testProf)
}

func TestSpawnComputeThreadBecomesReady(t *testing.T) {
	e := sim.NewEngine()
	w := &mockWaker{}
	os := NewOS("vm", 2, e, w)
	th := os.Spawn("worker", 1, false, &seqProgram{actions: []Action{computeAction(100)}}, 0)
	if th.State() != Ready {
		t.Fatalf("state %v, want ready", th.State())
	}
	if !os.HasRunnable(1) {
		t.Error("vCPU 1 has no runnable work")
	}
	if os.HasRunnable(0) {
		t.Error("vCPU 0 should be idle")
	}
	if len(w.wakes) == 0 || w.wakes[0] != 1 {
		t.Errorf("wakes = %v, want [1]", w.wakes)
	}
	step := os.NextStep(1, 0)
	if step.Kind != StepRun || step.Thread != th || step.Work != 100 {
		t.Errorf("step = %+v", step)
	}
}

func TestBurstDoneAdvancesThroughActions(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	th := os.Spawn("w", 0, false, &seqProgram{actions: []Action{computeAction(100), computeAction(50)}}, 0)

	os.BurstDone(th, 100, 10)
	if th.Remaining() != 50 {
		t.Errorf("after first action, remaining = %v, want 50 (second action)", th.Remaining())
	}
	os.BurstDone(th, 50, 20)
	if th.State() != Dead {
		t.Errorf("state %v, want dead after program end", th.State())
	}
	if os.HasRunnable(0) {
		t.Error("dead thread still runnable")
	}
}

func TestPartialBurstKeepsRemaining(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	th := os.Spawn("w", 0, false, &seqProgram{actions: []Action{computeAction(100)}}, 0)
	os.BurstDone(th, 30, 5)
	if th.Remaining() != 70 {
		t.Errorf("remaining = %v, want 70", th.Remaining())
	}
	if th.State() != Ready {
		t.Errorf("state %v, want ready", th.State())
	}
}

func TestGuestRoundRobinRotation(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	a := os.Spawn("a", 0, false, &seqProgram{actions: []Action{computeAction(100 * sim.Millisecond)}}, 0)
	b := os.Spawn("b", 0, false, &seqProgram{actions: []Action{computeAction(100 * sim.Millisecond)}}, 0)

	s1 := os.NextStep(0, 0)
	if s1.Thread != a {
		t.Fatalf("first step thread %s, want a", s1.Thread.Name)
	}
	// With two ready threads the step is clipped to the guest slice.
	if s1.Work != GuestSlice {
		t.Errorf("work %v, want guest slice %v", s1.Work, GuestSlice)
	}
	os.BurstDone(a, GuestSlice, sim.Time(GuestSlice))
	s2 := os.NextStep(0, sim.Time(GuestSlice))
	if s2.Thread != b {
		t.Errorf("after rotation, step thread %s, want b", s2.Thread.Name)
	}
}

func TestIRQThreadPreemptsNormal(t *testing.T) {
	e := sim.NewEngine()
	w := &mockWaker{}
	os := NewOS("vm", 1, e, w)
	os.Spawn("cgi", 0, false, &seqProgram{actions: []Action{computeAction(sim.Second)}}, 0)
	h := os.Spawn("handler", 0, true, &seqProgram{actions: []Action{
		WaitIO(7),
		computeAction(10),
	}}, 0)
	if h.State() != BlockedIO {
		t.Fatalf("handler state %v, want blocked-io", h.State())
	}
	// Background thread runs first.
	if s := os.NextStep(0, 0); s.Thread.Name != "cgi" {
		t.Fatalf("step thread %s, want cgi", s.Thread.Name)
	}
	// IO arrives: handler must be next and the vCPU must be kicked.
	cpu := os.DeliverIO(7, 100)
	if cpu != 0 {
		t.Errorf("DeliverIO returned cpu %d, want 0", cpu)
	}
	if len(w.kicks) == 0 {
		t.Error("IRQ enqueue did not kick the vCPU")
	}
	if s := os.NextStep(0, 100); s.Thread != h {
		t.Errorf("step thread %v, want handler", s.Thread)
	}
}

func TestDeliverIOWithNoWaiterQueues(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	os.DeliverIO(3, 0) // no waiter yet
	h := os.Spawn("handler", 0, true, &seqProgram{actions: []Action{
		WaitIO(3),
		computeAction(10),
		WaitIO(3),
		computeAction(10),
	}}, 0)
	// The queued event lets the first wait complete immediately.
	if h.State() != Ready {
		t.Fatalf("handler state %v, want ready (event was queued)", h.State())
	}
	os.BurstDone(h, 10, 5)
	if h.State() != BlockedIO {
		t.Errorf("handler state %v, want blocked on second wait", h.State())
	}
}

func TestSleepWakesViaEngine(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	th := os.Spawn("s", 0, false, &seqProgram{actions: []Action{
		Sleep(500),
		computeAction(10),
	}}, 0)
	if th.State() != Sleeping {
		t.Fatalf("state %v, want sleeping", th.State())
	}
	e.RunUntil(499)
	if th.State() != Sleeping {
		t.Error("woke too early")
	}
	e.RunUntil(500)
	if th.State() != Ready {
		t.Errorf("state %v, want ready after sleep", th.State())
	}
}

func TestSpinLockUncontended(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	l := NewSpinLock("l")
	th := os.Spawn("w", 0, false, &seqProgram{actions: []Action{
		Acquire(l),
		computeAction(10),
		Release(l),
	}}, 0)
	if l.Holder() != th {
		t.Fatal("fast-path acquire failed")
	}
	os.BurstDone(th, 10, 25)
	if l.Holder() != nil {
		t.Error("lock not released")
	}
	holds, mean, _ := l.HoldStats()
	if holds != 1 || mean != 25 {
		t.Errorf("holds=%d mean=%v, want 1, 25", holds, mean)
	}
}

func TestSpinLockContentionAndGrant(t *testing.T) {
	e := sim.NewEngine()
	w := &mockWaker{}
	os := NewOS("vm", 2, e, w)
	l := NewSpinLock("l")
	a := os.Spawn("a", 0, false, &seqProgram{actions: []Action{
		Acquire(l),
		computeAction(100),
		Release(l),
	}}, 0)
	b := os.Spawn("b", 1, false, &seqProgram{actions: []Action{
		Acquire(l),
		computeAction(10),
		Release(l),
	}}, 0)
	if b.State() != Spinning {
		t.Fatalf("b state %v, want spinning", b.State())
	}
	if s := os.NextStep(1, 0); s.Kind != StepSpin {
		t.Fatalf("vCPU1 step kind %v, want spin", s.Kind)
	}
	// a finishes its critical section and releases: b (actively
	// spinning on its pCPU) is granted.
	b.OnCPU = true
	os.BurstDone(a, 100, 100)
	if l.Holder() != b {
		t.Fatalf("lock holder %v, want b", l.Holder())
	}
	if b.State() != Ready {
		t.Errorf("b state %v, want ready after grant", b.State())
	}
	// The grant must kick vCPU 1 so it stops spinning immediately.
	found := false
	for _, k := range w.kicks {
		if k == 1 {
			found = true
		}
	}
	if !found {
		t.Error("grant did not kick the spinner's vCPU")
	}
	// b runs its critical section and releases.
	os.BurstDone(b, 10, 150)
	if l.Holder() != nil {
		t.Error("lock still held at end")
	}
	holds, _, _ := l.HoldStats()
	if holds != 2 {
		t.Errorf("holds = %d, want 2", holds)
	}
}

func TestSpinLockFIFOOrder(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 4, e, &mockWaker{})
	l := NewSpinLock("l")
	mkProg := func() Program {
		return &seqProgram{actions: []Action{
			Acquire(l),
			computeAction(10),
			Release(l),
		}}
	}
	a := os.Spawn("a", 0, false, mkProg(), 0)
	b := os.Spawn("b", 1, false, mkProg(), 0)
	c := os.Spawn("c", 2, false, mkProg(), 0)
	if l.Holder() != a || l.Waiters() != 2 {
		t.Fatalf("holder %v waiters %d", l.Holder(), l.Waiters())
	}
	// Both waiters actively spinning: handoff follows ticket order.
	b.OnCPU = true
	c.OnCPU = true
	os.BurstDone(a, 10, 10)
	if l.Holder() != b {
		t.Errorf("ticket order violated: holder %v, want b", l.Holder())
	}
	b.OnCPU = false
	os.BurstDone(b, 10, 20)
	if l.Holder() != c {
		t.Errorf("ticket order violated: holder %v, want c", l.Holder())
	}
}

func TestReleaseWithDescheduledWaitersLeavesLockFree(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 3, e, &mockWaker{})
	l := NewSpinLock("l")
	mkProg := func() Program {
		return &seqProgram{actions: []Action{
			Acquire(l),
			computeAction(10),
			Release(l),
		}}
	}
	a := os.Spawn("a", 0, false, mkProg(), 0)
	b := os.Spawn("b", 1, false, mkProg(), 0)
	// b is descheduled (OnCPU false): releasing must NOT reserve the
	// lock for it (preemptable-ticket stealing semantics).
	os.BurstDone(a, 10, 10)
	if l.Holder() != nil {
		t.Fatalf("lock reserved for descheduled waiter %v", l.Holder())
	}
	if l.Waiters() != 1 {
		t.Fatalf("waiter list %d, want 1 (b still queued)", l.Waiters())
	}
	// When b's vCPU is dispatched, the re-poll acquires.
	if s := os.NextStep(1, 20); s.Kind != StepRun || s.Thread != b {
		t.Fatalf("after poll, step = %+v, want b's critical section", s)
	}
	if l.Holder() != b {
		t.Errorf("poll did not acquire: holder %v", l.Holder())
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	l := NewSpinLock("l")
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	os.Spawn("bad", 0, false, &seqProgram{actions: []Action{
		Release(l),
	}}, 0)
}

func TestJobsCounter(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	prog := ProgramFunc(func(t *Thread, now sim.Time) Action {
		t.Jobs++
		return Compute(10, &testProf)
	})
	th := os.Spawn("loop", 0, false, prog, 0)
	for i := 0; i < 5; i++ {
		os.BurstDone(th, 10, sim.Time(10*(i+1)))
	}
	if th.Jobs != 6 { // one at spawn + five completions
		t.Errorf("jobs = %d, want 6", th.Jobs)
	}
}

func TestInfiniteInterpretPanics(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	defer func() {
		if recover() == nil {
			t.Error("zero-work forever program did not panic")
		}
	}()
	os.Spawn("bad", 0, false, ProgramFunc(func(*Thread, sim.Time) Action {
		return Compute(0, nil)
	}), 0)
}

func TestComputeWithoutProfilePanics(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	defer func() {
		if r := recover(); r != "guest: ActCompute without profile" {
			t.Errorf("recover() = %v, want the missing-profile panic", r)
		}
	}()
	os.Spawn("bad", 0, false, &seqProgram{actions: []Action{Compute(10, nil)}}, 0)
}

func TestNextStepIdle(t *testing.T) {
	e := sim.NewEngine()
	os := NewOS("vm", 1, e, &mockWaker{})
	if s := os.NextStep(0, 0); s.Kind != StepIdle {
		t.Errorf("empty vCPU step %v, want idle", s.Kind)
	}
}

// queueOrder renders a vCPU's IRQ and normal ready queues.
func queueOrder(os *OS, cpu int) string {
	names := func(q []*Thread) string {
		var b strings.Builder
		for i, t := range q {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t.Name)
		}
		return b.String()
	}
	c := &os.cpus[cpu]
	return fmt.Sprintf("irq[%s] ready[%s]", names(c.irqReady), names(c.ready))
}

// TestRunQueueOrderAfterBurstDone pins where a thread lands in its
// vCPU's run queue after each completed burst, and the exact wake and
// kick calls the guest makes: three normal threads and one IRQ handler
// share vCPU 0, and every step names the thread NextStep serves next.
func TestRunQueueOrderAfterBurstDone(t *testing.T) {
	const ms = sim.Millisecond
	e := sim.NewEngine()
	w := &mockWaker{}
	os := NewOS("vm", 1, e, w)
	l := NewSpinLock("l")
	a := os.Spawn("A", 0, false, &seqProgram{actions: []Action{
		computeAction(1 * ms), computeAction(2 * ms), computeAction(1 * ms),
		Acquire(l),
	}}, 0)
	b := os.Spawn("B", 0, false, &seqProgram{actions: []Action{
		Acquire(l), computeAction(10 * ms),
	}}, 0)
	c := os.Spawn("C", 0, false, &seqProgram{actions: []Action{
		computeAction(1 * ms), Sleep(1 * ms), computeAction(1 * ms),
		Exit(),
	}}, 0)
	h := os.Spawn("H", 0, true, &seqProgram{actions: []Action{
		WaitIO(7), computeAction(100), computeAction(100),
		WaitIO(7),
	}}, 0)
	if got := strings.Join(w.calls, " "); got != "wake0 wake0 wake0" {
		t.Fatalf("spawn calls %q, want three wakes", got)
	}
	if got := queueOrder(os, 0); got != "irq[] ready[A B C]" {
		t.Fatalf("after spawn: queues %s", got)
	}

	steps := []struct {
		name   string
		do     func()
		queues string
		calls  string
		serves *Thread
		work   sim.Time
	}{
		{"continuing inside the slice keeps the head",
			func() { os.BurstDone(a, 1*ms, 1*ms) },
			"irq[] ready[A B C]", "wake0", a, 2 * ms},
		{"finishing with the slice used up rotates",
			func() { os.BurstDone(a, 2*ms, 3*ms) },
			"irq[] ready[B C A]", "wake0", b, GuestSlice},
		{"an unfinished action at the slice end rotates",
			func() { os.BurstDone(b, GuestSlice, 6*ms) },
			"irq[] ready[C A B]", "", c, 1 * ms},
		{"sleep leaves the queue",
			func() { os.BurstDone(c, 1*ms, 7*ms) },
			"irq[] ready[A B]", "", a, 1 * ms},
		{"an IO event queues the handler and kicks",
			func() { os.DeliverIO(7, 7*ms) },
			"irq[H] ready[A B]", "wake0 kick0", h, 100},
		{"a continuing IRQ thread goes to the IRQ tail",
			func() { os.BurstDone(h, 100, 7*ms+100) },
			"irq[H] ready[A B]", "wake0 kick0", h, 100},
		{"IO wait leaves the queue",
			func() { os.BurstDone(h, 100, 7*ms+200) },
			"irq[] ready[A B]", "", a, 1 * ms},
		{"a thread woken from sleep joins the tail",
			func() { e.RunUntil(8 * ms) },
			"irq[] ready[A B C]", "wake0", a, 1 * ms},
		{"a contended acquire goes to the tail as a spinner",
			func() { os.BurstDone(a, 1*ms, 9*ms) },
			"irq[] ready[B C A]", "wake0", b, GuestSlice},
		{"the holder rotates at its slice end",
			func() { os.BurstDone(b, GuestSlice, 12*ms) },
			"irq[] ready[C A B]", "", c, 1 * ms},
		{"an exiting thread leaves the queue",
			func() { os.BurstDone(c, 1*ms, 13*ms) },
			"irq[] ready[A B]", "", a, 0},
	}
	for _, st := range steps {
		w.calls = nil
		st.do()
		if got := queueOrder(os, 0); got != st.queues {
			t.Fatalf("%s: queues %s, want %s", st.name, got, st.queues)
		}
		if got := strings.Join(w.calls, " "); got != st.calls {
			t.Fatalf("%s: waker calls %q, want %q", st.name, got, st.calls)
		}
		s := os.NextStep(0, e.Now())
		if s.Thread != st.serves || s.Work != st.work {
			t.Fatalf("%s: NextStep serves %v for %v, want %s for %v", st.name, s.Thread, s.Work, st.serves.Name, st.work)
		}
	}
	if a.State() != Spinning || c.State() != Dead || h.State() != BlockedIO {
		t.Errorf("final states A=%v C=%v H=%v, want spinning, dead, blocked-io", a.State(), c.State(), h.State())
	}
}

// TestActionFitsInRegisters pins Action at four fields and four words:
// the compiler keeps a struct that small in registers across the
// Program.Next interface call, and spills a larger one to the stack and
// copies it back on every action.
func TestActionFitsInRegisters(t *testing.T) {
	if n := reflect.TypeOf(Action{}).NumField(); n > 4 {
		t.Errorf("Action has %d fields, want at most 4", n)
	}
	if size, word := unsafe.Sizeof(Action{}), unsafe.Sizeof(uintptr(0)); size > 4*word {
		t.Errorf("Action is %d bytes, want at most 4 words (%d bytes)", size, 4*word)
	}
}
