package guest

import (
	"fmt"

	"aqlsched/internal/cache"
	"aqlsched/internal/sim"
)

// Waker is what the guest needs from the hypervisor: the ability to wake
// a blocked vCPU and to kick a running one so it re-evaluates its
// current burst (e.g. a spinner whose lock was just granted, or an IRQ
// arriving while a background thread runs).
type Waker interface {
	// WakeVCPU makes the domain's cpu-th vCPU runnable if it was idle.
	WakeVCPU(cpu int, now sim.Time)
	// KickVCPU asks the hypervisor to end the cpu-th vCPU's current
	// burst at `now` and call NextStep again (no-op if not running).
	KickVCPU(cpu int, now sim.Time)
	// CountLockOp records one spin-lock acquisition by the cpu-th vCPU
	// (the paper's hypercall-based ConSpin monitor).
	CountLockOp(cpu int)
}

// StepKind enumerates what a vCPU should do when dispatched.
type StepKind int

const (
	// StepRun: execute Thread's compute work (up to Work, guest slice
	// bounded) with profile Prof.
	StepRun StepKind = iota
	// StepSpin: busy-wait; ends when the hypervisor slice ends or the
	// guest kicks the vCPU (lock granted).
	StepSpin
	// StepIdle: nothing runnable; the vCPU should block.
	StepIdle
)

// Step tells the hypervisor what a vCPU executes next.
type Step struct {
	Kind   StepKind
	Work   sim.Time
	Prof   *cache.Profile
	Thread *Thread
}

// cpuState is the guest-side state of one vCPU.
type cpuState struct {
	irqReady []*Thread // IRQ-class ready queue (FIFO)
	ready    []*Thread // normal ready queue (round-robin)
}

// OS is the guest kernel of one domain.
type OS struct {
	Name   string
	engine *sim.Engine
	waker  Waker
	cpus   []cpuState
	// ioWaiters maps a port to the thread blocked on it (at most one
	// waiter per port in this model).
	ioWaiters map[int]*Thread
	// pending counts events delivered to a port with no waiter; the
	// next ActWaitIO consumes them without blocking.
	pending map[int]int
	// portOwner remembers which vCPU index a port's handler is bound
	// to, for event attribution before/between waits.
	portOwner map[int]int

	threads []*Thread
	dead    bool
}

// NewOS builds a guest kernel with ncpu vCPUs.
func NewOS(name string, ncpu int, engine *sim.Engine, waker Waker) *OS {
	if ncpu <= 0 {
		panic("guest: OS needs at least one vCPU")
	}
	return &OS{
		Name:      name,
		engine:    engine,
		waker:     waker,
		cpus:      make([]cpuState, ncpu),
		ioWaiters: make(map[int]*Thread),
		pending:   make(map[int]int),
		portOwner: make(map[int]int),
	}
}

// Threads lists all threads ever spawned (including dead ones).
func (os *OS) Threads() []*Thread { return os.threads }

// Spawn creates a thread bound to the given vCPU and starts it at time
// now. IRQ-class threads preempt normal threads on their vCPU. On a
// shut-down OS (a jittered spawn outliving its VM's teardown) the
// thread is created dead and never scheduled.
func (os *OS) Spawn(name string, cpu int, irq bool, prog Program, now sim.Time) *Thread {
	if cpu < 0 || cpu >= len(os.cpus) {
		panic(fmt.Sprintf("guest: Spawn on vCPU %d of %d", cpu, len(os.cpus)))
	}
	t := &Thread{Name: name, OS: os, CPU: cpu, IRQ: irq, prog: prog, state: Ready}
	os.threads = append(os.threads, t)
	if os.dead {
		t.state = Dead
		return t
	}
	os.advance(t, now)
	return t
}

// Shutdown kills the guest (VM teardown): every thread dies, queues
// and waiters are cleared, pending sleep timers are disarmed, and any
// later event delivery or spawn becomes a no-op.
func (os *OS) Shutdown() {
	if os.dead {
		return
	}
	os.dead = true
	for _, t := range os.threads {
		if t.wake != nil {
			t.wake.Stop()
		}
		t.state = Dead
		t.queued = false
	}
	for i := range os.cpus {
		os.cpus[i] = cpuState{}
	}
	clear(os.ioWaiters)
	clear(os.pending)
}

// enqueue puts a ready thread on its vCPU's queue and pokes the
// hypervisor. A thread continuing within its guest slice (preferHead)
// keeps the head of the queue.
//
// BurstDone leaves a thread queued while its program picks the next
// action. Such a thread stays in place when it is the normal queue's
// head and keeps its slice; otherwise it is dequeued and re-queued like
// any other. Leaving it at the head is exact: while its vCPU has no
// burst in flight no other thread there is head-inserted, and tail
// appends commute with it staying first.
func (os *OS) enqueue(t *Thread, now sim.Time) {
	if os.dead || t.state != Ready {
		return
	}
	c := &os.cpus[t.CPU]
	if t.queued && (t.IRQ || !t.preferHead || c.ready[0] != t) {
		os.dequeue(t)
	}
	switch {
	case t.queued: // stays at the head
	case t.IRQ:
		c.irqReady = append(c.irqReady, t)
	case t.preferHead:
		// Head insert in place: this must not allocate.
		c.ready = append(c.ready, nil)
		copy(c.ready[1:], c.ready)
		c.ready[0] = t
	default:
		c.ready = append(c.ready, t)
	}
	t.preferHead = false
	t.queued = true
	os.waker.WakeVCPU(t.CPU, now)
	if t.IRQ {
		// Handler work should preempt a running background burst.
		os.waker.KickVCPU(t.CPU, now)
	}
}

// dequeue removes a thread from its queue (when it blocks or runs).
func (os *OS) dequeue(t *Thread) {
	if !t.queued {
		return
	}
	c := &os.cpus[t.CPU]
	q := &c.ready
	if t.IRQ {
		q = &c.irqReady
	}
	for i, x := range *q {
		if x == t {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	t.queued = false
}

// advance interprets actions for t until it reaches a state that takes
// time (compute, spin, block) or exits.
func (os *OS) advance(t *Thread, now sim.Time) {
	for iter := 0; ; iter++ {
		if iter > maxInterpret {
			panic(fmt.Sprintf("guest: thread %s interprets forever (program bug)", t.Name))
		}
		a := t.prog.Next(t, now)
		switch a.Kind {
		case ActCompute:
			if a.Arg <= 0 {
				continue // zero work: fetch next action
			}
			prof, _ := a.Obj.(*cache.Profile)
			if prof == nil {
				panic("guest: ActCompute without profile")
			}
			t.prof = prof
			t.remaining = a.Arg
			t.state = Ready
			os.enqueue(t, now)
			return
		case ActAcquire:
			lock, _ := a.Obj.(*SpinLock)
			if lock == nil {
				panic("guest: ActAcquire without lock")
			}
			if lock.tryAcquire(t, now) {
				continue // got it immediately
			}
			// Contended: spin. The thread stays runnable and burns CPU.
			t.spinLock = lock
			t.state = Spinning
			os.enqueue2Spin(t, now)
			return
		case ActRelease:
			lock, _ := a.Obj.(*SpinLock)
			if lock == nil {
				panic("guest: ActRelease without lock")
			}
			lock.release(t, now)
			continue
		case ActWaitIO:
			port := int(a.Arg)
			os.portOwner[port] = t.CPU
			if os.pending[port] > 0 {
				os.pending[port]--
				continue // event already queued: consume and go on
			}
			if prev, ok := os.ioWaiters[port]; ok && prev != t {
				panic(fmt.Sprintf("guest: two threads wait on port %d", port))
			}
			os.ioWaiters[port] = t
			t.state = BlockedIO
			t.sliceUsed = 0
			t.preferHead = false
			os.dequeue(t)
			return
		case ActSleep:
			t.state = Sleeping
			t.sliceUsed = 0
			t.preferHead = false
			os.dequeue(t)
			if a.Arg < 0 {
				panic(fmt.Sprintf("guest: negative sleep %v", a.Arg))
			}
			if t.wake == nil {
				// Bind the wake-up callback once per thread; later sleeps
				// re-arm it without allocating. A thread has at most one
				// pending sleep, so rearm semantics are safe.
				tt := t
				t.wake = os.engine.NewTimer(func(wake sim.Time) {
					if tt.state != Sleeping {
						return
					}
					// The sleep action is complete: continue the program.
					tt.state = Ready
					os.advance(tt, wake)
				})
			}
			t.wake.Arm(now + a.Arg)
			return
		case ActExit:
			t.state = Dead
			os.dequeue(t)
			return
		default:
			panic(fmt.Sprintf("guest: unknown action kind %d", a.Kind))
		}
	}
}

// enqueue2Spin queues a spinning thread at the tail: spinners live on
// the normal ready queue (they occupy the CPU like any runnable thread).
// A thread that BurstDone left queued moves there too.
func (os *OS) enqueue2Spin(t *Thread, now sim.Time) {
	os.dequeue(t)
	c := &os.cpus[t.CPU]
	c.ready = append(c.ready, t)
	t.queued = true
	os.waker.WakeVCPU(t.CPU, now)
}

// HasRunnable reports whether the vCPU has any thread to run.
func (os *OS) HasRunnable(cpu int) bool {
	c := &os.cpus[cpu]
	return len(c.irqReady) > 0 || len(c.ready) > 0
}

// NextStep reports what the given vCPU would execute right now. The
// hypervisor calls this at dispatch and after every burst.
func (os *OS) NextStep(cpu int, now sim.Time) Step {
	c := &os.cpus[cpu]
	if len(c.irqReady) > 0 {
		t := c.irqReady[0]
		return Step{Kind: StepRun, Work: t.remaining, Prof: t.prof, Thread: t}
	}
	if len(c.ready) > 0 {
		t := c.ready[0]
		if t.state == Spinning {
			// Dispatch-time re-poll: the lock may have been freed while
			// this vCPU was descheduled.
			if t.spinLock.pollAcquire(t, now) {
				os.dequeue(t)
				t.state = Ready
				t.preferHead = true // it holds the lock: keep the CPU
				os.advance(t, now)
				return os.NextStep(cpu, now)
			}
			return Step{Kind: StepSpin, Thread: t}
		}
		work := t.remaining
		if len(c.ready) > 1 {
			if room := GuestSlice - t.sliceUsed; work > room {
				work = room // guest-internal round robin
				if work <= 0 {
					// Slice exhausted right at the boundary: rotate now,
					// in place (no fresh backing array).
					copy(c.ready, c.ready[1:])
					c.ready[len(c.ready)-1] = t
					t.sliceUsed = 0
					return os.NextStep(cpu, now)
				}
			}
		}
		return Step{Kind: StepRun, Work: work, Prof: t.prof, Thread: t}
	}
	return Step{Kind: StepIdle}
}

// BurstDone informs the guest that `ideal` work of t's current compute
// action completed. The guest charges the thread's slice, rotating it
// out only when a full GuestSlice is consumed.
func (os *OS) BurstDone(t *Thread, ideal sim.Time, now sim.Time) {
	if t.state == Dead {
		return
	}
	if t.state == Spinning {
		// Spin bursts end either on slice expiry (still spinning) or
		// because the lock was granted (state flipped by grant()).
		return
	}
	t.remaining -= ideal
	t.sliceUsed += ideal
	if t.remaining > 0 {
		// Action unfinished: rotate only when the guest slice is used
		// up and another thread is waiting.
		c := &os.cpus[t.CPU]
		if !t.IRQ && t.sliceUsed >= GuestSlice && len(c.ready) > 1 && c.ready[0] == t {
			copy(c.ready, c.ready[1:])
			c.ready[len(c.ready)-1] = t
			t.sliceUsed = 0
		}
		return
	}
	// Action complete: keep the CPU while the slice lasts, so that e.g.
	// a just-acquired lock's critical section runs immediately. The
	// thread stays queued while its program picks the next action (see
	// enqueue).
	t.preferHead = t.sliceUsed < GuestSlice
	if !t.preferHead {
		t.sliceUsed = 0
	}
	os.advance(t, now)
}

// DeliverIO delivers one event-channel notification for port. It returns
// the index of the vCPU the event is bound for (the port owner's vCPU,
// or 0 when the port was never waited on). When no thread is currently
// waiting, the event is queued and consumed by the next ActWaitIO.
func (os *OS) DeliverIO(port int, now sim.Time) int {
	if os.dead {
		return 0
	}
	if t, ok := os.ioWaiters[port]; ok {
		delete(os.ioWaiters, port)
		// The wait action is complete: continue the program (this
		// enqueues the thread with its next action and wakes/kicks the
		// vCPU as needed).
		t.state = Ready
		os.advance(t, now)
		return t.CPU
	}
	os.pending[port]++
	return os.portOwner[port]
}

// countLockOp forwards a lock acquisition to the hypervisor monitor.
func (os *OS) countLockOp(t *Thread) { os.waker.CountLockOp(t.CPU) }

// kickCPU asks the hypervisor to re-evaluate a vCPU's current burst.
func (os *OS) kickCPU(cpu int, now sim.Time) { os.waker.KickVCPU(cpu, now) }

// grant is called by a SpinLock when ownership passes to t.
func (os *OS) grant(t *Thread, now sim.Time) {
	if t.state != Spinning {
		panic(fmt.Sprintf("guest: lock granted to non-spinning thread %s (%v)", t.Name, t.state))
	}
	// The acquire action is now complete; continue the program.
	os.dequeue(t)
	t.state = Ready
	os.advance(t, now)
	// If the thread's vCPU is currently spinning on a pCPU, have the
	// hypervisor re-evaluate immediately rather than burn the slice.
	os.waker.KickVCPU(t.CPU, now)
}
