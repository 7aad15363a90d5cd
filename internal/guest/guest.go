// Package guest models the guest operating system inside a VM: threads,
// per-vCPU run queues, interrupt handlers and spin-locks.
//
// The paper's framing (Section 3.1) is that "a vCPU type at a given
// instant is the type of the thread using the vCPU at that instant", and
// its three problem mechanisms all live at the guest/hypervisor boundary:
//
//   - interrupt handling: an IO event delivered to a descheduled vCPU
//     waits for the hypervisor to run that vCPU again (Fig. 1);
//   - lock-holder preemption: a guest thread holding a spin-lock keeps
//     it while its vCPU is descheduled, so sibling vCPUs burn their
//     quanta spinning (Section 3.2);
//   - guest-level scheduling is invisible to the hypervisor.
//
// The guest therefore exposes exactly what the hypervisor layer needs:
// "what would this vCPU do right now" (NextStep) plus notifications for
// IO delivery and burst completion. Threads are bound to vCPUs; IRQ
// handler threads preempt normal threads within a vCPU.
package guest

import (
	"aqlsched/internal/cache"
	"aqlsched/internal/sim"
)

// GuestSlice is the guest kernel's internal round-robin slice used when
// several normal threads share one vCPU.
const GuestSlice = 3 * sim.Millisecond

// maxInterpret bounds action-interpretation loops so a misbehaving
// program (e.g. releasing an unheld lock forever) fails fast.
const maxInterpret = 256

// ThreadState enumerates guest thread states.
type ThreadState int

const (
	// Ready: runnable, waiting in its vCPU's queue.
	Ready ThreadState = iota
	// Spinning: busy-waiting for a spin-lock (runnable: burns CPU).
	Spinning
	// BlockedIO: waiting for an event-channel notification.
	BlockedIO
	// Sleeping: waiting for a timer.
	Sleeping
	// Dead: exited.
	Dead
)

func (s ThreadState) String() string {
	switch s {
	case Ready:
		return "ready"
	case Spinning:
		return "spinning"
	case BlockedIO:
		return "blocked-io"
	case Sleeping:
		return "sleeping"
	case Dead:
		return "dead"
	}
	return "?"
}

// ActionKind enumerates what a program can ask its thread to do next.
type ActionKind int

const (
	// ActCompute: execute Arg ideal time with memory profile Obj.
	ActCompute ActionKind = iota
	// ActAcquire: take the spin-lock Obj (spin while held elsewhere).
	ActAcquire
	// ActRelease: release the spin-lock Obj.
	ActRelease
	// ActWaitIO: block until an event arrives on port Arg.
	ActWaitIO
	// ActSleep: block for Arg.
	ActSleep
	// ActExit: terminate the thread.
	ActExit
)

// Action is one instruction from a Program to the guest kernel. Build
// one with Compute, Acquire, Release, WaitIO, Sleep or Exit.
//
// An Action is at most four words in at most four fields, so a
// Program.Next result stays in registers: a larger struct is spilled to
// the stack and copied back on every action.
type Action struct {
	Kind ActionKind
	// Arg is the compute work (ActCompute), the sleep length (ActSleep)
	// or the port (ActWaitIO).
	Arg sim.Time
	// Obj is the *cache.Profile of ActCompute or the *SpinLock of
	// ActAcquire and ActRelease. The program owns a profile and must not
	// change it while the program runs: the cache model reads it at
	// every burst of the action, and again when a preempted burst is
	// replayed.
	Obj any
}

// Compute executes work ideal time with memory profile prof.
func Compute(work sim.Time, prof *cache.Profile) Action {
	return Action{Kind: ActCompute, Arg: work, Obj: prof}
}

// Acquire takes spin-lock l, spinning while another thread holds it.
func Acquire(l *SpinLock) Action { return Action{Kind: ActAcquire, Obj: l} }

// Release releases spin-lock l.
func Release(l *SpinLock) Action { return Action{Kind: ActRelease, Obj: l} }

// WaitIO blocks until an event arrives on port.
func WaitIO(port int) Action { return Action{Kind: ActWaitIO, Arg: sim.Time(port)} }

// Sleep blocks for d.
func Sleep(d sim.Time) Action { return Action{Kind: ActSleep, Arg: d} }

// Exit terminates the thread.
func Exit() Action { return Action{Kind: ActExit} }

// Program drives a thread. Next is called whenever the previous action
// has fully completed; it must return the next action.
type Program interface {
	Next(t *Thread, now sim.Time) Action
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(t *Thread, now sim.Time) Action

// Next calls f.
func (f ProgramFunc) Next(t *Thread, now sim.Time) Action { return f(t, now) }

// Thread is one guest thread, bound to one vCPU.
type Thread struct {
	Name string
	OS   *OS
	CPU  int  // index of the vCPU this thread is bound to
	IRQ  bool // IRQ-handler class: preempts normal threads on its vCPU

	prog      Program
	state     ThreadState
	prof      *cache.Profile // profile of the current compute action
	spinLock  *SpinLock      // lock the thread spins on while Spinning
	remaining sim.Time       // work left in the current compute action

	// sliceUsed accumulates ideal work since the thread last took the
	// CPU; the guest rotates it out only when a full GuestSlice is
	// consumed, so a thread keeps the CPU across action boundaries
	// (critically: it finishes its lock critical sections instead of
	// parking behind a sibling while holding the lock).
	sliceUsed  sim.Time
	preferHead bool

	// Jobs counts completed work units; programs increment it so
	// throughput metrics can be derived without knowing the program.
	Jobs uint64

	// FP is the thread's cache footprint, owned by the hypervisor's
	// cache model (threads are the true cache occupants; a vCPU's cache
	// behaviour at an instant is its current thread's).
	FP cache.Footprint

	// OnCPU is maintained by the hypervisor: true while the thread is
	// the subject of an in-flight burst on a pCPU. Spin-locks use it to
	// prefer granting to a waiter that can proceed immediately
	// (preemptable-ticket semantics, avoiding convoys on descheduled
	// waiters — [39] in the paper).
	OnCPU bool

	queued bool // present in its CPU's ready queue

	// wake is the thread's pre-bound sleep wake-up timer, created on the
	// first ActSleep and re-armed (allocation-free) on every later one.
	wake *sim.Timer
}

// State reports the thread's current state.
func (t *Thread) State() ThreadState { return t.state }

// Remaining reports work left in the current compute action (tests).
func (t *Thread) Remaining() sim.Time { return t.remaining }
