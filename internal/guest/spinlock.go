package guest

import (
	"fmt"

	"aqlsched/internal/sim"
)

// SpinLock is a guest ticket spin-lock. Waiters busy-wait (their vCPU
// burns its quantum spinning, emitting PAUSE loops that the hypervisor's
// ConSpin monitor counts) and are granted the lock in FIFO order.
//
// The lock records hold durations (acquire-to-release wall time), the
// statistic plotted in the rightmost graph of Fig. 2: when a holder's
// vCPU is descheduled mid-critical-section, or a waiter is granted the
// lock while its vCPU is descheduled, the measured duration includes the
// hypervisor-induced delay — which grows with the quantum length.
type SpinLock struct {
	Name string

	owner      *Thread
	waiters    []*Thread // FIFO ticket order
	scratch    []*Thread // reusable snapshot buffer for release kicks
	acquiredAt sim.Time

	holds     uint64
	totalHold sim.Time
	maxHold   sim.Time
}

// NewSpinLock returns an unlocked spin-lock.
func NewSpinLock(name string) *SpinLock { return &SpinLock{Name: name} }

// Holder reports the current owner (nil when free).
func (l *SpinLock) Holder() *Thread { return l.owner }

// Waiters reports how many threads are spinning on the lock.
func (l *SpinLock) Waiters() int { return len(l.waiters) }

// tryAcquire attempts a fast-path acquire for t. It reports success;
// on failure t is appended to the ticket queue.
func (l *SpinLock) tryAcquire(t *Thread, now sim.Time) bool {
	if l.owner == nil && len(l.waiters) == 0 {
		l.owner = t
		l.acquiredAt = now
		t.OS.countLockOp(t)
		return true
	}
	l.waiters = append(l.waiters, t)
	return false
}

// release transfers the lock from t to the next ticket holder, if any.
func (l *SpinLock) release(t *Thread, now sim.Time) {
	if l.owner != t {
		panic(fmt.Sprintf("guest: %s releases lock %q owned by %v", t.Name, l.Name, ownerName(l.owner)))
	}
	d := now - l.acquiredAt
	l.holds++
	l.totalHold += d
	if d > l.maxHold {
		l.maxHold = d
	}
	if len(l.waiters) == 0 {
		l.owner = nil
		return
	}
	// Preemptable-ticket handoff ([39]): grant to the first waiter whose
	// vCPU is currently executing — it proceeds immediately. When every
	// waiter is descheduled the lock is left FREE and the queued waiters
	// re-poll as their vCPUs get dispatched (pollAcquire). Reserving the
	// lock for a descheduled waiter instead would convoy permanently:
	// each stale handoff parks the lock for a multiple of the quantum.
	for i, w := range l.waiters {
		if !w.OnCPU {
			continue
		}
		l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
		l.owner = w
		l.acquiredAt = now
		w.OS.countLockOp(w)
		w.OS.grant(w, now)
		return
	}
	l.owner = nil
	// The lock is free with only descheduled waiters registered. A real
	// spinner polls the lock word continuously, so any waiter whose vCPU
	// is mid-spin-burst must re-evaluate now rather than burn the rest
	// of its hypervisor slice on a free lock: kick their vCPUs (no-op
	// for vCPUs that are not running). The first kicked spinner at its
	// guest queue head re-polls and takes the lock.
	// Kicks can re-enter the lock (a kicked vCPU's next dispatch may
	// poll-acquire, append new waiters, or even release again), so
	// iterate over a snapshot — taken into a reusable buffer, detached
	// during the loop so a re-entrant release cannot clobber it.
	snapshot := append(l.scratch[:0], l.waiters...)
	l.scratch = nil
	for _, w := range snapshot {
		if l.owner != nil {
			break
		}
		w.OS.kickCPU(w.CPU, now)
	}
	l.scratch = snapshot[:0]
}

// pollAcquire is the dispatch-time re-poll of a spinning thread: if the
// lock was left free while t's vCPU was descheduled, t takes it now.
// Reports whether t became the owner.
func (l *SpinLock) pollAcquire(t *Thread, now sim.Time) bool {
	if l.owner != nil {
		return false
	}
	for i, w := range l.waiters {
		if w == t {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			l.owner = t
			l.acquiredAt = now
			t.OS.countLockOp(t)
			return true
		}
	}
	return false
}

// HoldStats reports (number of holds, mean hold duration, max hold
// duration). Mean is zero when no holds completed.
func (l *SpinLock) HoldStats() (holds uint64, mean, max sim.Time) {
	if l.holds == 0 {
		return 0, 0, 0
	}
	return l.holds, l.totalHold / sim.Time(l.holds), l.maxHold
}

func ownerName(t *Thread) string {
	if t == nil {
		return "nobody"
	}
	return t.Name
}
