// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated state changes are driven by events on a priority queue
// ordered by (time, sequence number). Equal-time events fire in the order
// they were scheduled, so a simulation is fully deterministic given its
// inputs and RNG seed. Time is measured in integer microseconds.
//
// The queue is a flat 4-ary min-heap of (time, seq, slot) entries over a
// slot table with an intrusive free-list, so scheduling, firing and
// cancelling events allocates nothing in steady state: the heap and slot
// slices grow to the simulation's peak pending count and are reused from
// then on. Hot callers that repeatedly schedule and cancel the same
// logical callback (one per vCPU, say) should use a Timer, which binds
// its function once and re-arms without any per-occurrence allocation.
package sim

import (
	"fmt"
)

// Time is a simulated instant or duration in microseconds.
type Time int64

// Convenient duration units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// MaxTime is the largest representable simulated time.
const MaxTime Time = 1<<63 - 1

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// EventFunc is the body of a scheduled event. It runs at the event's
// due time with the engine clock already advanced to that time.
type EventFunc func(now Time)

// Event is a value handle to a scheduled event, usable to cancel it.
// The zero Event is valid and refers to nothing. Handles stay safe after
// the event fires or is cancelled: the engine detects staleness through
// a generation counter, so Cancel on a spent handle is a no-op.
type Event struct {
	slot int32
	gen  uint32
}

// heapEntry is one pending event in the 4-ary min-heap. The full sort
// key lives in the entry itself so sift comparisons never chase into the
// slot table.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot carries the callback state of one pending event. Free slots are
// chained through next; gen increments on every free so stale Event
// handles (and stale Timer fires) can be detected.
type slot struct {
	fn    EventFunc
	timer *Timer
	at    Time
	gen   uint32
	heap  int32 // index into Engine.heap, -1 when free
	next  int32 // free-list link, meaningful only when free
}

// Engine is a discrete-event simulation loop.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    []heapEntry
	slots   []slot
	free    int32 // head of the slot free-list, -1 when empty
	stopped bool

	// Stats
	fired uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: -1}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// NextAt reports the due time of the earliest pending event, or false
// when none is pending. It fires nothing and leaves the clock alone, so
// a driver can act at that time before the event fires.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// --- slot table -----------------------------------------------------------

func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		i := e.free
		e.free = e.slots[i].next
		return i
	}
	e.slots = append(e.slots, slot{gen: 1, heap: -1})
	return int32(len(e.slots) - 1)
}

func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn = nil
	s.timer = nil
	s.gen++
	s.heap = -1
	s.next = e.free
	e.free = i
}

// schedule allocates a slot for (at, fn) and pushes it on the heap.
func (e *Engine) schedule(at Time, fn EventFunc, t *Timer) int32 {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	i := e.allocSlot()
	s := &e.slots[i]
	s.fn = fn
	s.timer = t
	s.at = at
	e.push(heapEntry{at: at, seq: e.seq, slot: i})
	e.seq++
	return i
}

// --- 4-ary heap -----------------------------------------------------------

func (e *Engine) push(en heapEntry) {
	e.heap = append(e.heap, en)
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) siftUp(i int) {
	en := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(en, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i].slot].heap = int32(i)
		i = p
	}
	e.heap[i] = en
	e.slots[en.slot].heap = int32(i)
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	en := e.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(e.heap[j], e.heap[m]) {
				m = j
			}
		}
		if !entryLess(e.heap[m], en) {
			break
		}
		e.heap[i] = e.heap[m]
		e.slots[e.heap[i].slot].heap = int32(i)
		i = m
	}
	e.heap[i] = en
	e.slots[en.slot].heap = int32(i)
}

// removeAt deletes the heap entry at index i, preserving heap order.
func (e *Engine) removeAt(i int) {
	n := len(e.heap) - 1
	if i == n {
		e.heap = e.heap[:n]
		return
	}
	last := e.heap[n]
	e.heap = e.heap[:n]
	e.heap[i] = last
	e.slots[last.slot].heap = int32(i)
	if i > 0 && entryLess(last, e.heap[(i-1)>>2]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

// popMin removes and returns the earliest entry.
func (e *Engine) popMin() heapEntry {
	en := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
		e.slots[e.heap[0].slot].heap = 0
		e.heap = e.heap[:n]
		e.siftDown(0)
	} else {
		e.heap = e.heap[:0]
	}
	return en
}

// --- public scheduling API ------------------------------------------------

// At schedules fn to run at the absolute time at. Scheduling in the past
// (before Now) panics: that is always a simulation bug.
func (e *Engine) At(at Time, fn EventFunc) Event {
	i := e.schedule(at, fn, nil)
	return Event{slot: i, gen: e.slots[i].gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn EventFunc) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Scheduled reports whether ev is still pending (not fired, not
// cancelled).
func (e *Engine) Scheduled(ev Event) bool {
	if ev.gen == 0 || int(ev.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[ev.slot]
	return s.gen == ev.gen && s.heap >= 0
}

// Cancel removes a pending event and reports whether it was still
// pending. Cancelling an already-fired, already-cancelled or zero Event
// is a no-op.
func (e *Engine) Cancel(ev Event) bool {
	if !e.Scheduled(ev) {
		return false
	}
	s := &e.slots[ev.slot]
	e.removeAt(int(s.heap))
	e.freeSlot(ev.slot)
	return true
}

// Step fires the next pending event, advancing the clock to its due
// time. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	en := e.popMin()
	s := &e.slots[en.slot]
	fn := s.fn
	if t := s.timer; t != nil {
		t.slot = -1
	}
	e.freeSlot(en.slot)
	e.now = en.at
	e.fired++
	fn(e.now)
	return true
}

// RunUntil fires events until the clock would pass deadline or the queue
// empties. The clock finishes at exactly deadline (even when idle) so
// that measurement windows are well defined.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run/RunUntil call return after the event that
// is currently executing.
func (e *Engine) Stop() { e.stopped = true }

// --- timers ---------------------------------------------------------------

// Timer is a reusable scheduled callback: the function is bound once and
// the timer is then armed, fired and re-armed any number of times with
// no per-occurrence allocation. Each arming gets a fresh sequence
// number, so a rearmed timer orders against equal-time events exactly as
// a newly scheduled one would.
//
// A Timer is owned by its engine and must not be copied. The zero Timer
// is not usable; call Engine.NewTimer.
type Timer struct {
	e    *Engine
	fn   EventFunc
	slot int32 // pending slot, -1 when idle
}

// NewTimer binds fn to a new idle timer on the engine.
func (e *Engine) NewTimer(fn EventFunc) *Timer {
	return &Timer{e: e, fn: fn, slot: -1}
}

// Armed reports whether the timer has a pending occurrence.
func (t *Timer) Armed() bool { return t.slot >= 0 }

// When reports the due time of the pending occurrence; meaningless when
// the timer is not armed.
func (t *Timer) When() Time {
	if t.slot < 0 {
		return 0
	}
	return t.e.slots[t.slot].at
}

// Arm schedules the timer's next occurrence at the absolute time at,
// replacing any still-pending occurrence (rearm semantics). The timer
// un-arms itself immediately before its function runs, so the function
// may re-arm from inside the callback.
func (t *Timer) Arm(at Time) {
	t.Stop()
	t.slot = t.e.schedule(at, t.fn, t)
}

// Stop cancels the pending occurrence, if any, and reports whether one
// was pending.
func (t *Timer) Stop() bool {
	if t.slot < 0 {
		return false
	}
	s := &t.e.slots[t.slot]
	t.e.removeAt(int(s.heap))
	t.e.freeSlot(t.slot)
	t.slot = -1
	return true
}
