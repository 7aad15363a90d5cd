package sim

import (
	"sort"
	"testing"
)

// Script opcodes for FuzzEngineOrder. Each opcode byte (taken modulo
// numOps) is followed by its operand bytes:
//
//	opAt       d      At(now + d%16)
//	opAfter    d      After(d%16)
//	opCancel   k      Cancel(handle k mod #handles), spent handles too
//	opNewTimer        NewTimer (at most maxFuzzTimers)
//	opArm      k d    Arm timer k at now + d%16
//	opStop     k      Stop timer k
//	opStep            Step
//	opRunUntil d      RunUntil(now + d%32)
//
// Every callback consumes one more byte when it fires, its reaction,
// and runs it as an operation from inside the callback. Step and
// RunUntil reactions do nothing. Inside a timer's callback, a timer
// operand k with k mod (#timers+1) == #timers names the firing timer
// itself.
const (
	opAt = iota
	opAfter
	opCancel
	opNewTimer
	opArm
	opStop
	opStep
	opRunUntil
	numOps
)

const (
	maxFuzzTimers = 8
	maxFuzzScript = 1024
)

// engineOrderSeeds are the hand-written corner cases.
var engineOrderSeeds = [][]byte{
	// A front replaced by an earlier event, then by an equal-time one
	// and by one due now.
	{opAt, 5, opAt, 2, opAt, 2, opAt, 0, opStep, opStep, opStep, opStep, opStep, opStep, opStep, opStep},
	// A cancelled front: the next event takes over, and a cancel of
	// the spent handle is a no-op.
	{opAt, 3, opAt, 1, opCancel, 1, opStep, opStep, opCancel, 1, opAt, 0, opCancel, 2, opRunUntil, 9},
	// Equal-time events around the front, and callbacks that schedule
	// at the current instant (before every pending event).
	{opAt, 0, opAt, 0, opAt, 4, opStep, opAt, 0, opStep, opAfter, 0, opRunUntil, 4, opStep, opStep, opStep},
	// Stop-then-arm: the re-armed timer orders after an equal-time
	// event scheduled while it was stopped.
	{opNewTimer, opArm, 0, 4, opAt, 4, opStop, 0, opArm, 0, 4, opStop, 0, opStop, 0, opArm, 0, 2, opRunUntil, 10, opStep, opStep},
	// A timer re-arming itself from its callback, twice, then stopping.
	{opNewTimer, opNewTimer, opArm, 0, 3, opArm, 1, 3, opRunUntil, 20, opArm, 2, 1, opArm, 2, 0, opStop, 2, opStep},
	// Callbacks cancelling pending events and stopping other timers.
	{opNewTimer, opAt, 2, opAt, 2, opArm, 0, 2, opAt, 1, opStep, opCancel, 1, opStep, opStop, 0, opRunUntil, 31, opStep},
}

// FuzzEngineOrder runs a script against the engine and against a
// reference queue, a slice kept sorted by due time and then schedule
// order, and requires the two to agree on every fired event and on
// Now, Fired, Pending, NextAt, Scheduled, Armed and When after every
// operation and inside every callback.
func FuzzEngineOrder(f *testing.F) {
	for _, s := range engineOrderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxFuzzScript {
			script = script[:maxFuzzScript]
		}
		m := &engineModel{t: t, e: NewEngine(), script: script}
		m.run()
	})
}

// refEntry is one pending occurrence in the reference queue.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

type modelEvent struct {
	ev Event
	id int
}

type modelTimer struct {
	tm *Timer
	id int // pending occurrence, -1 when idle
	at Time
}

// engineModel runs a script against an Engine and mirrors every
// operation in a reference queue.
type engineModel struct {
	t      *testing.T
	e      *Engine
	script []byte
	pos    int

	now   Time
	seq   uint64
	fired uint64
	queue []refEntry // pending occurrences, sorted by (at, seq)
	live  []bool     // live[id]: occurrence id is pending

	events []modelEvent
	timers []*modelTimer
}

func (m *engineModel) read() (byte, bool) {
	if m.pos >= len(m.script) {
		return 0, false
	}
	b := m.script[m.pos]
	m.pos++
	return b, true
}

func (m *engineModel) operand() byte {
	b, _ := m.read()
	return b
}

func (m *engineModel) delta() Time { return Time(m.operand() % 16) }

func (m *engineModel) run() {
	for {
		op, ok := m.read()
		if !ok {
			break
		}
		m.apply(op, nil, false)
		m.check("after op")
	}
	// Reactions past the end of the script do nothing, so this drains.
	for m.e.Step() {
	}
	m.check("after drain")
	if len(m.queue) != 0 {
		m.t.Fatalf("engine drained with %d reference events pending", len(m.queue))
	}
}

// push records a new pending occurrence due at `at` and returns its id.
func (m *engineModel) push(at Time) int {
	id := len(m.live)
	m.live = append(m.live, true)
	i := sort.Search(len(m.queue), func(i int) bool { return m.queue[i].at > at })
	m.queue = append(m.queue, refEntry{})
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = refEntry{at: at, seq: m.seq, id: id}
	m.seq++
	return id
}

// remove drops a pending occurrence and reports whether it was pending.
func (m *engineModel) remove(id int) bool {
	if !m.live[id] {
		return false
	}
	m.live[id] = false
	for i, en := range m.queue {
		if en.id == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return true
		}
	}
	m.t.Fatalf("live occurrence %d missing from the reference queue", id)
	return false
}

func (m *engineModel) pickTimer(self *modelTimer) *modelTimer {
	k := int(m.operand())
	n := len(m.timers)
	if self != nil && k%(n+1) == n {
		return self
	}
	if n == 0 {
		return nil
	}
	return m.timers[k%n]
}

func (m *engineModel) apply(op byte, self *modelTimer, inCallback bool) {
	switch op % numOps {
	case opAt, opAfter:
		d := m.delta()
		id := m.push(m.now + d)
		cb := func(now Time) { m.fire(id, now, nil) }
		var ev Event
		if op%numOps == opAt {
			ev = m.e.At(m.now+d, cb)
		} else {
			ev = m.e.After(d, cb)
		}
		m.events = append(m.events, modelEvent{ev: ev, id: id})
	case opCancel:
		k := int(m.operand())
		if len(m.events) == 0 {
			return
		}
		me := m.events[k%len(m.events)]
		want := m.remove(me.id)
		if got := m.e.Cancel(me.ev); got != want {
			m.t.Fatalf("Cancel(event %d) = %v, reference %v", me.id, got, want)
		}
	case opNewTimer:
		if len(m.timers) >= maxFuzzTimers {
			return
		}
		mt := &modelTimer{id: -1}
		mt.tm = m.e.NewTimer(func(now Time) { m.fire(mt.id, now, mt) })
		m.timers = append(m.timers, mt)
	case opArm:
		mt := m.pickTimer(self)
		at := m.now + m.delta()
		if mt == nil {
			return
		}
		if mt.id >= 0 {
			m.remove(mt.id)
		}
		mt.id, mt.at = m.push(at), at
		mt.tm.Arm(at)
	case opStop:
		mt := m.pickTimer(self)
		if mt == nil {
			return
		}
		want := mt.id >= 0
		if want {
			m.remove(mt.id)
			mt.id = -1
		}
		if got := mt.tm.Stop(); got != want {
			m.t.Fatalf("Stop() = %v, reference %v", got, want)
		}
	case opStep:
		if inCallback {
			return
		}
		want := len(m.queue) > 0
		if got := m.e.Step(); got != want {
			m.t.Fatalf("Step() = %v with %d reference events pending", got, len(m.queue))
		}
	case opRunUntil:
		d := Time(m.operand() % 32)
		if inCallback {
			return
		}
		deadline := m.now + d
		m.e.RunUntil(deadline)
		if len(m.queue) > 0 && m.queue[0].at <= deadline {
			m.t.Fatalf("RunUntil(%v) left an event due at %v", deadline, m.queue[0].at)
		}
		m.now = deadline
	}
}

// fire is every callback's body: the engine must fire exactly the
// reference queue's head, at its due time.
func (m *engineModel) fire(id int, now Time, self *modelTimer) {
	if len(m.queue) == 0 {
		m.t.Fatalf("engine fired occurrence %d at %v with nothing pending", id, now)
	}
	head := m.queue[0]
	if head.id != id || head.at != now {
		m.t.Fatalf("engine fired occurrence %d at %v, reference head is %d at %v", id, now, head.id, head.at)
	}
	m.queue = append(m.queue[:0], m.queue[1:]...)
	m.live[id] = false
	m.now = now
	m.fired++
	if self != nil {
		self.id = -1
	}
	m.check("inside callback")
	if op, ok := m.read(); ok {
		m.apply(op, self, true)
		m.check("after reaction")
	}
}

func (m *engineModel) check(where string) {
	t, e := m.t, m.e
	if e.Now() != m.now {
		t.Fatalf("%s: Now() = %v, reference %v", where, e.Now(), m.now)
	}
	if e.Fired() != m.fired {
		t.Fatalf("%s: Fired() = %d, reference %d", where, e.Fired(), m.fired)
	}
	if e.Pending() != len(m.queue) {
		t.Fatalf("%s: Pending() = %d, reference %d", where, e.Pending(), len(m.queue))
	}
	at, ok := e.NextAt()
	if ok != (len(m.queue) > 0) || ok && at != m.queue[0].at {
		t.Fatalf("%s: NextAt() = %v, %v; reference queue %v", where, at, ok, m.queue)
	}
	for _, me := range m.events {
		if got := e.Scheduled(me.ev); got != m.live[me.id] {
			t.Fatalf("%s: Scheduled(event %d) = %v, reference %v", where, me.id, got, m.live[me.id])
		}
	}
	for i, mt := range m.timers {
		if got := mt.tm.Armed(); got != (mt.id >= 0) {
			t.Fatalf("%s: timer %d Armed() = %v, reference %v", where, i, got, mt.id >= 0)
		}
		if mt.id >= 0 && mt.tm.When() != mt.at {
			t.Fatalf("%s: timer %d When() = %v, reference %v", where, i, mt.tm.When(), mt.at)
		}
	}
}
