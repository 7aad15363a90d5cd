// Package workload provides the guest programs and benchmark profiles
// used throughout the evaluation: the calibration micro-benchmarks of
// Table 1 (a Wordpress-like web server, a kernbench-like parallel build
// synchronizing through spin-locks, and Drepper-style list walks with
// LoLCF/LLCF/LLCO working sets) and synthetic profiles for the reference
// suites (SPEC CPU2006, PARSEC, SPECweb2009, SPECmail2009) matched to
// the type table the paper reports (Table 3).
package workload

import (
	"aqlsched/internal/cache"
	"aqlsched/internal/guest"
	"aqlsched/internal/iodev"
	"aqlsched/internal/sim"
)

// CPUBound is a batch program: an endless sequence of fixed-size jobs
// with a given memory profile. Thread.Jobs counts completed jobs, which
// is the throughput metric (the paper reports execution time; time per
// job is its reciprocal).
//
// JobSleep inserts a tiny blocking pause between jobs, standing in for
// guest timer ticks and kernel housekeeping. Besides realism it keeps
// vCPU schedules drifting: with zero blocking anywhere, equal-length
// slices rotate in permanent lockstep across pCPUs, an artificial
// regime no real machine stays in.
type CPUBound struct {
	Prof     cache.Profile
	JobWork  sim.Time
	JobSleep sim.Time
	// SleepEveryJobs spaces the pauses out; the pause must be much
	// rarer than the longest quantum under study or batch vCPUs would
	// never consume a full slice.
	SleepEveryJobs int

	started  bool
	sleeping bool
	count    int
}

// Housekeeping pause defaults: 150 µs roughly every 250 ms of work.
// The pause spacing must comfortably exceed the longest quantum under
// study (90 ms) or batch vCPUs would block before consuming full slices.
const (
	DefaultJobSleep     = 150 * sim.Microsecond
	DefaultSleepSpacing = 250 * sim.Millisecond
)

// NewCPUBound returns a batch program with jobWork ideal time per job
// and the default housekeeping pause cadence.
func NewCPUBound(prof cache.Profile, jobWork sim.Time) *CPUBound {
	every := 1
	if jobWork > 0 {
		every = int(DefaultSleepSpacing / jobWork)
		if every < 1 {
			every = 1
		}
	}
	return &CPUBound{
		Prof:           prof,
		JobWork:        jobWork,
		JobSleep:       DefaultJobSleep,
		SleepEveryJobs: every,
	}
}

// Next implements guest.Program.
func (c *CPUBound) Next(t *guest.Thread, now sim.Time) guest.Action {
	if c.sleeping {
		c.sleeping = false
		return guest.Compute(c.JobWork, &c.Prof)
	}
	if c.started {
		t.Jobs++
		c.count++
		if c.JobSleep > 0 && c.SleepEveryJobs > 0 && c.count%c.SleepEveryJobs == 0 {
			c.sleeping = true
			return guest.Sleep(c.JobSleep)
		}
	}
	c.started = true
	return guest.Compute(c.JobWork, &c.Prof)
}

// LockWorker is one thread of a concurrent application synchronizing
// through spin-locks (kernbench-like: make jobs taking short kernel
// locks; PARSEC-like: worker threads sharing one structure). Each cycle
// computes for Gap, then holds the lock for Hold inside a critical
// section. One completed critical section counts as one job.
type LockWorker struct {
	Lock *guest.SpinLock
	Gap  sim.Time
	Hold sim.Time
	Prof cache.Profile

	// Seed drives the per-cycle work jitter (deterministic xorshift).
	Seed uint64

	state int
	rng   uint64
}

// NewLockWorker builds one worker of a spin-lock application.
func NewLockWorker(lock *guest.SpinLock, gap, hold sim.Time, prof cache.Profile) *LockWorker {
	return &LockWorker{Lock: lock, Gap: gap, Hold: hold, Prof: prof, Seed: 0x9E3779B9}
}

// jitteredGap returns this cycle's compute phase: Gap scaled by a
// deterministic pseudo-random factor in [0.5, 1.5). Real parallel
// programs (make jobs, pipeline stages) have irregular phase lengths;
// perfectly regular phases let consolidated gangs fall into lock-step
// alignment, an artificial attractor.
func (w *LockWorker) jitteredGap() sim.Time {
	if w.rng == 0 {
		w.rng = w.Seed | 1
	}
	w.rng ^= w.rng << 13
	w.rng ^= w.rng >> 7
	w.rng ^= w.rng << 17
	frac := float64(w.rng%1024) / 1024.0
	return sim.Time(float64(w.Gap) * (0.5 + frac))
}

// criticalProfile is every critical section's profile: a small shared
// structure.
var criticalProfile = cache.Profile{WSS: 32 * 1024}

// lockWorker states.
const (
	lwGap = iota
	lwAcquire
	lwCritical
	lwRelease
)

// Next implements guest.Program: gap compute -> acquire -> critical
// section -> release.
func (w *LockWorker) Next(t *guest.Thread, now sim.Time) guest.Action {
	switch w.state {
	case lwGap:
		w.state = lwAcquire
		return guest.Compute(w.jitteredGap(), &w.Prof)
	case lwAcquire:
		w.state = lwCritical
		return guest.Acquire(w.Lock)
	case lwCritical:
		w.state = lwRelease
		return guest.Compute(w.Hold, &criticalProfile)
	default: // lwRelease
		t.Jobs++
		w.state = lwGap
		return guest.Release(w.Lock)
	}
}

// Handler serves requests from an iodev.Server: it waits for the event
// channel, then spends Service ideal time per request. Request latency
// is recorded at completion. One request is one job.
type Handler struct {
	Srv     *iodev.Server
	Service sim.Time
	Prof    cache.Profile

	state   int
	arrived sim.Time
}

// NewHandler builds an IO request handler program.
func NewHandler(srv *iodev.Server, service sim.Time, prof cache.Profile) *Handler {
	return &Handler{Srv: srv, Service: service, Prof: prof}
}

// Next implements guest.Program: wait -> serve -> complete -> wait.
func (h *Handler) Next(t *guest.Thread, now sim.Time) guest.Action {
	switch h.state {
	case 0:
		h.state = 1
		return guest.WaitIO(h.Srv.Port)
	case 1:
		h.arrived = h.Srv.Take()
		h.state = 2
		return guest.Compute(h.Service, &h.Prof)
	default:
		h.Srv.Complete(h.arrived, now)
		t.Jobs++
		h.state = 1
		return guest.WaitIO(h.Srv.Port)
	}
}
