package workload

import (
	"fmt"

	"aqlsched/internal/cache"
	"aqlsched/internal/guest"
	"aqlsched/internal/hw"
	"aqlsched/internal/iodev"
	"aqlsched/internal/metrics"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// Kind classifies how an application is deployed.
type Kind int

const (
	// KindCPU: batch single-thread CPU job stream (SPEC CPU2006-like).
	KindCPU Kind = iota
	// KindLock: multi-threaded, spin-lock synchronized (PARSEC-like).
	KindLock
	// KindWeb: open-loop request service plus CGI background work
	// (SPECweb2009-like; the heterogeneous workload of Fig. 2(b)).
	KindWeb
	// KindMail: closed-loop request service (SPECmail2009-like).
	KindMail
)

// AppSpec describes one benchmark application synthetically: only the
// type-relevant behaviour (working set, LLC traffic, lock rates, IO
// rates) is modelled, which is exactly what the scheduler reacts to.
type AppSpec struct {
	Name string
	// Expected is the type the paper's vTRS detected (Table 3).
	Expected vcputype.Type
	Kind     Kind

	// Prof is the memory profile of the app's main compute.
	Prof cache.Profile
	// Steady marks pure compute loops with no housekeeping pauses
	// (SPEC CPU-style): the vCPU never blocks between jobs.
	Steady bool
	// JobWork is the ideal time per batch job (KindCPU) or per CGI
	// job (KindWeb background).
	JobWork sim.Time

	// Threads / Gap / Hold configure KindLock applications.
	Threads int
	Gap     sim.Time
	Hold    sim.Time

	// Rate / Service configure request service (KindWeb open loop).
	Rate    float64
	Service sim.Time
	// CGI is the background compute profile for heterogeneous web
	// serving; a zero WSS disables the CGI thread (exclusive IO).
	CGI cache.Profile

	// Clients / Think configure KindMail closed loops.
	Clients int
	Think   sim.Time

	// StartJitter staggers thread/source start uniformly in
	// [0, StartJitter]. Real VMs never boot in lockstep; without
	// jitter, equal-length slices on different pCPUs rotate in perfect
	// synchrony and lock-holder preemption artificially disappears.
	StartJitter sim.Time

	// Phases, when non-empty, makes the application dynamic: a
	// single-vCPU VM whose behaviour cycles through the phases forever
	// (Kind is ignored). See AppPhase and PhasedProgram.
	Phases []AppPhase
	// PhaseOffset shifts the VM into its phase cycle, so colocated
	// phased VMs need not flip in lockstep.
	PhaseOffset sim.Time
}

// Deployment is a running instance of an AppSpec inside one VM.
type Deployment struct {
	Spec AppSpec
	// DeployedAt is when Deploy ran — the origin of the VM's phase
	// clock and of churn throughput windows.
	DeployedAt sim.Time
	Dom        *xen.Domain
	Threads    []*guest.Thread
	// Workers lists the threads whose Jobs define the app's throughput
	// metric (excludes background/ballast threads).
	Workers []*guest.Thread
	Servers []*iodev.Server
	Locks   []*guest.SpinLock

	sources []source
	stops   []func()
}

type source interface {
	Start()
	Stop()
}

// Deploy creates a VM for spec and installs its threads, devices and
// load sources. Threads and sources start within spec.StartJitter of
// now (staggered deterministically from rng).
func Deploy(h *xen.Hypervisor, spec AppSpec, instance string, rng *sim.RNG) *Deployment {
	name := spec.Name
	if instance != "" {
		name = fmt.Sprintf("%s-%s", spec.Name, instance)
	}
	d := &Deployment{Spec: spec, DeployedAt: h.Engine.Now()}
	jrng := rng.Fork(uint64(h.DomainsEverCreated()) + 101)
	delay := func() sim.Time {
		if spec.StartJitter <= 0 {
			return 0
		}
		return jrng.UniformTime(0, spec.StartJitter)
	}
	spawn := func(tname string, cpu int, irq bool, worker bool, prog guest.Program) {
		dd := delay()
		dom := d.Dom
		if dd == 0 {
			t := dom.OS.Spawn(tname, cpu, irq, prog, h.Engine.Now())
			d.Threads = append(d.Threads, t)
			if worker {
				d.Workers = append(d.Workers, t)
			}
			return
		}
		h.Engine.After(dd, func(now sim.Time) {
			t := dom.OS.Spawn(tname, cpu, irq, prog, now)
			d.Threads = append(d.Threads, t)
			if worker {
				d.Workers = append(d.Workers, t)
			}
		})
	}
	if len(spec.Phases) > 0 {
		if err := ValidatePhases(spec.Phases); err != nil {
			panic(err.Error())
		}
		deployPhased(h, spec, name, d, rng)
		return d
	}
	switch spec.Kind {
	case KindCPU:
		d.Dom = h.CreateDomain(name, 0, 0, 1)
		w := NewCPUBound(spec.Prof, spec.JobWork)
		if spec.Steady {
			w.JobSleep = 0
		}
		spawn(name+".worker", 0, false, true, w)

	case KindLock:
		n := spec.Threads
		if n <= 0 {
			n = 4
		}
		d.Dom = h.CreateDomain(name, 0, 0, n)
		lock := guest.NewSpinLock(name + ".lock")
		d.Locks = append(d.Locks, lock)
		for i := 0; i < n; i++ {
			w := NewLockWorker(lock, spec.Gap, spec.Hold, spec.Prof)
			w.Seed = rng.Fork(uint64(i) + 31).Uint64()
			spawn(fmt.Sprintf("%s.w%d", name, i), i, false, true, w)
		}

	case KindWeb:
		d.Dom = h.CreateDomain(name, 0, 0, 1)
		srv := iodev.NewServer(name+".http", 1)
		d.Servers = append(d.Servers, srv)
		spawn(name+".handler", 0, true, true, NewHandler(srv, spec.Service, spec.Prof))
		if spec.CGI.WSS > 0 {
			cgi := NewCPUBound(spec.CGI, spec.JobWork)
			cgi.JobSleep = 0 // CGI load never idles: the vCPU must stay heterogeneous
			spawn(name+".cgi", 0, false, false, cgi)
		}
		src := iodev.NewPoissonSource(h, d.Dom, srv, spec.Rate, rng.Fork(uint64(h.DomainsEverCreated())))
		d.sources = append(d.sources, src)
		h.Engine.After(delay(), func(sim.Time) { src.Start() })

	case KindMail:
		d.Dom = h.CreateDomain(name, 0, 0, 1)
		srv := iodev.NewServer(name+".smtp", 1)
		d.Servers = append(d.Servers, srv)
		spawn(name+".handler", 0, true, true, NewHandler(srv, spec.Service, spec.Prof))
		if spec.CGI.WSS > 0 {
			idx := NewCPUBound(spec.CGI, spec.JobWork)
			idx.JobSleep = 0
			spawn(name+".index", 0, false, false, idx)
		}
		src := iodev.NewClosedLoopSource(h, d.Dom, srv, spec.Clients, spec.Think, rng.Fork(uint64(h.DomainsEverCreated())))
		d.sources = append(d.sources, src)
		h.Engine.After(delay(), func(sim.Time) { src.Start() })

	default:
		panic(fmt.Sprintf("workload: unknown kind %d", spec.Kind))
	}
	return d
}

// Jobs sums completed jobs across the deployment's worker threads.
func (d *Deployment) Jobs() uint64 {
	var n uint64
	ts := d.Workers
	if len(ts) == 0 {
		ts = d.Threads
	}
	for _, t := range ts {
		n += t.Jobs
	}
	return n
}

// Snapshot captures (now, jobs) for throughput windows.
func (d *Deployment) Snapshot(now sim.Time) metrics.JobSnapshot {
	return metrics.JobSnapshot{At: now, Jobs: d.Jobs()}
}

// ResetLatencies clears latency histograms (cuts off warm-up).
func (d *Deployment) ResetLatencies() {
	for _, s := range d.Servers {
		s.Lat.Reset()
	}
}

// MeanLatency reports the mean request latency across servers (IO apps).
func (d *Deployment) MeanLatency() sim.Time {
	var sum sim.Time
	var n int
	for _, s := range d.Servers {
		if s.Lat.Count() > 0 {
			sum += s.Lat.Mean() * sim.Time(s.Lat.Count())
			n += s.Lat.Count()
		}
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Time(n)
}

// IsLatencyApp reports whether the deployment's performance metric is
// latency (true) or throughput (false). Phased applications always
// report throughput: their job counter (compute jobs + served
// requests) is well-defined across behaviour flips, mean latency over
// intermittent IO phases is not.
func (d *Deployment) IsLatencyApp() bool {
	if len(d.Spec.Phases) > 0 {
		return false
	}
	return d.Spec.Kind == KindWeb || d.Spec.Kind == KindMail
}

// Stop quiesces the deployment's load sources (VM teardown): no new
// requests are issued; in-flight work settles through the normal paths.
func (d *Deployment) Stop() {
	for _, s := range d.sources {
		s.Stop()
	}
	for _, f := range d.stops {
		f()
	}
}

// --- Calibration micro-benchmarks (Table 1) ------------------------------

// MicroWeb returns the Wordpress-like IOInt micro-benchmark. hetero adds
// the CGI background thread (the heterogeneous workload of Fig. 2(b)).
func MicroWeb(hetero bool) AppSpec {
	s := AppSpec{
		Name:     "wordpress",
		Expected: vcputype.IOInt,
		Kind:     KindWeb,
		Prof:     cache.Profile{WSS: 128 * hw.KB, RefRate: 0.2},
		Rate:     400,
		Service:  250 * sim.Microsecond,
	}
	if hetero {
		s.Name = "wordpress+cgi"
		s.CGI = cache.Profile{WSS: 192 * hw.KB, RefRate: 0.3}
		s.JobWork = 5 * sim.Millisecond
	}
	return s
}

// MicroKernbench returns the kernbench-like ConSpin micro-benchmark
// with the given thread count (the paper uses 4).
func MicroKernbench(threads int) AppSpec {
	return AppSpec{
		Name:     "kernbench",
		Expected: vcputype.ConSpin,
		Kind:     KindLock,
		Prof:     cache.Profile{WSS: 192 * hw.KB, RefRate: 0.4},
		Threads:  threads,
		Gap:      150 * sim.Microsecond,
		Hold:     12 * sim.Microsecond,
	}
}

// MicroListWalk returns a Drepper-style list-walk micro-benchmark
// configured for the given type: LoLCF uses 90% of L2, LLCF half the
// LLC, LLCO twice the LLC (Section 3.4.2).
func MicroListWalk(top *hw.Topology, t vcputype.Type) AppSpec {
	switch t {
	case vcputype.LoLCF:
		return AppSpec{
			Name: "listwalk-l2", Expected: vcputype.LoLCF, Kind: KindCPU, Steady: true,
			Prof:    cache.Profile{WSS: top.L2.Size * 9 / 10, RefRate: 0.2},
			JobWork: 10 * sim.Millisecond,
		}
	case vcputype.LLCF:
		return AppSpec{
			Name: "listwalk-llc", Expected: vcputype.LLCF, Kind: KindCPU, Steady: true,
			Prof:    cache.Profile{WSS: top.LLC.Size / 2, RefRate: 25, MissFloor: 0.01, ReuseFactor: 5},
			JobWork: 2 * sim.Millisecond,
		}
	case vcputype.LLCO:
		return AppSpec{
			Name: "listwalk-over", Expected: vcputype.LLCO, Kind: KindCPU, Steady: true,
			Prof:    cache.Profile{WSS: top.LLC.Size * 2, RefRate: 30, Streaming: true, StreamMissRatio: 0.9},
			JobWork: 10 * sim.Millisecond,
		}
	default:
		panic(fmt.Sprintf("workload: no list walk for type %s", t))
	}
}
