// Package hw models the physical machine the hypervisor manages:
// sockets, cores (pCPUs), the cache hierarchy geometry, and the per-vCPU
// performance-monitoring-unit (PMU) counter block the recognition system
// reads.
//
// Two concrete machines from the paper are provided: the single-socket
// Intel i7-3770 used for calibration and the single-socket experiments
// (Table 2), and the four-socket Xeon E5-4603 used for the multi-socket
// experiment (Section 4.2).
package hw

import (
	"fmt"

	"aqlsched/internal/sim"
)

// Sizes in bytes.
const (
	KB int64 = 1024
	MB int64 = 1024 * KB
	GB int64 = 1024 * MB
)

// CacheSpec describes one level of the cache hierarchy.
type CacheSpec struct {
	Size      int64 // capacity in bytes
	Ways      int   // associativity
	LineSize  int64 // bytes per line
	LatencyNS int64 // load-to-use latency in nanoseconds
}

// Topology describes the machine geometry and memory system parameters
// used by the cache/performance model.
type Topology struct {
	Sockets        int
	CoresPerSocket int

	L1  CacheSpec
	L2  CacheSpec
	LLC CacheSpec

	// Classes partitions each socket's cores into heterogeneous core
	// classes. Empty means one homogeneous class at speed 1 with the
	// topology-wide cache specs — exactly today's layout.
	Classes []CoreClass

	// MemLatencyNS is the LLC-miss (DRAM) load latency in nanoseconds.
	MemLatencyNS int64
	// MemBandwidth is the per-socket fill bandwidth in bytes per second,
	// bounding how fast a working set can be re-installed in the LLC.
	MemBandwidth int64
	// CtxSwitchCost is the direct hypervisor context-switch cost
	// (register state, runqueue manipulation) per dispatch.
	CtxSwitchCost sim.Time
}

// CoreClass describes one group of cores within each socket of a
// heterogeneous (big.LITTLE-style) machine: how many cores per socket
// belong to the class, how fast they execute relative to the baseline,
// and optional private-cache overrides. Classes partition each socket
// in list order: with classes {big: 4, little: 4}, cores 0-3 of every
// socket are big, cores 4-7 little (socket-major pCPU IDs preserved).
type CoreClass struct {
	// Name labels the class in listings ("big", "little"); optional.
	Name string
	// Count is the number of cores per socket in this class.
	Count int
	// Speed is the class's execution speed relative to the machine's
	// baseline core (1 = baseline, 0.5 = half speed). 0 means 1.
	Speed float64
	// L1 and L2 override the topology-wide private cache specs for the
	// class's cores; nil keeps the defaults.
	L1, L2 *CacheSpec
}

// speed reports the class's effective speed factor.
func (c CoreClass) speed() float64 {
	if c.Speed == 0 {
		return 1
	}
	return c.Speed
}

// TotalPCPUs reports the number of physical CPUs.
func (t *Topology) TotalPCPUs() int { return t.Sockets * t.CoresPerSocket }

// Validate reports an error when the topology is not usable.
func (t *Topology) Validate() error {
	switch {
	case t.Sockets <= 0:
		return fmt.Errorf("hw: topology needs at least one socket, got %d", t.Sockets)
	case t.CoresPerSocket <= 0:
		return fmt.Errorf("hw: topology needs at least one core per socket, got %d", t.CoresPerSocket)
	case t.LLC.Size <= 0:
		return fmt.Errorf("hw: LLC size must be positive, got %d", t.LLC.Size)
	case t.L2.Size <= 0 || t.L1.Size <= 0:
		return fmt.Errorf("hw: L1/L2 sizes must be positive")
	case t.MemBandwidth <= 0:
		return fmt.Errorf("hw: memory bandwidth must be positive")
	case t.MemLatencyNS <= 0:
		return fmt.Errorf("hw: memory latency must be positive")
	}
	if len(t.Classes) > 0 {
		total := 0
		for i, c := range t.Classes {
			if c.Count <= 0 {
				return fmt.Errorf("hw: core class %d needs a positive count, got %d", i, c.Count)
			}
			if c.Speed < 0 {
				return fmt.Errorf("hw: core class %d speed must not be negative, got %v", i, c.Speed)
			}
			for _, cs := range []*CacheSpec{c.L1, c.L2} {
				if cs != nil && cs.Size <= 0 {
					return fmt.Errorf("hw: core class %d cache override needs a positive size", i)
				}
			}
			total += c.Count
		}
		if total != t.CoresPerSocket {
			return fmt.Errorf("hw: core classes cover %d cores per socket, topology has %d", total, t.CoresPerSocket)
		}
	}
	return nil
}

// ClassOf reports the index into Classes of a pCPU's core class, or -1
// on a homogeneous topology.
func (t *Topology) ClassOf(p PCPUID) int {
	if len(t.Classes) == 0 {
		return -1
	}
	c := int(p) % t.CoresPerSocket // class layout repeats per socket
	for i := range t.Classes {
		if c < t.Classes[i].Count {
			return i
		}
		c -= t.Classes[i].Count
	}
	return len(t.Classes) - 1
}

// SpeedOf reports a pCPU's execution speed factor (1 on homogeneous
// topologies).
func (t *Topology) SpeedOf(p PCPUID) float64 {
	if i := t.ClassOf(p); i >= 0 {
		return t.Classes[i].speed()
	}
	return 1
}

// L1Of and L2Of report a pCPU's private cache specs, honoring any
// class override.
func (t *Topology) L1Of(p PCPUID) CacheSpec {
	if i := t.ClassOf(p); i >= 0 && t.Classes[i].L1 != nil {
		return *t.Classes[i].L1
	}
	return t.L1
}

// L2Of is L1Of for the second-level private cache.
func (t *Topology) L2Of(p PCPUID) CacheSpec {
	if i := t.ClassOf(p); i >= 0 && t.Classes[i].L2 != nil {
		return *t.Classes[i].L2
	}
	return t.L2
}

// Heterogeneous reports whether the topology's core classes make some
// cores differ from others — by speed or by private-cache geometry.
func (t *Topology) Heterogeneous() bool {
	for _, c := range t.Classes {
		if c.speed() != 1 || c.L1 != nil || c.L2 != nil {
			return true
		}
	}
	return false
}

// FastestClass reports the index of the highest-speed core class, or
// -1 on a homogeneous topology. Ties break to the earlier class.
func (t *Topology) FastestClass() int {
	best, bestSpeed := -1, 0.0
	for i, c := range t.Classes {
		if s := c.speed(); s > bestSpeed {
			best, bestSpeed = i, s
		}
	}
	return best
}

// I73770 returns the calibration machine from Table 2 of the paper:
// one socket, 8 cores, 32 KB L1D, 256 KB L2, 8 MB 20-way LLC, 8 GB RAM.
// Its parameters are the TopologyBuilder defaults; registered as
// "i7-3770".
func I73770() *Topology {
	return TopologyBuilder{Sockets: 1, CoresPerSocket: 8}.MustBuild()
}

// XeonE54603 returns the four-socket machine used in Section 4.2:
// 4 sockets x 4 cores, 10 MB LLC per socket. Registered as
// "xeon-e5-4603".
func XeonE54603() *Topology {
	return TopologyBuilder{
		Sockets:        4,
		CoresPerSocket: 4,
		LLCMB:          10,
		LLCNS:          14,
		MemNS:          95,
		MemGBps:        10,
	}.MustBuild()
}

// PCPUID identifies one physical CPU.
type PCPUID int

// SocketID identifies one socket.
type SocketID int

// SocketOf reports which socket a pCPU belongs to. pCPUs are numbered
// socket-major: socket s owns pCPUs [s*CoresPerSocket, (s+1)*CoresPerSocket).
func (t *Topology) SocketOf(p PCPUID) SocketID {
	return SocketID(int(p) / t.CoresPerSocket)
}

// PCPUsOfSocket lists the pCPU IDs belonging to socket s.
func (t *Topology) PCPUsOfSocket(s SocketID) []PCPUID {
	out := make([]PCPUID, 0, t.CoresPerSocket)
	base := int(s) * t.CoresPerSocket
	for i := 0; i < t.CoresPerSocket; i++ {
		out = append(out, PCPUID(base+i))
	}
	return out
}
