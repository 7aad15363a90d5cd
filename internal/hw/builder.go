package hw

import (
	"fmt"

	"aqlsched/internal/sim"
)

// TopologyBuilder constructs validated Topology values from a compact,
// JSON-friendly parameter set: socket/core counts plus cache geometry
// and memory-system knobs in human units (KB/MB, ns, GB/s, µs). Zero
// fields take the calibration machine's defaults (Table 2's i7-3770),
// so the minimal builder only names the machine shape:
//
//	topo, err := hw.TopologyBuilder{Sockets: 2, CoresPerSocket: 8}.Build()
//
// The JSON tags are the spec-file schema: sweep spec files may define
// machines inline under "topologies" (see internal/sweep).
type TopologyBuilder struct {
	Sockets        int `json:"sockets"`
	CoresPerSocket int `json:"cores_per_socket"`

	// Cache capacities: L1/L2 in KB, LLC in MB.
	L1KB  int64   `json:"l1_kb,omitempty"`
	L2KB  int64   `json:"l2_kb,omitempty"`
	LLCMB float64 `json:"llc_mb,omitempty"`

	// Associativity and line size (bytes, shared by all levels).
	L1Ways   int   `json:"l1_ways,omitempty"`
	L2Ways   int   `json:"l2_ways,omitempty"`
	LLCWays  int   `json:"llc_ways,omitempty"`
	LineSize int64 `json:"line_size,omitempty"`

	// Load-to-use latencies in nanoseconds.
	L1NS  int64 `json:"l1_ns,omitempty"`
	L2NS  int64 `json:"l2_ns,omitempty"`
	LLCNS int64 `json:"llc_ns,omitempty"`
	MemNS int64 `json:"mem_ns,omitempty"`

	// MemGBps is the per-socket fill bandwidth in GB/s.
	MemGBps float64 `json:"mem_gbps,omitempty"`
	// CtxSwitchUS is the direct context-switch cost in microseconds.
	CtxSwitchUS float64 `json:"ctx_switch_us,omitempty"`

	// Classes partitions each socket's cores into heterogeneous core
	// classes (big.LITTLE-style). Counts must sum to cores_per_socket;
	// empty means one homogeneous class at speed 1.
	Classes []CoreClassBuilder `json:"classes,omitempty"`
}

// CoreClassBuilder is the JSON-friendly form of one CoreClass.
type CoreClassBuilder struct {
	// Name labels the class in listings ("big", "little").
	Name string `json:"name,omitempty"`
	// Count is the number of cores per socket in this class.
	Count int `json:"count"`
	// Speed is the class's relative execution speed (default 1).
	Speed float64 `json:"speed,omitempty"`
	// L1KB and L2KB override the class's private cache capacities;
	// 0 keeps the topology-wide sizes.
	L1KB int64 `json:"l1_kb,omitempty"`
	L2KB int64 `json:"l2_kb,omitempty"`
}

// withDefaults returns a copy with every zero knob replaced by the
// i7-3770 calibration value.
func (b TopologyBuilder) withDefaults() TopologyBuilder {
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	defI := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defF := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&b.L1KB, 32)
	def(&b.L2KB, 256)
	defF(&b.LLCMB, 8)
	defI(&b.L1Ways, 8)
	defI(&b.L2Ways, 8)
	defI(&b.LLCWays, 20)
	def(&b.LineSize, 64)
	def(&b.L1NS, 1)
	def(&b.L2NS, 4)
	def(&b.LLCNS, 12)
	def(&b.MemNS, 80)
	defF(&b.MemGBps, 12)
	defF(&b.CtxSwitchUS, 3)
	return b
}

// Validate reports an error when the parameters cannot yield a usable
// topology. Zero knobs are validated after default substitution, so
// only explicitly bad values are rejected.
func (b TopologyBuilder) Validate() error {
	if b.Sockets <= 0 {
		return fmt.Errorf("hw: builder needs at least one socket, got %d", b.Sockets)
	}
	if b.CoresPerSocket <= 0 {
		return fmt.Errorf("hw: builder needs at least one core per socket, got %d", b.CoresPerSocket)
	}
	// Sanity cap: a typo (or a fuzzer) asking for a million-core machine
	// must fail validation, not exhaust memory building per-core state.
	const maxCores = 4096
	if int64(b.Sockets)*int64(b.CoresPerSocket) > maxCores {
		return fmt.Errorf("hw: builder asks for %d x %d cores, more than the %d sanity cap",
			b.Sockets, b.CoresPerSocket, maxCores)
	}
	d := b.withDefaults()
	switch {
	case d.L1KB < 0 || d.L2KB < 0 || d.LLCMB < 0:
		return fmt.Errorf("hw: builder cache sizes must be positive")
	case d.L1Ways < 0 || d.L2Ways < 0 || d.LLCWays < 0:
		return fmt.Errorf("hw: builder associativities must be positive")
	case d.LineSize < 0:
		return fmt.Errorf("hw: builder line size must be positive, got %d", d.LineSize)
	case d.L1NS < 0 || d.L2NS < 0 || d.LLCNS < 0 || d.MemNS < 0:
		return fmt.Errorf("hw: builder latencies must be positive")
	case d.MemGBps < 0:
		return fmt.Errorf("hw: builder memory bandwidth must be positive, got %v GB/s", d.MemGBps)
	case d.CtxSwitchUS < 0:
		return fmt.Errorf("hw: builder context-switch cost must be positive, got %v µs", d.CtxSwitchUS)
	}
	l1 := d.L1KB * KB
	l2 := d.L2KB * KB
	llc := int64(d.LLCMB * float64(MB))
	if !(l1 < l2 && l2 < llc) {
		return fmt.Errorf("hw: builder cache hierarchy must grow: L1 %d B < L2 %d B < LLC %d B", l1, l2, llc)
	}
	if len(d.Classes) > 0 {
		total := 0
		for i, c := range d.Classes {
			if c.Count <= 0 {
				return fmt.Errorf("hw: builder core class %d needs a positive count, got %d", i, c.Count)
			}
			if c.Speed < 0 {
				return fmt.Errorf("hw: builder core class %d speed must not be negative, got %v", i, c.Speed)
			}
			if c.L1KB < 0 || c.L2KB < 0 {
				return fmt.Errorf("hw: builder core class %d cache overrides must be positive", i)
			}
			cl1, cl2 := c.L1KB*KB, c.L2KB*KB
			if cl1 == 0 {
				cl1 = l1
			}
			if cl2 == 0 {
				cl2 = l2
			}
			if !(cl1 < cl2 && cl2 < llc) {
				return fmt.Errorf("hw: builder core class %d cache hierarchy must grow: L1 %d B < L2 %d B < LLC %d B", i, cl1, cl2, llc)
			}
			total += c.Count
		}
		if total != d.CoresPerSocket {
			return fmt.Errorf("hw: builder core classes cover %d cores per socket, machine has %d", total, d.CoresPerSocket)
		}
	}
	return nil
}

// Build validates the parameters and constructs the topology.
func (b TopologyBuilder) Build() (*Topology, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	d := b.withDefaults()
	t := &Topology{
		Sockets:        d.Sockets,
		CoresPerSocket: d.CoresPerSocket,
		L1:             CacheSpec{Size: d.L1KB * KB, Ways: d.L1Ways, LineSize: d.LineSize, LatencyNS: d.L1NS},
		L2:             CacheSpec{Size: d.L2KB * KB, Ways: d.L2Ways, LineSize: d.LineSize, LatencyNS: d.L2NS},
		LLC:            CacheSpec{Size: int64(d.LLCMB * float64(MB)), Ways: d.LLCWays, LineSize: d.LineSize, LatencyNS: d.LLCNS},
		MemLatencyNS:   d.MemNS,
		MemBandwidth:   int64(d.MemGBps * float64(GB)),
		CtxSwitchCost:  sim.Time(d.CtxSwitchUS * float64(sim.Microsecond)),
	}
	for _, c := range d.Classes {
		cc := CoreClass{Name: c.Name, Count: c.Count, Speed: c.Speed}
		if c.L1KB != 0 {
			l1 := t.L1
			l1.Size = c.L1KB * KB
			cc.L1 = &l1
		}
		if c.L2KB != 0 {
			l2 := t.L2
			l2.Size = c.L2KB * KB
			cc.L2 = &l2
		}
		t.Classes = append(t.Classes, cc)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustBuild is Build for statically known-good parameters.
func (b TopologyBuilder) MustBuild() *Topology {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
