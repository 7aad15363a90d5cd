// Package cluster implements the paper's two-level clustering
// (Section 3.5).
//
// Level 1 (Algorithm 1) distributes vCPUs across sockets: vCPUs are
// split into a "trashing" list (LLCO vCPUs, plus IOInt/ConSpin vCPUs
// whose LLCO cursor exceeds 50% — noted IOInt+/ConSpin+) and a
// "non-trashing" list (everything else, ordered with LoLCF first so
// LLCF vCPUs end up as far from trashers as possible). The concatenated
// list is cut into equal per-socket chunks, keeping vCPUs of the same VM
// together (NUMA affinity).
//
// Note: the paper's Algorithm 1 line 5 tests `max(...) = LLCF_cur_avg`
// for membership of the *trashing* list — an evident typo for
// LLCO_cur_avg (LLCF vCPUs are the sensitive ones the split protects).
// We implement the clear intent.
//
// Level 2 (Algorithm 2) works per socket: vCPUs are grouped by quantum
// length compatibility (QLC) — every type whose calibrated best quantum
// is q joins cluster C^q; quantum-agnostic vCPUs (LoLCF, LLCO) pad the
// clusters to multiples of k = vCPUs-per-pCPU. pCPUs are then dealt out
// fairly: a pCPU whose k vCPUs would have to come from clusters with
// different quanta forms the default cluster, scheduled with the default
// quantum (30 ms).
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// VCPUInfo is the clustering input for one vCPU: its recognized type
// and its trashing (LLCO cursor) intensity.
type VCPUInfo struct {
	// V points at the vCPU while a plan is built and applied; a finished
	// run's layout names it by VM alone (core.Controller.Release).
	V       *xen.VCPU
	VM      string // the vCPU's domain name
	Type    vcputype.Type
	LLCOAvg float64
}

// Variant renders the paper's type notation: IOInt+ / ConSpin+ for
// trashing-intense IO/spin vCPUs, IOInt- / ConSpin- otherwise.
func (i VCPUInfo) Variant() string {
	switch i.Type {
	case vcputype.IOInt, vcputype.ConSpin:
		if i.LLCOAvg > TrashingThreshold {
			return i.Type.String() + "+"
		}
		return i.Type.String() + "-"
	default:
		return i.Type.String()
	}
}

// TrashingThreshold is the LLCO-cursor level above which an IOInt or
// ConSpin vCPU counts as a trasher ("tremendous, let us say greater
// than 50%" — Section 3.5).
const TrashingThreshold = 50.0

// QuantumTable maps each vCPU type to its calibrated best quantum.
// Types absent from Best are quantum-agnostic (LoLCF, LLCO).
type QuantumTable struct {
	Best    map[vcputype.Type]sim.Time
	Default sim.Time
}

// PaperTable returns the calibration outcome of Section 3.4.2: IOInt
// and ConSpin at 1 ms, LLCF at 90 ms, LoLCF/LLCO agnostic, default
// 30 ms (Xen's).
func PaperTable() QuantumTable {
	return QuantumTable{
		Best: map[vcputype.Type]sim.Time{
			vcputype.IOInt:   1 * sim.Millisecond,
			vcputype.ConSpin: 1 * sim.Millisecond,
			vcputype.LLCF:    90 * sim.Millisecond,
		},
		Default: 30 * sim.Millisecond,
	}
}

// QuantumFor reports the best quantum for a type and whether the type
// is calibrated (false = agnostic).
func (qt QuantumTable) QuantumFor(t vcputype.Type) (sim.Time, bool) {
	q, ok := qt.Best[t]
	return q, ok
}

// IsTrashing implements the (corrected) Algorithm 1 membership test.
func IsTrashing(i VCPUInfo) bool {
	switch i.Type {
	case vcputype.LLCO:
		return true
	case vcputype.IOInt, vcputype.ConSpin:
		return i.LLCOAvg > TrashingThreshold
	default:
		return false
	}
}

// AssignSockets implements Algorithm 1: returns, per socket (in socket
// order), the vCPU infos placed there. Infos must be provided in a
// stable order; the algorithm re-orders them VM-by-VM as line 3
// requires.
func AssignSockets(infos []VCPUInfo, sockets []hw.SocketID, topo *hw.Topology) map[hw.SocketID][]VCPUInfo {
	if len(sockets) == 0 {
		panic("cluster: no sockets to assign to")
	}
	// Line 3: order vCPUs so those of the same VM follow each other.
	// Creation order already groups by domain; a stable sort by domain
	// ID makes it explicit.
	ordered := append([]VCPUInfo(nil), infos...)
	sort.SliceStable(ordered, func(a, b int) bool {
		return ordered[a].V.Domain.ID < ordered[b].V.Domain.ID
	})

	// Lines 4-10: split into trashing and non-trashing.
	var trashing, nonTrashing []VCPUInfo
	for _, i := range ordered {
		if IsTrashing(i) {
			trashing = append(trashing, i)
		} else {
			nonTrashing = append(nonTrashing, i)
		}
	}
	// Line 11: LoLCF first in the non-trashing list, so that the socket
	// that mixes trashing and non-trashing receives LoLCF (insensitive)
	// rather than LLCF vCPUs.
	sort.SliceStable(nonTrashing, func(a, b int) bool {
		aIsLoLCF := nonTrashing[a].Type == vcputype.LoLCF
		bIsLoLCF := nonTrashing[b].Type == vcputype.LoLCF
		return aIsLoLCF && !bIsLoLCF
	})

	// Lines 12-17: deal n vCPUs to each socket, trashing list first.
	combined := append(trashing, nonTrashing...)
	out := make(map[hw.SocketID][]VCPUInfo, len(sockets))
	n := len(combined) / len(sockets)
	rem := len(combined) % len(sockets)
	pos := 0
	for idx, s := range sockets {
		take := n
		if idx < rem {
			take++
		}
		out[s] = combined[pos : pos+take]
		pos += take
	}
	return out
}

// Cluster is one quantum-compatibility cluster bound to a pCPU pool.
type Cluster struct {
	// Name follows the paper's notation, e.g. "C3^90ms".
	Name string
	// Quantum is the pool's time-slice.
	Quantum sim.Time
	// Default marks the C^dq cluster of mixed leftovers.
	Default bool
	// Socket hosting the cluster.
	Socket hw.SocketID
	// PCPUs assigned to the cluster.
	PCPUs []hw.PCPUID
	// Members in assignment order.
	Members []VCPUInfo
}

// String renders a summary.
func (c *Cluster) String() string {
	return fmt.Sprintf("%s{q=%v, pcpus=%d, vcpus=%d}", c.Name, c.Quantum, len(c.PCPUs), len(c.Members))
}

// MemberSummary counts the members per variant, variants sorted by
// name: "5 ConSpin-, 3 LoLCF" (Table 5's members column).
func (c *Cluster) MemberSummary() string {
	byVariant := map[string]int{}
	for _, m := range c.Members {
		byVariant[m.Variant()]++
	}
	keys := make([]string, 0, len(byVariant))
	for k := range byVariant {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%d %s", byVariant[k], k)
	}
	return strings.Join(parts, ", ")
}

// clusterSocket implements Algorithm 2 on one socket. nextID numbers
// clusters globally (C1, C2, ... as in Fig. 3).
func clusterSocket(socket hw.SocketID, vcpus []VCPUInfo, pcpus []hw.PCPUID, qt QuantumTable, nextID *int) []*Cluster {
	if len(vcpus) == 0 {
		// Idle socket: one default cluster holding the pCPUs.
		*nextID++
		return []*Cluster{{
			Name:    fmt.Sprintf("C%d^%s", *nextID, qt.Default),
			Quantum: qt.Default,
			Default: true,
			Socket:  socket,
			PCPUs:   append([]hw.PCPUID(nil), pcpus...),
		}}
	}
	// Lines 2-7: group non-agnostic vCPUs by calibrated quantum,
	// ascending quantum order for determinism.
	groups := make(map[sim.Time][]VCPUInfo)
	var agnostic []VCPUInfo
	for _, i := range vcpus {
		if q, ok := qt.QuantumFor(i.Type); ok {
			groups[q] = append(groups[q], i)
		} else {
			agnostic = append(agnostic, i)
		}
	}
	quanta := make([]sim.Time, 0, len(groups))
	for q := range groups {
		quanta = append(quanta, q)
	}
	sort.Slice(quanta, func(a, b int) bool { return quanta[a] < quanta[b] })

	// Fairness unit: k vCPUs per pCPU (line 11), rounded up so every
	// vCPU fits somewhere.
	k := (len(vcpus) + len(pcpus) - 1) / len(pcpus)
	if k == 0 {
		k = 1
	}

	// Line 10: agnostic vCPUs pad clusters toward multiples of k.
	type protoCluster struct {
		q       sim.Time
		members []VCPUInfo
	}
	var protos []*protoCluster
	for _, q := range quanta {
		protos = append(protos, &protoCluster{q: q, members: groups[q]})
	}
	for _, pc := range protos {
		for len(agnostic) > 0 && len(pc.members)%k != 0 {
			pc.members = append(pc.members, agnostic[0])
			agnostic = agnostic[1:]
		}
	}
	// Remaining agnostics balance the clusters (line 10): k at a time to
	// whichever cluster currently has the fewest members, so pCPUs end
	// up evenly split (the paper's S4: the four LLCO balancers join the
	// LLCF cluster, giving two pCPUs to each cluster). An all-agnostic
	// socket forms a default-quantum cluster.
	if len(agnostic) > 0 && len(protos) == 0 {
		protos = append(protos, &protoCluster{q: qt.Default})
	}
	for len(agnostic) > 0 {
		smallest := protos[0]
		for _, pc := range protos[1:] {
			if len(pc.members) < len(smallest.members) {
				smallest = pc
			}
		}
		take := k
		if take > len(agnostic) {
			take = len(agnostic)
		}
		smallest.members = append(smallest.members, agnostic[:take]...)
		agnostic = agnostic[take:]
	}

	// Lines 12-29: deal pCPUs, spilling mixed remainders into the
	// default cluster.
	clusters := make(map[sim.Time]*Cluster)
	var defaultCluster *Cluster
	var order []*Cluster
	getCluster := func(q sim.Time) *Cluster {
		if c, ok := clusters[q]; ok {
			return c
		}
		*nextID++
		c := &Cluster{
			Name:    fmt.Sprintf("C%d^%s", *nextID, q),
			Quantum: q,
			Socket:  socket,
		}
		clusters[q] = c
		order = append(order, c)
		return c
	}
	getDefault := func() *Cluster {
		if defaultCluster == nil {
			*nextID++
			defaultCluster = &Cluster{
				Name:    fmt.Sprintf("C%d^%s", *nextID, qt.Default),
				Quantum: qt.Default,
				Default: true,
				Socket:  socket,
			}
			order = append(order, defaultCluster)
		}
		return defaultCluster
	}

	gi := 0 // current proto-cluster index
	for _, p := range pcpus {
		// Skip exhausted proto-clusters.
		for gi < len(protos) && len(protos[gi].members) == 0 {
			gi++
		}
		if gi >= len(protos) {
			// More pCPUs than needed: attach spare pCPUs to the last
			// cluster created (its pool simply has headroom).
			if len(order) > 0 {
				last := order[len(order)-1]
				last.PCPUs = append(last.PCPUs, p)
			} else {
				c := getCluster(qt.Default)
				c.PCPUs = append(c.PCPUs, p)
			}
			continue
		}
		pc := protos[gi]
		if len(pc.members) >= k {
			// Lines 14-16: a full complement from one cluster.
			c := getCluster(pc.q)
			c.Members = append(c.Members, pc.members[:k]...)
			c.PCPUs = append(c.PCPUs, p)
			pc.members = pc.members[k:]
			continue
		}
		// Lines 17-27: the cluster cannot fill this pCPU alone.
		take := append([]VCPUInfo(nil), pc.members...)
		pc.members = nil
		isLast := gi == len(protos)-1
		if !isLast {
			// Mix in vCPUs from following clusters; the mixed set runs
			// under the default quantum (lines 20-24).
			for len(take) < k {
				gi++
				for gi < len(protos) && len(protos[gi].members) == 0 {
					gi++
				}
				if gi >= len(protos) {
					break
				}
				need := k - len(take)
				nc := protos[gi]
				if need > len(nc.members) {
					need = len(nc.members)
				}
				take = append(take, nc.members[:need]...)
				nc.members = nc.members[need:]
			}
			c := getDefault()
			c.Members = append(c.Members, take...)
			c.PCPUs = append(c.PCPUs, p)
			continue
		}
		// Lines 25-26: trailing partial cluster keeps its quantum.
		c := getCluster(pc.q)
		c.Members = append(c.Members, take...)
		c.PCPUs = append(c.PCPUs, p)
	}
	return order
}

// Plan is the outcome of the two-level clustering.
type Plan struct {
	Clusters []*Cluster
}

// Build runs both levels for the given vCPU infos over the hypervisor's
// guest pCPUs and returns the cluster layout.
func Build(h *xen.Hypervisor, infos []VCPUInfo, qt QuantumTable) *Plan {
	topo := h.Topo
	// Group guest pCPUs per socket, keeping only sockets that have any.
	perSocket := make(map[hw.SocketID][]hw.PCPUID)
	var sockets []hw.SocketID
	for _, p := range h.GuestPCPUs() {
		s := topo.SocketOf(p)
		if _, ok := perSocket[s]; !ok {
			sockets = append(sockets, s)
		}
		perSocket[s] = append(perSocket[s], p)
	}
	sort.Slice(sockets, func(a, b int) bool { return sockets[a] < sockets[b] })

	assignment := AssignSockets(infos, sockets, topo)
	plan := &Plan{}
	id := 0
	for _, s := range sockets {
		plan.Clusters = append(plan.Clusters, clusterSocket(s, assignment[s], perSocket[s], qt, &id)...)
	}
	return plan
}

// ToPoolPlan converts the cluster layout into a hypervisor pool plan.
func (p *Plan) ToPoolPlan() *xen.PoolPlan {
	pp := &xen.PoolPlan{Assign: make(map[*xen.VCPU]*xen.CPUPool)}
	for _, c := range p.Clusters {
		pool := xen.NewCPUPool(c.Name, c.Quantum, c.PCPUs)
		pp.Pools = append(pp.Pools, pool)
		for _, m := range c.Members {
			pp.Assign[m.V] = pool
		}
	}
	return pp
}

// Signature produces a stable string describing the assignment, used to
// detect whether a new plan actually changes anything.
func (p *Plan) Signature() string {
	var sb []byte
	for _, c := range p.Clusters {
		sb = append(sb, fmt.Sprintf("%s|q=%v|p=%v|", c.Name, c.Quantum, c.PCPUs)...)
		for _, m := range c.Members {
			sb = append(sb, fmt.Sprintf("%d,", m.V.Global)...)
		}
		sb = append(sb, ';')
	}
	return string(sb)
}
