package fleet

import (
	"aqlsched/internal/catalog"
	"aqlsched/internal/fairshare"
)

// Placement decides which pending VM is admitted next and onto which
// host. Choose inspects the fleet read-only and returns the index into
// pending plus the target host; ok=false when nothing can be placed
// right now (the fleet retries whenever capacity frees up). Choices
// must be pure functions of fleet state — no randomness, no wall clock
// — so fleet runs stay bit-identical at any worker count.
type Placement interface {
	Name() string
	Choose(f *Fleet, pending []*VM) (vmIdx int, host *Host, ok bool)
}

// Placements is the placement-policy table, the fleet's axis in the
// catalog: spec files validate "placement" entries against it and
// aqlsweep -list prints it alongside the quantum-policy grammar. The
// placements keep no state, so every fleet shares these values.
var Placements = catalog.NewRegistry("placement", map[string]Placement{
	"least-loaded":     leastLoaded{},
	"bin-pack":         binPack{},
	"tenant-fairshare": fairShare{},
})

// fits reports whether host h can admit demand more vCPUs right now: a
// down host admits nothing, a degraded host only up to its effective
// capacity.
func fits(h *Host, demand int) bool { return h.Committed()+demand <= h.EffCapacity() }

// bestHost scans hosts in ID order and returns the one minimizing (or,
// with pack=true, maximizing) admission load among those that fit.
// Strict inequality on the comparison keeps ties on the lowest ID.
func bestHost(f *Fleet, demand int, pack bool) *Host {
	var best *Host
	var bestLoad float64
	for _, h := range f.Hosts {
		if !fits(h, demand) {
			continue
		}
		l := h.Load()
		if best == nil || (pack && l > bestLoad) || (!pack && l < bestLoad) {
			best, bestLoad = h, l
		}
	}
	return best
}

// leastLoaded admits strictly in arrival order (no overtaking: a big VM
// at the head blocks smaller ones behind it, which is what keeps the
// policy starvation-free) and spreads onto the least-loaded fitting
// host.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Choose(f *Fleet, pending []*VM) (int, *Host, bool) {
	if len(pending) == 0 {
		return 0, nil, false
	}
	h := bestHost(f, pending[0].VCPUs(), false)
	if h == nil {
		return 0, nil, false
	}
	return 0, h, true
}

// binPack admits in arrival order but packs onto the most-loaded host
// that still fits, concentrating load so whole hosts stay empty — the
// classic consolidation/imbalance trade-off against least-loaded.
type binPack struct{}

func (binPack) Name() string { return "bin-pack" }

func (binPack) Choose(f *Fleet, pending []*VM) (int, *Host, bool) {
	if len(pending) == 0 {
		return 0, nil, false
	}
	h := bestHost(f, pending[0].VCPUs(), true)
	if h == nil {
		return 0, nil, false
	}
	return 0, h, true
}

// fairShare admits the most underserved tenant first: tenants are
// ordered by committed vCPUs over weight (their current share deficit,
// the fairshare package's deficit round), and the winner's oldest
// pending VM goes to the least-loaded fitting host. When that VM fits
// nowhere, the next tenant in deficit order gets its turn — small VMs
// of a less-deficient tenant may overtake a blocked large one, trading
// strict FIFO for share convergence.
type fairShare struct{}

func (fairShare) Name() string { return "tenant-fairshare" }

func (fairShare) Choose(f *Fleet, pending []*VM) (int, *Host, bool) {
	var entries []fairshare.Entry
	var vmIdx []int
	seen := make(map[int]bool, len(f.Tenants))
	for i, vm := range pending {
		if seen[vm.Tenant] {
			continue
		}
		seen[vm.Tenant] = true
		entries = append(entries, fairshare.Entry{
			Key:    vm.Tenant,
			Served: float64(f.tenantCommitted[vm.Tenant]),
			Weight: f.Tenants[vm.Tenant].Weight,
		})
		vmIdx = append(vmIdx, i)
	}
	for _, j := range fairshare.Order(entries) {
		if h := bestHost(f, pending[vmIdx[j]].VCPUs(), false); h != nil {
			return vmIdx[j], h, true
		}
	}
	return 0, nil, false
}
