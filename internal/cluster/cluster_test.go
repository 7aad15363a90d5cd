package cluster_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"aqlsched/internal/cluster"
	"aqlsched/internal/credit"
	"aqlsched/internal/hw"
	"aqlsched/internal/sim"
	"aqlsched/internal/vcputype"
	"aqlsched/internal/xen"
)

// buildVCPUs creates count single-vCPU domains of each listed type, in
// list order, and returns infos typed accordingly.
func buildVCPUs(h *xen.Hypervisor, groups []struct {
	t     vcputype.Type
	count int
	llco  float64
}) []cluster.VCPUInfo {
	var infos []cluster.VCPUInfo
	for gi, g := range groups {
		for i := 0; i < g.count; i++ {
			d := h.CreateDomain(fmt.Sprintf("%v-%d-%d", g.t, gi, i), 256, 0, 1)
			infos = append(infos, cluster.VCPUInfo{V: d.VCPUs[0], Type: g.t, LLCOAvg: g.llco})
		}
	}
	return infos
}

func fourSocketHyp() *xen.Hypervisor {
	topo := hw.XeonE54603()
	var guest []hw.PCPUID
	for s := hw.SocketID(1); s <= 3; s++ {
		guest = append(guest, topo.PCPUsOfSocket(s)...)
	}
	return xen.New(topo, credit.New(), 1, xen.WithGuestPCPUs(guest))
}

// TestFig3Reproduction checks the paper's worked example: 12 LLCO, 12
// IOInt+, 17 LLCF, 7 ConSpin- vCPUs on 3 guest sockets x 4 pCPUs form
// exactly 6 clusters with the layout of Fig. 3.
func TestFig3Reproduction(t *testing.T) {
	h := fourSocketHyp()
	infos := buildVCPUs(h, []struct {
		t     vcputype.Type
		count int
		llco  float64
	}{
		{vcputype.LLCO, 12, 100},
		{vcputype.IOInt, 12, 90}, // IOInt+ (trashing)
		{vcputype.LLCF, 17, 5},
		{vcputype.ConSpin, 7, 5}, // ConSpin-
	})
	plan := cluster.Build(h, infos, cluster.PaperTable())

	if len(plan.Clusters) != 6 {
		for _, c := range plan.Clusters {
			t.Logf("  %v", c)
		}
		t.Fatalf("formed %d clusters, want 6 (Fig. 3)", len(plan.Clusters))
	}

	// Socket 1 (first guest socket): one 1ms cluster of 16 vCPUs
	// (12 LLCO + 4 IOInt+).
	s1 := clustersOn(plan, 1)
	if len(s1) != 1 || s1[0].Quantum != 1*sim.Millisecond || len(s1[0].Members) != 16 {
		t.Errorf("socket1: %v, want one 1ms cluster of 16", s1)
	}
	counts := typeCounts(s1[0].Members)
	if counts[vcputype.LLCO] != 12 || counts[vcputype.IOInt] != 4 {
		t.Errorf("socket1 composition %v, want 12 LLCO + 4 IOInt+", counts)
	}

	// Socket 2: a 1ms cluster (8 IOInt+) and a 90ms cluster (8 LLCF).
	s2 := clustersOn(plan, 2)
	if len(s2) != 2 {
		t.Fatalf("socket2 has %d clusters, want 2: %v", len(s2), s2)
	}
	if got := findByQuantum(t, s2, 1*sim.Millisecond); len(got.Members) != 8 || typeCounts(got.Members)[vcputype.IOInt] != 8 {
		t.Errorf("socket2 1ms cluster: %v (%v), want 8 IOInt+", got, typeCounts(got.Members))
	}
	if got := findByQuantum(t, s2, 90*sim.Millisecond); len(got.Members) != 8 || typeCounts(got.Members)[vcputype.LLCF] != 8 {
		t.Errorf("socket2 90ms cluster: %v, want 8 LLCF", got)
	}

	// Socket 3: 9 LLCF + 7 ConSpin- -> a 1ms cluster (4 ConSpin), a
	// 90ms cluster (8 LLCF) and a default 30ms cluster of the mixed
	// remainder (3 ConSpin + 1 LLCF), exactly as the paper narrates.
	s3 := clustersOn(plan, 3)
	if len(s3) != 3 {
		t.Fatalf("socket3 has %d clusters, want 3: %v", len(s3), s3)
	}
	def := findDefault(t, s3)
	if def.Quantum != 30*sim.Millisecond || len(def.Members) != 4 {
		t.Errorf("default cluster %v with %d members, want 30ms with 4", def, len(def.Members))
	}
	dc := typeCounts(def.Members)
	if dc[vcputype.ConSpin] != 3 || dc[vcputype.LLCF] != 1 {
		t.Errorf("default cluster composition %v, want 3 ConSpin + 1 LLCF", dc)
	}
	if got := findByQuantum(t, s3, 90*sim.Millisecond); len(got.Members) != 8 {
		t.Errorf("socket3 90ms cluster has %d members, want 8", len(got.Members))
	}
	if got := findByQuantum(t, s3, 1*sim.Millisecond); len(got.Members) != 4 || typeCounts(got.Members)[vcputype.ConSpin] != 4 {
		t.Errorf("socket3 1ms cluster %v, want 4 ConSpin", got)
	}

	// No trasher may share sockets 2-3's LLCF-only pools... more
	// precisely: socket 3 must host no trashing vCPU at all.
	for _, c := range s3 {
		for _, m := range c.Members {
			if cluster.IsTrashing(m) {
				t.Errorf("trashing vCPU %v on socket 3", m.V)
			}
		}
	}

	// Fairness: 4 vCPUs per pCPU everywhere.
	for _, c := range plan.Clusters {
		if len(c.PCPUs) == 0 {
			t.Errorf("cluster %v has no pCPUs", c)
			continue
		}
		perPCPU := float64(len(c.Members)) / float64(len(c.PCPUs))
		if perPCPU > 4 {
			t.Errorf("cluster %v overloads its pCPUs: %.1f vCPUs/pCPU", c, perPCPU)
		}
	}

	// The plan must convert to a valid hypervisor pool plan.
	if err := plan.ToPoolPlan().Validate(h); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
}

func clustersOn(p *cluster.Plan, s hw.SocketID) []*cluster.Cluster {
	var out []*cluster.Cluster
	for _, c := range p.Clusters {
		if c.Socket == s {
			out = append(out, c)
		}
	}
	return out
}

func typeCounts(ms []cluster.VCPUInfo) map[vcputype.Type]int {
	out := map[vcputype.Type]int{}
	for _, m := range ms {
		out[m.Type]++
	}
	return out
}

func findByQuantum(t *testing.T, cs []*cluster.Cluster, q sim.Time) *cluster.Cluster {
	t.Helper()
	for _, c := range cs {
		if c.Quantum == q && !c.Default {
			return c
		}
	}
	t.Fatalf("no non-default cluster with quantum %v in %v", q, cs)
	return nil
}

func findDefault(t *testing.T, cs []*cluster.Cluster) *cluster.Cluster {
	t.Helper()
	for _, c := range cs {
		if c.Default {
			return c
		}
	}
	t.Fatalf("no default cluster in %v", cs)
	return nil
}

func TestTrashingClassification(t *testing.T) {
	mk := func(ty vcputype.Type, llco float64) cluster.VCPUInfo {
		return cluster.VCPUInfo{Type: ty, LLCOAvg: llco}
	}
	cases := []struct {
		info cluster.VCPUInfo
		want bool
		name string
	}{
		{mk(vcputype.LLCO, 100), true, "LLCO"},
		{mk(vcputype.LLCF, 100), false, "LLCF never trashing"},
		{mk(vcputype.LoLCF, 0), false, "LoLCF"},
		{mk(vcputype.IOInt, 90), true, "IOInt+"},
		{mk(vcputype.IOInt, 10), false, "IOInt-"},
		{mk(vcputype.ConSpin, 60), true, "ConSpin+"},
		{mk(vcputype.ConSpin, 50), false, "ConSpin at threshold"},
	}
	for _, c := range cases {
		if got := cluster.IsTrashing(c.info); got != c.want {
			t.Errorf("%s: IsTrashing = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestVariantNotation(t *testing.T) {
	if v := (cluster.VCPUInfo{Type: vcputype.IOInt, LLCOAvg: 80}).Variant(); v != "IOInt+" {
		t.Errorf("variant %q, want IOInt+", v)
	}
	if v := (cluster.VCPUInfo{Type: vcputype.ConSpin, LLCOAvg: 10}).Variant(); v != "ConSpin-" {
		t.Errorf("variant %q, want ConSpin-", v)
	}
	if v := (cluster.VCPUInfo{Type: vcputype.LLCF}).Variant(); v != "LLCF" {
		t.Errorf("variant %q, want LLCF", v)
	}
}

// TestMemberSummary: members count per variant, variants sorted by
// name, as Table 5 prints them.
func TestMemberSummary(t *testing.T) {
	c := &cluster.Cluster{Members: []cluster.VCPUInfo{
		{Type: vcputype.LoLCF}, {Type: vcputype.ConSpin, LLCOAvg: 10},
		{Type: vcputype.LoLCF}, {Type: vcputype.ConSpin, LLCOAvg: 10},
		{Type: vcputype.ConSpin, LLCOAvg: 80},
	}}
	if got, want := c.MemberSummary(), "1 ConSpin+, 2 ConSpin-, 2 LoLCF"; got != want {
		t.Errorf("MemberSummary = %q, want %q", got, want)
	}
	if got := (&cluster.Cluster{}).MemberSummary(); got != "" {
		t.Errorf("empty cluster summary = %q, want \"\"", got)
	}
}

func TestSingleSocketScenarioS1Clustering(t *testing.T) {
	// Table 5 S1: {5 ConSpin + 3 LoLCF} at 1ms and {5 LLCF + 3 LoLCF}
	// at 90ms, 2 pCPUs each.
	topo := hw.I73770()
	h := xen.New(topo, credit.New(), 1, xen.WithGuestPCPUs([]hw.PCPUID{0, 1, 2, 3}))
	infos := buildVCPUs(h, []struct {
		t     vcputype.Type
		count int
		llco  float64
	}{
		{vcputype.ConSpin, 5, 5},
		{vcputype.LLCF, 5, 5},
		{vcputype.LoLCF, 6, 0},
	})
	plan := cluster.Build(h, infos, cluster.PaperTable())
	if len(plan.Clusters) != 2 {
		t.Fatalf("%d clusters, want 2 (Table 5 S1): %v", len(plan.Clusters), plan.Clusters)
	}
	c1 := findByQuantum(t, plan.Clusters, 1*sim.Millisecond)
	c90 := findByQuantum(t, plan.Clusters, 90*sim.Millisecond)
	tc1, tc90 := typeCounts(c1.Members), typeCounts(c90.Members)
	if tc1[vcputype.ConSpin] != 5 || tc1[vcputype.LoLCF] != 3 || len(c1.Members) != 8 {
		t.Errorf("C1 composition %v, want 5 ConSpin + 3 LoLCF", tc1)
	}
	if tc90[vcputype.LLCF] != 5 || tc90[vcputype.LoLCF] != 3 || len(c90.Members) != 8 {
		t.Errorf("C90 composition %v, want 5 LLCF + 3 LoLCF", tc90)
	}
	if len(c1.PCPUs) != 2 || len(c90.PCPUs) != 2 {
		t.Errorf("pCPU split %d/%d, want 2/2", len(c1.PCPUs), len(c90.PCPUs))
	}
}

func TestAllAgnosticSocketGetsDefaultQuantum(t *testing.T) {
	topo := hw.I73770()
	h := xen.New(topo, credit.New(), 1, xen.WithGuestPCPUs([]hw.PCPUID{0, 1}))
	infos := buildVCPUs(h, []struct {
		t     vcputype.Type
		count int
		llco  float64
	}{
		{vcputype.LoLCF, 4, 0},
		{vcputype.LLCO, 4, 100},
	})
	plan := cluster.Build(h, infos, cluster.PaperTable())
	for _, c := range plan.Clusters {
		if c.Quantum != 30*sim.Millisecond {
			t.Errorf("all-agnostic cluster %v has quantum %v, want default 30ms", c, c.Quantum)
		}
	}
}

// Property: for arbitrary type mixes, the clustering always (a) assigns
// every vCPU exactly once, (b) partitions the guest pCPUs, (c) keeps
// per-pool load within the fairness bound ceil(totV/totP) per pCPU on
// each socket, and (d) produces a plan the hypervisor accepts.
func TestClusteringInvariantsProperty(t *testing.T) {
	f := func(mix [5]uint8) bool {
		h := fourSocketHyp()
		var groups []struct {
			t     vcputype.Type
			count int
			llco  float64
		}
		types := vcputype.All()
		total := 0
		for i, c := range mix {
			n := int(c % 9)
			total += n
			llco := 0.0
			if types[i] == vcputype.LLCO {
				llco = 100
			}
			groups = append(groups, struct {
				t     vcputype.Type
				count int
				llco  float64
			}{types[i], n, llco})
		}
		if total == 0 {
			return true
		}
		infos := buildVCPUs(h, groups)
		plan := cluster.Build(h, infos, cluster.PaperTable())

		seen := map[*xen.VCPU]int{}
		for _, c := range plan.Clusters {
			for _, m := range c.Members {
				seen[m.V]++
			}
		}
		if len(seen) != total {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return plan.ToPoolPlan().Validate(h) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
