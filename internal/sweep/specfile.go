package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"

	"aqlsched/examples/specs"
	"aqlsched/internal/catalog"
	"aqlsched/internal/fleet"
	"aqlsched/internal/hw"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// --- Declarative spec files ------------------------------------------------

// File is the JSON on-disk sweep specification consumed by aqlsweep.
// Scenario entries are either catalog names ("S1", "four-socket"),
// catalog names with a topology override ({"name": "S1", "topology":
// "xeon-e5-4603"}), or inline generator blocks ({"gen": {...}}); see
// ScenarioRef. Policy entries use the catalog grammar understood by
// catalog.PolicyByName. Topology references resolve against the file's
// own "topologies" section first, then the catalog's machine table.
type File struct {
	Name string `json:"name"`
	// Topologies defines machines inline, by builder parameters; their
	// names are visible to this file's scenario entries only.
	Topologies map[string]hw.TopologyBuilder `json:"topologies,omitempty"`
	Scenarios  []ScenarioRef                 `json:"scenarios"`
	Policies   []PolicyRef                   `json:"policies"`
	// Quanta, when set, appends one fixed:<q> policy per entry (a
	// shorthand for quantum-length axes, e.g. ["1ms","10ms","90ms"]).
	Quanta   []string `json:"quanta,omitempty"`
	Baseline string   `json:"baseline,omitempty"`
	Seeds    int      `json:"seeds,omitempty"`
	BaseSeed uint64   `json:"base_seed,omitempty"`
	// WarmupMS and MeasureMS override every scenario's windows.
	WarmupMS  int64 `json:"warmup_ms,omitempty"`
	MeasureMS int64 `json:"measure_ms,omitempty"`
}

// ScenarioRef is one scenario-axis entry of a spec file. In JSON it is
// either a bare catalog name ("S1") or an object:
//
//	{"name": "S1", "topology": "big-box"}   // catalog scenario, other machine
//	{"gen": {"vcpus": 32, "mix": {...}}}    // generated colocation mix
type ScenarioRef struct {
	// Name references a catalog scenario.
	Name string `json:"name,omitempty"`
	// Topology moves the named scenario onto another machine (a
	// file-local or catalog topology). The scenario keeps its VM
	// population but runs on all pCPUs of the new machine; the axis
	// point is renamed "<name>@<topology>".
	Topology string `json:"topology,omitempty"`
	// Gen generates the scenario instead of naming one.
	Gen *GenBlock `json:"gen,omitempty"`
	// Fleet declares a multi-host fleet scenario. A fleet entry with
	// several placement policies expands into one axis point per
	// placement ("<name>+<placement>"), so placements sweep like any
	// other axis.
	Fleet *FleetBlock `json:"fleet,omitempty"`
}

// UnmarshalJSON accepts both the bare-name and the object form. The
// object form rejects unknown keys (custom unmarshalers do not inherit
// the outer decoder's DisallowUnknownFields).
func (r *ScenarioRef) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &r.Name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	type plain ScenarioRef // drop methods to avoid recursion
	return dec.Decode((*plain)(r))
}

// PolicyRef is one policy-axis entry of a spec file. In JSON it is
// either a grammar string ("aql", "fixed:5ms", "edf:deadline=10ms") or
// a structured block whose param values parse exactly like grammar
// text ("window": 8 is aql:window=8):
//
//	{"policy": {"name": "edf", "params": {"deadline": "10ms"}}}
type PolicyRef struct {
	// Name is the grammar spelling (string form).
	Name string
	// Block is the structured form, when given instead of Name.
	Block *PolicyBlock
}

// PolicyBlock is the structured policy spelling: a plugin name plus
// its typed parameters (numbers or strings for int knobs, duration
// strings like "10ms" for duration knobs).
type PolicyBlock struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// UnmarshalJSON accepts both the grammar-string and the {"policy": ...}
// object form. The object form rejects unknown keys (custom
// unmarshalers do not inherit the outer decoder's
// DisallowUnknownFields).
func (r *PolicyRef) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &r.Name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var obj struct {
		Policy *PolicyBlock `json:"policy"`
	}
	if err := dec.Decode(&obj); err != nil {
		return err
	}
	if obj.Policy == nil || obj.Policy.Name == "" {
		return fmt.Errorf(`sweep: policy entry object needs a {"policy": {"name": ...}} block`)
	}
	r.Block = obj.Policy
	return nil
}

// resolve turns the reference into a policy axis point.
func (r PolicyRef) resolve() (Policy, error) {
	if r.Block != nil {
		return catalog.PolicyFromConfig(r.Block.Name, r.Block.Params)
	}
	return catalog.PolicyByName(r.Name)
}

// GenBlock is the spec-file form of a generated colocation scenario.
// Its embedded scenario.GenSpec is the schema — the JSON tags on
// GenSpec and on the phase legs and churn block it holds name the keys
// — and GenBlock adds only the keys that need resolving against the
// file: the machine name, the pinned workload names and the phase
// probability. The name defaults to "gen<i>-<topology>-<vcpus>v" and
// the seed to the file's base seed.
type GenBlock struct {
	scenario.GenSpec
	// Topology names the machine (file-local or catalog; default
	// "i7-3770").
	Topology string `json:"topology,omitempty"`
	// Apps pins named catalog workloads into the population (one VM
	// each, deployed first, counted against the budget).
	Apps []string `json:"apps,omitempty"`
	// PhaseProb is the probability a generated VM is phased (default 1
	// when phases are set). An explicit 0 drops the phases.
	PhaseProb *float64 `json:"phase_prob,omitempty"`
}

// FleetBlock is the spec-file form of a multi-host fleet scenario. Its
// embedded fleet.Spec is the schema — the JSON tags on fleet.Spec and on
// the churn, rebalance and fault types it holds name the keys — and
// FleetBlock adds only the three keys that need resolving against the
// file: the machine name, one or more placement policies, and the
// tenant weight map.
type FleetBlock struct {
	fleet.Spec
	// Topology names the per-host machine (file-local or catalog;
	// default "i7-3770").
	Topology string `json:"topology,omitempty"`
	// Placement lists the placement policies to sweep; a bare string is
	// accepted for a single policy (default "least-loaded").
	Placement PlacementList `json:"placement,omitempty"`
	// Tenants maps tenant names to proportional-share weights (default
	// one tenant "t0" with weight 1). Names are sorted for a
	// deterministic tenant order.
	Tenants map[string]float64 `json:"tenants,omitempty"`
}

// PlacementList accepts either a JSON string or a list of strings.
type PlacementList []string

// UnmarshalJSON implements the string-or-list form.
func (p *PlacementList) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*p = PlacementList{s}
		return nil
	}
	return json.Unmarshal(data, (*[]string)(p))
}

// Parse turns raw spec-file JSON into a runnable Spec. Unknown keys are
// rejected: a typo ("llcmb" for "llc_mb") must fail the load, not fall
// back to a default and silently run a different experiment.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("sweep: bad spec file: %v", err)
	}
	return f.Spec()
}

// Load reads and parses a spec file from disk.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// topology resolves a machine reference: the file's inline topologies
// shadow the catalog's machine table.
func (f *File) topology(name string) (*hw.Topology, error) {
	if b, ok := f.Topologies[name]; ok {
		t, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("sweep: inline topology %q: %v", name, err)
		}
		return t, nil
	}
	return catalog.TopologyByName(name)
}

// scenarioAxis resolves one scenario entry into an axis point.
func (f *File) scenarioAxis(i int, r ScenarioRef) (Scenario, error) {
	switch {
	case r.Gen != nil:
		if r.Name != "" {
			return Scenario{}, fmt.Errorf("sweep: scenario entry %d sets both a name (%q) and a generator block", i, r.Name)
		}
		if r.Topology != "" {
			return Scenario{}, fmt.Errorf("sweep: scenario entry %d: put the topology inside the generator block ({\"gen\": {\"topology\": %q, ...}})", i, r.Topology)
		}
		return f.genAxis(i, r.Gen)

	case r.Name != "":
		newSpec, err := catalog.Scenarios.Lookup(r.Name)
		if err != nil {
			return Scenario{}, err
		}
		if r.Topology == "" {
			return Scenario{Name: r.Name, New: newSpec}, nil
		}
		topo, err := f.topology(r.Topology)
		if err != nil {
			return Scenario{}, err
		}
		name := r.Name + "@" + r.Topology
		return Scenario{Name: name, New: func() scenario.Spec {
			s := newSpec()
			t := *topo // fresh copy per run
			s.Topo = &t
			s.GuestPCPUs = nil // all pCPUs of the override machine
			s.Name = name
			return s
		}}, nil

	default:
		return Scenario{}, fmt.Errorf("sweep: scenario entry %d names no scenario and has no generator block", i)
	}
}

// genAxis expands a generator block into a scenario axis point. The
// GenSpec is validated (and trially expanded) at parse time so a bad
// block fails the load, not the run.
func (f *File) genAxis(i int, g *GenBlock) (Scenario, error) {
	topoName := g.Topology
	if topoName == "" {
		topoName = "i7-3770"
	}
	topo, err := f.topology(topoName)
	if err != nil {
		return Scenario{}, err
	}
	gs := g.GenSpec // the axis point owns its copy
	gs.Topo = topo
	for _, name := range g.Apps {
		app, err := catalog.WorkloadByName(name)
		if err != nil {
			return Scenario{}, fmt.Errorf("sweep: generator scenario %d: %v", i, err)
		}
		gs.Fixed = append(gs.Fixed, app)
	}
	if gs.Name == "" {
		gs.Name = fmt.Sprintf("gen%d-%s-%dv", i, topoName, gs.VCPUs)
	}
	gs.Seed = f.genSeed(gs.Seed)
	if p := g.PhaseProb; p != nil {
		if *p < 0 || *p > 1 {
			return Scenario{}, fmt.Errorf("sweep: generator scenario %d: phase_prob %v must be in [0, 1]", i, *p)
		}
		// An explicit 0 means "no VM is phased": drop the phases, since
		// GenSpec reads PhaseProb 0 as "unset, default 1".
		if *p == 0 {
			gs.Phases = nil
		}
		gs.PhaseProb = *p
	}
	if _, err := gs.Generate(); err != nil {
		return Scenario{}, fmt.Errorf("sweep: generator scenario %d: %v", i, err)
	}
	return Scenario{Name: gs.Name, New: gs.MustGenerate}, nil
}

// genSeed resolves a population seed: the block's own, else the file's
// base seed, else DefaultSeed.
func (f *File) genSeed(seed uint64) uint64 {
	if seed == 0 {
		seed = f.BaseSeed
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	return seed
}

// fleetAxis expands a fleet block into one scenario axis point per
// placement policy. The fleet spec is validated (and its VM timeline
// trially expanded) at parse time so a bad block — zero hosts, an
// unknown placement, a non-positive tenant weight — fails the load, not
// the run.
func (f *File) fleetAxis(i int, fb *FleetBlock) ([]Scenario, error) {
	base := fb.Spec
	if fb.Topology != "" {
		t, err := f.topology(fb.Topology)
		if err != nil {
			return nil, fmt.Errorf("sweep: fleet scenario %d: %v", i, err)
		}
		base.Topo = t
	}
	names := make([]string, 0, len(fb.Tenants))
	for n := range fb.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		base.Tenants = append(base.Tenants, fleet.Tenant{Name: n, Weight: fb.Tenants[n]})
	}
	base.GenSeed = f.genSeed(base.GenSeed)
	if base.Name == "" {
		base.Name = fmt.Sprintf("fleet%d-%dh", i, base.Hosts)
	}

	placements := []string(fb.Placement)
	if len(placements) == 0 {
		placements = []string{"least-loaded"}
	}
	var out []Scenario
	for _, pl := range placements {
		p := base // one copy per placement
		p.Placement = pl
		if len(placements) > 1 {
			p.Name = base.Name + "+" + pl
		}
		if _, err := p.GenVMs(); err != nil {
			return nil, fmt.Errorf("sweep: fleet scenario %d: %v", i, err)
		}
		out = append(out, Scenario{Name: p.Name, NewFleet: func() *fleet.Spec {
			c := p
			return &c
		}})
	}
	return out, nil
}

// Spec resolves the file's names into a runnable Spec.
func (f *File) Spec() (*Spec, error) {
	if f.WarmupMS < 0 || f.MeasureMS < 0 {
		return nil, fmt.Errorf("sweep: warmup_ms and measure_ms must not be negative (got %d, %d)", f.WarmupMS, f.MeasureMS)
	}
	warmup, err := sim.FromMillis(f.WarmupMS)
	if err != nil {
		return nil, fmt.Errorf("sweep: warmup_ms: %v", err)
	}
	measure, err := sim.FromMillis(f.MeasureMS)
	if err != nil {
		return nil, fmt.Errorf("sweep: measure_ms: %v", err)
	}
	s := &Spec{
		Name:     f.Name,
		Baseline: f.Baseline,
		Seeds:    f.Seeds,
		BaseSeed: f.BaseSeed,
		Warmup:   warmup,
		Measure:  measure,
	}
	if s.Name == "" {
		s.Name = "sweep"
	}
	for i, ref := range f.Scenarios {
		if ref.Fleet != nil {
			if ref.Name != "" || ref.Gen != nil {
				return nil, fmt.Errorf("sweep: scenario entry %d combines a fleet block with a name or generator block", i)
			}
			scs, err := f.fleetAxis(i, ref.Fleet)
			if err != nil {
				return nil, err
			}
			s.Scenarios = append(s.Scenarios, scs...)
			continue
		}
		sc, err := f.scenarioAxis(i, ref)
		if err != nil {
			return nil, err
		}
		s.Scenarios = append(s.Scenarios, sc)
	}
	for _, ref := range f.Policies {
		p, err := ref.resolve()
		if err != nil {
			return nil, err
		}
		s.Policies = append(s.Policies, p)
	}
	for _, q := range f.Quanta {
		p, err := catalog.PolicyByName("fixed:" + q)
		if err != nil {
			return nil, err
		}
		s.Policies = append(s.Policies, p)
	}
	// Accept both spellings for the baseline: the spec-file policy
	// syntax ("xen", "fixed:30ms") and the resolved policy name
	// ("xen-credit", "fixed-30.000ms").
	if s.Baseline != "" {
		if p, err := catalog.PolicyByName(s.Baseline); err == nil {
			s.Baseline = p.Name
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- Built-in sweeps -------------------------------------------------------

// Builtin returns a named built-in sweep: the spec file of that name
// embedded from examples/specs ("fig8" parses fig8.json).
func Builtin(name string) (*Spec, bool) {
	data, err := specs.FS.ReadFile(name + ".json")
	if err != nil {
		return nil, false
	}
	s, err := Parse(data)
	if err != nil {
		panic("sweep: bad builtin " + name + ": " + err.Error())
	}
	return s, true
}

// BuiltinNames lists the built-in sweeps, sorted.
func BuiltinNames() []string {
	files, _ := fs.Glob(specs.FS, "*.json") // errors only on a malformed pattern
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = strings.TrimSuffix(f, ".json")
	}
	sort.Strings(out)
	return out
}
