// Package catalog is the name → factory table layer between the
// paper's concrete catalogue (machines, benchmark apps, colocation
// scenarios, scheduling policies) and everything that references
// experiment axes by name (sweep spec files, cmd/aqlsweep, the
// experiments package). Each axis is a fixed table built once from the
// paper's lists in papers.go, so spec authors and tools discover every
// valid name from one place. Entries a spec file defines itself —
// generated scenarios, inline machines — resolve in the sweep layer and
// never enter a table.
//
// Tables hold factories, not values: every lookup constructs fresh
// state, which is what lets the sweep layer run grid cells concurrently
// without sharing topologies, app slices or policy controllers.
package catalog

import (
	"fmt"
	"sort"
	"strings"

	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/workload"
)

// Registry is a name → entry table for one kind of catalog entry. It is
// built once and never changes, so concurrent lookups need no lock.
type Registry[T any] struct {
	kind string
	m    map[string]T
}

// NewRegistry returns the table of entries; kind names the entry type
// in error messages ("scenario", "workload", ...).
func NewRegistry[T any](kind string, entries map[string]T) *Registry[T] {
	return &Registry[T]{kind: kind, m: entries}
}

// Lookup finds an entry by name.
func (r *Registry[T]) Lookup(name string) (T, error) {
	v, ok := r.m[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("catalog: unknown %s %q (known: %s)", r.kind, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// Has reports whether name is in the table.
func (r *Registry[T]) Has(name string) bool {
	_, ok := r.m[name]
	return ok
}

// Names lists the table's names, sorted.
func (r *Registry[T]) Names() []string {
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Domain tables ---------------------------------------------------------

// Policy is one resolvable policy axis point: the canonical display
// name plus a constructor returning a fresh policy instance per run.
type Policy struct {
	Name string
	New  func() scenario.Policy
}

// Scenarios maps scenario names (Table 4's S1..S5, four-socket,
// dynphase) to spec constructors.
var Scenarios = NewRegistry("scenario", paperScenarios())

// Workloads maps benchmark application names to AppSpec factories.
var Workloads = NewRegistry("workload", paperWorkloads())

// Topologies maps machine names to topology factories. Spec files
// resolve a scenario's "topology" here unless they define the name
// inline.
var Topologies = NewRegistry("topology", map[string]func() *hw.Topology{
	"i7-3770":      hw.I73770,
	"xeon-e5-4603": hw.XeonE54603,
})

// TopologyByName returns a fresh copy of a catalog machine.
func TopologyByName(name string) (*hw.Topology, error) {
	f, err := Topologies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// WorkloadByName resolves a benchmark application by name, with a
// clean error for user-supplied names (spec files).
func WorkloadByName(name string) (workload.AppSpec, error) {
	f, err := Workloads.Lookup(name)
	if err != nil {
		return workload.AppSpec{}, err
	}
	return f(), nil
}

// --- Policies ---------------------------------------------------------------
//
// Policies are parameterized ("fixed:10ms", "aql-w:8"), so the policy
// axis is a table of plugins (policyPlugins in papers.go): a descriptor
// declaring aliases and typed knobs plus a build function, from which
// the string grammar, the spec-file {"policy": ...} block, and the
// -list documentation all derive (plugin.go).

// ExtraAxis is an axis a layer above the catalog owns (the fleet's
// placement policies): the catalog cannot import those packages without
// a cycle, so their callers pass them to Document.
type ExtraAxis struct {
	Kind  string   `json:"kind"`
	Names []string `json:"names"`
}

// --- Metrics ---------------------------------------------------------------
//
// The canonical metric registry lives in internal/metrics (the scenario
// layer registers the paper's measurements at init); the catalog
// exposes it as the discovery surface tooling uses, exactly like the
// other axes.

// MetricDescs lists every registered measurement descriptor in
// registration order — the column order of schema-driven artifacts.
// Importing the catalog guarantees the scenario layer's registrations
// have run.
func MetricDescs() []metrics.Desc { return metrics.Descs() }

// MetricByName resolves one metric descriptor, with a clean error for
// user-supplied names (aqlsweep -metrics).
func MetricByName(name string) (metrics.Desc, error) {
	if d, ok := metrics.DescByName(name); ok {
		return d, nil
	}
	names := make([]string, 0, len(metrics.Descs()))
	for _, d := range metrics.Descs() {
		names = append(names, d.Name)
	}
	return metrics.Desc{}, fmt.Errorf("catalog: unknown metric %q (known: %s)", name, strings.Join(names, ", "))
}
