// Package catalog is the name → factory registry layer between the
// paper's concrete catalogue (machines, benchmark apps, colocation
// scenarios, scheduling policies) and everything that references
// experiment axes by name (sweep spec files, cmd/aqlsweep, the
// experiments package). Each axis has a registry; the paper's entries
// register themselves in papers.go, and new entries — generated
// scenarios, custom machines — join through the same Register calls, so
// spec authors and tools discover every valid name from one place.
//
// Registries hold factories, not values: every lookup constructs fresh
// state, which is what lets the sweep layer run grid cells concurrently
// without sharing topologies, app slices or policy controllers.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aqlsched/internal/hw"
	"aqlsched/internal/metrics"
	"aqlsched/internal/scenario"
	"aqlsched/internal/workload"
)

// Registry is a concurrency-safe name → factory table for one kind of
// catalog entry.
type Registry[T any] struct {
	kind string
	mu   sync.RWMutex
	m    map[string]T
}

// NewRegistry returns an empty registry; kind names the entry type in
// error messages ("scenario", "workload", ...).
func NewRegistry[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, m: map[string]T{}}
}

// Register adds an entry. It panics on an empty name or a duplicate:
// registries are populated from init functions and a collision is a
// programming error, not an input error.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic("catalog: Register with empty " + r.kind + " name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("catalog: %s %q registered twice", r.kind, name))
	}
	r.m[name] = v
}

// Lookup finds an entry by name.
func (r *Registry[T]) Lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("catalog: unknown %s %q (known: %s)", r.kind, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// Has reports whether name is registered.
func (r *Registry[T]) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.m[name]
	return ok
}

// Names lists the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Domain registries -----------------------------------------------------

// Policy is one resolvable policy axis point: the canonical display
// name plus a constructor returning a fresh policy instance per run.
type Policy struct {
	Name string
	New  func() scenario.Policy
}

// Scenarios maps scenario names (S1..S5, four-socket, and anything
// registered later) to spec constructors.
var Scenarios = NewRegistry[func() scenario.Spec]("scenario")

// Workloads maps benchmark application names to AppSpec factories.
var Workloads = NewRegistry[func() workload.AppSpec]("workload")

// Topologies maps machine names (i7-3770, xeon-e5-4603) to topology
// factories. Spec files resolve a scenario's "topology" here unless
// they define the name inline.
var Topologies = NewRegistry[func() *hw.Topology]("topology")

// TopologyByName returns a fresh copy of a registered machine.
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
// axis is a plugin registry (plugin.go): a descriptor declaring
// aliases and typed knobs plus a build function, from which the string
// grammar, the spec-file {"policy": ...} block, and the -list
// documentation all derive.

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
