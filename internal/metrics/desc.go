package metrics

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Direction classifies how a metric's value relates to "better". It
// drives baseline normalization: direction-aware metrics normalize to
// the paper's lower-is-better form, direction-less diagnostics never
// normalize.
type Direction uint8

const (
	// DirNone marks a diagnostic: the value describes the run but has
	// no better/worse ordering the harness should act on.
	DirNone Direction = iota
	// LowerIsBetter metrics (latency, time-per-job) normalize as
	// measured/baseline.
	LowerIsBetter
	// HigherIsBetter metrics (fairness) normalize as baseline/measured,
	// so the normalized form is lower-is-better like everything else.
	HigherIsBetter
)

func (d Direction) String() string {
	switch d {
	case LowerIsBetter:
		return "lower"
	case HigherIsBetter:
		return "higher"
	}
	return "n/a"
}

// AggKind describes how a metric's per-run value is produced by its
// probe. Across seed replications every metric aggregates the same way
// (mean, stddev, 95% CI); the kind is self-description for tooling
// (aqlsweep -list-metrics) and artifact readers.
type AggKind uint8

const (
	// AggMean: the run value is a mean over within-run samples.
	AggMean AggKind = iota
	// AggPercentile: the run value is a percentile of within-run samples.
	AggPercentile
	// AggCount: the run value counts events over the measurement window.
	AggCount
	// AggFraction: the run value is a ratio in [0, 1].
	AggFraction
	// AggIndex: the run value is a dimensionless index (e.g. Jain).
	AggIndex
)

func (k AggKind) String() string {
	switch k {
	case AggPercentile:
		return "percentile"
	case AggCount:
		return "count"
	case AggFraction:
		return "fraction"
	case AggIndex:
		return "index"
	}
	return "mean"
}

// Scope tells whether a metric is measured once per application (and
// per VM) or once per run.
type Scope uint8

const (
	// PerApp metrics live on each application's (and VM's) measurement.
	PerApp Scope = iota
	// PerRun metrics live on the run itself (hypervisor counters,
	// adaptation diagnostics).
	PerRun
)

func (s Scope) String() string {
	if s == PerRun {
		return "per-run"
	}
	return "per-app"
}

// Desc is the self-describing type of one measurement: its registry
// name, unit, direction, production kind and scope. Every value that
// flows scenario → sweep → emitters is a (Desc, float64) pair inside a
// Set; emitters derive their columns from the Descs present, so adding
// a metric is one Register call plus one Put at the probe site.
type Desc struct {
	// Name identifies the metric in Sets, artifacts and -metrics
	// selections.
	Name string
	// Unit is the value's unit ("us", "s", "count", ...).
	Unit string
	// Direction drives baseline normalization; DirNone diagnostics are
	// never normalized.
	Direction Direction
	// Agg describes how the probe produces the per-run value.
	Agg AggKind
	// Scope is per-app or per-run.
	Scope Scope
	// Primary marks an application's headline performance metric — the
	// value the paper's figures normalize. An app's Set contains at most
	// one primary metric (mean latency for IO apps, time-per-job for
	// batch apps).
	Primary bool
	// Help is a one-line description for -list-metrics.
	Help string
}

// Normalized applies the desc's direction to a (measured, baseline)
// pair, returning the paper's lower-is-better normalized performance.
// ok is false for direction-less metrics and non-positive denominators
// (a failed or zero baseline cannot normalize anything).
func (d Desc) Normalized(measured, baseline float64) (v float64, ok bool) {
	switch d.Direction {
	case LowerIsBetter:
		if baseline <= 0 {
			return 0, false
		}
		return measured / baseline, true
	case HigherIsBetter:
		if measured <= 0 {
			return 0, false
		}
		return baseline / measured, true
	}
	return 0, false
}

// Schema is the JSON self-description of one metric: a Desc with its
// enums spelled out, as artifacts and the catalog document carry it.
type Schema struct {
	Name      string `json:"name"`
	Unit      string `json:"unit"`
	Direction string `json:"direction"`
	Agg       string `json:"agg"`
	Scope     string `json:"scope"`
}

// Schema renders the desc's self-description.
func (d Desc) Schema() Schema {
	return Schema{
		Name:      d.Name,
		Unit:      d.Unit,
		Direction: d.Direction.String(),
		Agg:       d.Agg.String(),
		Scope:     d.Scope.String(),
	}
}

// --- Registry --------------------------------------------------------------

var (
	regOrder  []string
	regByName = map[string]Desc{}
)

// Register adds a Desc to the package registry and returns it, so a
// client binds the result to a package-level var and Puts through it.
// Only package initialization may call it: the registry is read
// without a lock. The registration order — deterministic for a given
// binary — is the emission order of every schema-driven artifact.
// Empty or duplicate names panic: a collision is a programming error,
// not an input error.
func Register(d Desc) Desc {
	if d.Name == "" {
		panic("metrics: Register with empty name")
	}
	if _, dup := regByName[d.Name]; dup {
		panic(fmt.Sprintf("metrics: %q registered twice", d.Name))
	}
	regByName[d.Name] = d
	regOrder = append(regOrder, d.Name)
	return d
}

// Descs lists every registered Desc in registration order.
func Descs() []Desc {
	out := make([]Desc, len(regOrder))
	for i, n := range regOrder {
		out[i] = regByName[n]
	}
	return out
}

// DescByName finds a registered Desc.
func DescByName(name string) (Desc, bool) {
	d, ok := regByName[name]
	return d, ok
}

// --- Set -------------------------------------------------------------------

// Set is an ordered collection of measurements: metric name → value,
// iterated in insertion order. A metric a probe could not measure (a
// batch app that completed no jobs, a run that recognized no flips) is
// simply absent, which is how "failed measurement" is represented —
// aggregation walks the union of present metrics and skips absences.
// The zero Set is empty and ready to use.
//
// A Set is one slice, and a set holds a couple of dozen metrics at
// most, so lookups scan it. Copies of a Set share that slice: never
// Put through two copies of one Set.
type Set struct {
	entries []setEntry
}

// setEntry is one measurement, and its JSON shape.
type setEntry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func (s Set) find(name string) int {
	for i := range s.entries {
		if s.entries[i].Name == name {
			return i
		}
	}
	return -1
}

// Put records a measurement under its Desc. Re-putting a name
// overwrites the value and keeps the original position.
func (s *Set) Put(d Desc, v float64) {
	if _, registered := DescByName(d.Name); !registered {
		panic(fmt.Sprintf("metrics: Put of unregistered metric %q", d.Name))
	}
	if i := s.find(d.Name); i >= 0 {
		s.entries[i].Value = v
		return
	}
	s.entries = append(s.entries, setEntry{Name: d.Name, Value: v})
}

// Get reports the value recorded under name.
func (s Set) Get(name string) (float64, bool) {
	if i := s.find(name); i >= 0 {
		return s.entries[i].Value, true
	}
	return 0, false
}

// Has reports whether name was recorded.
func (s Set) Has(name string) bool { return s.find(name) >= 0 }

// Names lists the recorded metric names in insertion order.
func (s Set) Names() []string {
	out := make([]string, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.Name
	}
	return out
}

// Len reports how many metrics were recorded.
func (s Set) Len() int { return len(s.entries) }

// Primary returns the Set's primary performance metric (the value the
// paper's figures normalize), or ok=false when the measurement failed
// and no primary metric was recorded.
func (s Set) Primary() (Desc, float64, bool) {
	for _, e := range s.entries {
		if d, ok := DescByName(e.Name); ok && d.Primary {
			return d, e.Value, true
		}
	}
	return Desc{}, 0, false
}

// Equal reports whether two sets hold the same metrics, in the same
// order, with identical values (sim determinism tests compare Sets).
func (s Set) Equal(o Set) bool {
	return slices.Equal(s.entries, o.entries)
}

// MarshalJSON encodes the Set as an ordered array of {name, value}
// pairs, preserving insertion order so a marshal/unmarshal round trip
// reproduces the Set exactly (Equal). Go's float64 JSON encoding
// round-trips bit-exactly, which is what lets the sweep journal restore
// byte-identical artifacts. An empty Set encodes as [].
func (s Set) MarshalJSON() ([]byte, error) {
	if s.entries == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(s.entries)
}

// UnmarshalJSON decodes the array form. Every name must resolve in the
// registry — a journal written by a binary with metrics this one does
// not know fails the load instead of resurfacing later as a Put panic.
func (s *Set) UnmarshalJSON(data []byte) error {
	var entries []setEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	*s = Set{}
	for _, e := range entries {
		d, ok := DescByName(e.Name)
		if !ok {
			return fmt.Errorf("metrics: unknown metric %q in serialized set", e.Name)
		}
		s.Put(d, e.Value)
	}
	return nil
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over the samples:
// 1 when all values are equal, approaching 1/n under maximal
// inequality. ok is false with fewer than two samples or an all-zero
// sample set (fairness of nothing is undefined, not perfect).
func Jain(xs []float64) (v float64, ok bool) {
	if len(xs) < 2 {
		return 0, false
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0, false
	}
	return sum * sum / (float64(len(xs)) * sumSq), true
}
