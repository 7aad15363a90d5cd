package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"aqlsched/internal/sim"
)

// descs for tests live in the shared registry; use a distinct prefix
// so they can never collide with real registrations.
var (
	tLower = Register(Desc{Name: "test_lower", Unit: "us", Direction: LowerIsBetter, Scope: PerApp, Primary: true})
	tHigh  = Register(Desc{Name: "test_higher", Unit: "index", Direction: HigherIsBetter, Scope: PerApp})
	tDiag  = Register(Desc{Name: "test_diag", Unit: "count", Direction: DirNone, Scope: PerRun})
)

func TestRegistryOrderAndLookup(t *testing.T) {
	rank := map[string]int{}
	for i, d := range Descs() {
		rank[d.Name] = i
	}
	if !(rank["test_lower"] < rank["test_higher"] && rank["test_higher"] < rank["test_diag"]) {
		t.Error("registration order not preserved")
	}
	if d, ok := DescByName("test_lower"); !ok || !d.Primary || d.Unit != "us" {
		t.Errorf("lookup returned %+v", d)
	}
	if _, ok := DescByName("test_missing"); ok {
		t.Error("unknown name resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(Desc{Name: "test_lower"})
}

func TestDescNormalizedDirections(t *testing.T) {
	if v, ok := tLower.Normalized(2, 4); !ok || v != 0.5 {
		t.Errorf("lower-is-better norm = %v/%v", v, ok)
	}
	if _, ok := tLower.Normalized(2, 0); ok {
		t.Error("zero baseline normalized")
	}
	if v, ok := tHigh.Normalized(4, 2); !ok || v != 0.5 {
		t.Errorf("higher-is-better norm = %v/%v (want baseline/measured)", v, ok)
	}
	if _, ok := tHigh.Normalized(0, 2); ok {
		t.Error("zero measured rate normalized")
	}
	if _, ok := tDiag.Normalized(1, 1); ok {
		t.Error("diagnostic metric normalized")
	}
}

func TestSetOrderOverwriteAndPrimary(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Has("test_lower") {
		t.Error("zero Set not empty")
	}
	if _, _, ok := s.Primary(); ok {
		t.Error("empty Set has a primary")
	}
	s.Put(tHigh, 0.5)
	s.Put(tLower, 10)
	s.Put(tHigh, 0.9) // overwrite keeps position
	want := []string{"test_higher", "test_lower"}
	got := s.Names()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("names %v, want %v", got, want)
	}
	if v, ok := s.Get("test_higher"); !ok || v != 0.9 {
		t.Errorf("overwrite lost: %v/%v", v, ok)
	}
	d, v, ok := s.Primary()
	if !ok || d.Name != "test_lower" || v != 10 {
		t.Errorf("primary = %s %v %v", d.Name, v, ok)
	}

	var o Set
	o.Put(tLower, 10)
	o.Put(tHigh, 0.9)
	if s.Equal(o) {
		t.Error("Sets with different insertion order compare equal")
	}
	o = Set{}
	o.Put(tHigh, 0.9)
	o.Put(tLower, 10)
	if !s.Equal(o) {
		t.Error("order-identical Sets compare unequal after overwrite")
	}
	var p Set
	p.Put(tHigh, 0.9)
	p.Put(tLower, 10)
	if !o.Equal(p) {
		t.Error("identical Sets compare unequal")
	}

	defer func() {
		if recover() == nil {
			t.Error("Put of unregistered desc did not panic")
		}
	}()
	s.Put(Desc{Name: "test_unregistered"}, 1)
}

func TestJain(t *testing.T) {
	if v, ok := Jain([]float64{5, 5, 5, 5}); !ok || v != 1 {
		t.Errorf("equal allocation Jain = %v/%v, want exactly 1", v, ok)
	}
	// One active VM out of four: index collapses to 1/n.
	if v, ok := Jain([]float64{8, 0, 0, 0}); !ok || math.Abs(v-0.25) > 1e-12 {
		t.Errorf("maximally unfair Jain = %v, want 0.25", v)
	}
	if _, ok := Jain([]float64{3}); ok {
		t.Error("single-sample Jain defined")
	}
	if _, ok := Jain([]float64{0, 0}); ok {
		t.Error("all-zero Jain defined")
	}
	if _, ok := Jain(nil); ok {
		t.Error("empty Jain defined")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for _, x := range []sim.Time{10, 20, 30} {
		a.Record(x)
	}
	for _, x := range []sim.Time{40, 50} {
		b.Record(x)
	}
	a.Merge(b)
	if a.Count() != 5 {
		t.Fatalf("merged count %d, want 5", a.Count())
	}
	if got := a.Percentile(100); got != sim.Time(50) {
		t.Errorf("merged p100 = %v, want 50", got)
	}
	if got := a.Percentile(50); got != sim.Time(30) {
		t.Errorf("merged p50 = %v, want 30", got)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	var s Set
	s.Put(tLower, 123.456789e-3)
	s.Put(tHigh, 1.0/3.0) // not exactly representable in decimal
	s.Put(tDiag, 0)

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(back) {
		t.Errorf("round trip changed the set:\nbefore %v\nafter  %v", s.Names(), back.Names())
	}
	// Bit-exactness is what the sweep journal's byte-identical resume
	// rests on, so check a value that has no finite decimal expansion.
	if v, _ := back.Get("test_higher"); v != 1.0/3.0 {
		t.Errorf("1/3 round-tripped to %v", v)
	}
	// A second marshal must reproduce the bytes exactly.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("re-marshal differs:\n%s\n%s", data, data2)
	}
}

func TestSetUnmarshalRejectsUnknownMetric(t *testing.T) {
	var s Set
	err := json.Unmarshal([]byte(`[{"name": "test_not_registered", "value": 1}]`), &s)
	if err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("unknown metric accepted: %v", err)
	}
}

// twelve are the metrics of a full run-scoped Set: the hypervisor
// counters, the adaptation diagnostics and EDF's deadline accounting
// make twelve.
var twelve = func() []Desc {
	out := make([]Desc, 12)
	for i := range out {
		out[i] = Register(Desc{Name: fmt.Sprintf("test_m%02d", i), Unit: "count", Scope: PerRun})
	}
	return out
}()

// twelveValues exercise every float64 JSON form: integers, fractions
// without a finite decimal expansion, exponents either side, and a
// negative zero.
var twelveValues = []float64{0, 1, -2.5, 1.0 / 3, 123456789, 1e21, 1e-7, 0.1, math.Copysign(0, -1), 42, 2.5e-3, 1e20}

func buildTwelve() Set {
	var s Set
	for i, d := range twelve {
		s.Put(d, twelveValues[i])
	}
	return s
}

// TestSetMarshalPinned: a Set marshals to the bytes journal checkpoints
// have always held, so journals written before a change to the Set's
// representation still resume to identical artifacts.
func TestSetMarshalPinned(t *testing.T) {
	data, err := json.Marshal(buildTwelve())
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"name":"test_m00","value":0},{"name":"test_m01","value":1},{"name":"test_m02","value":-2.5},` +
		`{"name":"test_m03","value":0.3333333333333333},{"name":"test_m04","value":123456789},` +
		`{"name":"test_m05","value":1e+21},{"name":"test_m06","value":1e-7},{"name":"test_m07","value":0.1},` +
		`{"name":"test_m08","value":-0},{"name":"test_m09","value":42},{"name":"test_m10","value":0.0025},` +
		`{"name":"test_m11","value":100000000000000000000}]`
	if string(data) != want {
		t.Errorf("12-metric Set marshals to\n%s\nwant\n%s", data, want)
	}
	empty, err := json.Marshal(Set{})
	if err != nil || string(empty) != "[]" {
		t.Errorf("empty Set marshals to %s, %v; want []", empty, err)
	}
	var back Set
	if err := json.Unmarshal([]byte("[]"), &back); err != nil || back.Len() != 0 {
		t.Errorf("[] unmarshals to %v, %v", back.Names(), err)
	}
	if empty, _ := json.Marshal(back); string(empty) != "[]" {
		t.Errorf("a Set read from [] marshals to %s", empty)
	}
}

// TestSetAllocations: lookups allocate nothing, and building a
// 12-metric Set costs five allocations, the growth steps of one slice.
func TestSetAllocations(t *testing.T) {
	s := buildTwelve()
	lookups := testing.AllocsPerRun(100, func() {
		for _, d := range twelve {
			if _, ok := s.Get(d.Name); !ok || !s.Has(d.Name) {
				t.Fatalf("%s missing", d.Name)
			}
		}
		if s.Has("test_missing") {
			t.Fatal("test_missing present")
		}
	})
	if lookups != 0 {
		t.Errorf("Get and Has allocate %v times per pass, want 0", lookups)
	}
	if n := testing.AllocsPerRun(100, func() { buildTwelve() }); n != 5 {
		t.Errorf("building a 12-metric Set allocates %v times, want 5", n)
	}
}
