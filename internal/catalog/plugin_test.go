package catalog

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aqlsched/internal/baselines"
	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// TestPluginUnknownParam: a parameter the descriptor does not declare
// must fail with an error naming both the typo and the declared knobs,
// in every spelling (string grammar and config block).
func TestPluginUnknownParam(t *testing.T) {
	if _, err := PolicyByName("aql:widnow=4"); err == nil ||
		!strings.Contains(err.Error(), `no parameter "widnow"`) ||
		!strings.Contains(err.Error(), "window") {
		t.Errorf("string spelling: err = %v, want unknown-param naming the declared one", err)
	}
	if _, err := PolicyFromConfig("aql", map[string]any{"widnow": 4}); err == nil ||
		!strings.Contains(err.Error(), `no parameter "widnow"`) {
		t.Errorf("config block: err = %v, want unknown-param", err)
	}
}

// TestPluginOutOfRange: values outside a declared [Min, Max] must fail
// in both spellings, and the error must carry the offending value.
func TestPluginOutOfRange(t *testing.T) {
	for _, bad := range []string{"aql:window=0", "aql:window=65", "aql-w:65", "aql-w:n=0"} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("%q resolved despite out-of-range window", bad)
		}
	}
	if _, err := PolicyFromConfig("aql", map[string]any{"window": 65}); err == nil ||
		!strings.Contains(err.Error(), "65") {
		t.Errorf("config block out-of-range: err = %v", err)
	}
	// In-range endpoints must still resolve.
	for _, ok := range []string{"aql:window=1", "aql:window=64", "aql-w:1"} {
		if _, err := PolicyByName(ok); err != nil {
			t.Errorf("%q: %v", ok, err)
		}
	}
}

// policyTableProblems checks every declaration of a policy table and
// returns one line per fault: names and aliases are non-empty, unique
// and free of ":", each parameter is named once with a known kind, the
// positional parameter is declared, defaults and bounds parse under
// their kind, and only int parameters declare bounds.
func policyTableProblems(table []policyPlugin) []string {
	var out []string
	seen := map[string]bool{}
	for _, pl := range table {
		d := pl.desc
		if pl.build == nil {
			out = append(out, fmt.Sprintf("policy %q has no build function", d.Name))
		}
		for _, alias := range append([]string{d.Name}, d.Aliases...) {
			if alias == "" || strings.Contains(alias, ":") || seen[alias] {
				out = append(out, fmt.Sprintf("policy %q: alias %q is empty, holds \":\" or is taken", d.Name, alias))
			}
			seen[alias] = true
		}
		params := map[string]bool{}
		for _, p := range d.Params {
			if p.Name == "" || params[p.Name] {
				out = append(out, fmt.Sprintf("policy %q: parameter %q is unnamed or declared twice", d.Name, p.Name))
			}
			params[p.Name] = true
			if p.Kind != scenario.ParamInt && p.Kind != scenario.ParamDuration {
				out = append(out, fmt.Sprintf("policy %q parameter %q has unknown kind %q", d.Name, p.Name, p.Kind))
			}
			if p.Kind != scenario.ParamInt && (p.Min != "" || p.Max != "") {
				out = append(out, fmt.Sprintf("policy %q parameter %q: only int parameters may declare bounds", d.Name, p.Name))
			}
			for _, txt := range []string{p.Default, p.Min, p.Max} {
				if txt == "" {
					continue
				}
				if _, err := coerceText(p, txt); err != nil {
					out = append(out, fmt.Sprintf("policy %q parameter %q: bad declaration value %q: %v", d.Name, p.Name, txt, err))
				}
			}
		}
		if d.Positional != "" && !params[d.Positional] {
			out = append(out, fmt.Sprintf("policy %q: positional %q is not a declared parameter", d.Name, d.Positional))
		}
	}
	return out
}

// TestPolicyTable: the real policy table passes every declaration check.
func TestPolicyTable(t *testing.T) {
	for _, problem := range policyTableProblems(policyPlugins) {
		t.Error(problem)
	}
}

// TestPluginDuplicateRegistration: an entry whose name or alias is
// already taken by the policy table is reported.
func TestPluginDuplicateRegistration(t *testing.T) {
	cases := []PolicyDesc{
		{Name: "xen"}, // canonical name taken
		{Name: "zz-fresh", Aliases: []string{"xen-credit"}}, // alias taken
	}
	for _, desc := range cases {
		table := append(slices.Clone(policyPlugins), policyPlugin{desc, func(Params) Policy { return XenPolicy() }})
		if len(policyTableProblems(table)) == 0 {
			t.Errorf("adding %+v to the policy table passed the checks", desc)
		}
	}
}

// TestPluginDescValidation: broken descriptors (undeclared positional,
// ":" in an alias, unparsable default or bound, unknown kind, a bound on
// a duration, no build function) are reported.
func TestPluginDescValidation(t *testing.T) {
	build := func(Params) Policy { return XenPolicy() }
	cases := []policyPlugin{
		{PolicyDesc{Name: "zz-a", Positional: "ghost"}, build},
		{PolicyDesc{Name: "zz-b", Aliases: []string{"zz:b"}}, build},
		{PolicyDesc{Name: "zz-c", Params: []scenario.ParamDesc{{Name: "q", Kind: scenario.ParamDuration, Default: "zebra"}}}, build},
		{PolicyDesc{Name: "zz-d", Params: []scenario.ParamDesc{{Name: "n", Kind: scenario.ParamInt, Min: "high"}}}, build},
		{PolicyDesc{Name: "zz-e", Params: []scenario.ParamDesc{{Name: "x", Kind: "blob"}}}, build},
		{PolicyDesc{Name: "zz-f", Params: []scenario.ParamDesc{{Name: "q", Kind: scenario.ParamDuration, Max: "5ms"}}}, build},
		{PolicyDesc{Name: "zz-g"}, nil},
	}
	for _, pl := range cases {
		if len(policyTableProblems([]policyPlugin{pl})) == 0 {
			t.Errorf("policy %+v passed the checks", pl.desc)
		}
	}
}

// TestPluginRequiredParam: omitting a required parameter fails with an
// error naming it; the config-block spelling supplies it as JSON.
func TestPluginRequiredParam(t *testing.T) {
	if _, err := PolicyByName("fixed"); err == nil || !strings.Contains(err.Error(), "q") {
		t.Errorf("bare fixed resolved, err = %v", err)
	}
	if _, err := PolicyFromConfig("edf", nil); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Errorf("edf without deadline: err = %v", err)
	}
}

// TestPolicyFromConfigMatchesGrammar: the {"policy": {...}} block and
// the string grammar are two spellings of the same plugin call — same
// axis name, equivalent instances.
func TestPolicyFromConfigMatchesGrammar(t *testing.T) {
	cases := []struct {
		str    string
		name   string
		params map[string]any
	}{
		{"xen", "xen", nil},
		{"aql", "aql", nil},
		{"aql:window=8", "aql", map[string]any{"window": 8}},
		{"fixed:5ms", "fixed", map[string]any{"q": "5ms"}},
		{"aql-nocustom:1ms", "aql-nocustom", map[string]any{"q": "1ms"}},
		{"hetero-aql", "hetero-aql", nil},
		{"hetero-aql:2ms", "hetero-aql", map[string]any{"fast_q": "2ms"}},
		{"edf:10ms", "edf", map[string]any{"deadline": "10ms"}},
	}
	for _, c := range cases {
		want, err := PolicyByName(c.str)
		if err != nil {
			t.Fatalf("%s: %v", c.str, err)
		}
		got, err := PolicyFromConfig(c.name, c.params)
		if err != nil {
			t.Fatalf("config %s %v: %v", c.name, c.params, err)
		}
		if got.Name != want.Name {
			t.Errorf("config %s %v resolved to %q, grammar %q gave %q", c.name, c.params, got.Name, c.str, want.Name)
		}
		if !reflect.DeepEqual(got.New(), want.New()) {
			t.Errorf("config %s %v builds a different instance than %q", c.name, c.params, c.str)
		}
	}
}

// TestPolicyFromConfigCoercion: JSON numbers for durations and
// fractional floats for ints must be rejected, not silently rounded.
func TestPolicyFromConfigCoercion(t *testing.T) {
	if _, err := PolicyFromConfig("fixed", map[string]any{"q": 5}); err == nil {
		t.Error("numeric duration accepted; durations must be strings like \"5ms\"")
	}
	if _, err := PolicyFromConfig("aql", map[string]any{"window": 4.5}); err == nil {
		t.Error("fractional int accepted")
	}
	// JSON decoding hands ints over as float64; integral values must work.
	p, err := PolicyFromConfig("aql", map[string]any{"window": float64(8)})
	if err != nil || p.Name != "aql-w8" {
		t.Errorf("integral float64 window: %+v, %v", p, err)
	}
}

// TestLegacySpellingsMatchConstructors: every pre-plugin spelling must
// resolve through the policy table to exactly the Policy the direct
// constructor builds — same axis name, deep-equal fresh instances.
// This is the refactor's no-regression contract: sweep artifacts key on
// Policy.Name, so name identity plus instance equality keeps every
// golden artifact byte-identical.
func TestLegacySpellingsMatchConstructors(t *testing.T) {
	cases := []struct {
		spelling string
		want     Policy
	}{
		{"xen", XenPolicy()},
		{"xen-credit", XenPolicy()},
		{"aql", AQLPolicy()},
		{"aql-w:2", AQLWindowPolicy(2)},
		{"aql:window=2", AQLWindowPolicy(2)},
		{"aql-nocustom:5ms", AQLNoCustomPolicy(5 * sim.Millisecond)},
		{"fixed:10ms", FixedPolicy(10 * sim.Millisecond)},
		{"vturbo", policy(func() scenario.Policy { return baselines.VTurbo{} })},
		{"vslicer", policy(func() scenario.Policy { return baselines.VSlicer{} })},
		{"microsliced", policy(func() scenario.Policy { return baselines.Microsliced() })},
		{"hetero-aql", policy(func() scenario.Policy { return &baselines.HeteroAQL{FastQ: sim.Millisecond} })},
		{"edf:10ms", policy(func() scenario.Policy { return &baselines.EDF{Deadline: 10 * sim.Millisecond} })},
	}
	for _, c := range cases {
		got, err := PolicyByName(c.spelling)
		if err != nil {
			t.Errorf("%s: %v", c.spelling, err)
			continue
		}
		if got.Name != c.want.Name {
			t.Errorf("%s resolved to %q, want %q", c.spelling, got.Name, c.want.Name)
		}
		if !reflect.DeepEqual(got.New(), c.want.New()) {
			t.Errorf("%s builds a different policy instance than its constructor", c.spelling)
		}
	}
}

// TestPolicyPluginsListing: -list renders from PolicyPlugins(); the
// descriptors must be sorted, carry the paper policies, and keep the
// parameterized spellings in the grammar.
func TestPolicyPluginsListing(t *testing.T) {
	descs := PolicyPlugins()
	seen := map[string]PolicyDesc{}
	for i, d := range descs {
		seen[d.Name] = d
		if i > 0 && descs[i-1].Name >= d.Name {
			t.Errorf("descriptors not sorted: %q before %q", descs[i-1].Name, d.Name)
		}
	}
	for _, want := range []string{"xen", "aql", "aql-w", "aql-nocustom", "fixed", "vturbo", "vslicer", "microsliced", "hetero-aql", "edf"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("plugin %q missing from PolicyPlugins()", want)
		}
	}
	if d := seen["aql"]; len(d.Params) != 1 || d.Params[0].GrammarHint() != "<periods>" {
		t.Errorf("aql descriptor params = %+v", d.Params)
	}
	if d := seen["edf"]; len(d.Params) != 1 || !d.Params[0].Required || d.Params[0].Kind != scenario.ParamDuration {
		t.Errorf("edf descriptor params = %+v", d.Params)
	}
}
