package catalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// --- Policy plugin registry -------------------------------------------------
//
// Every policy — the paper's baselines included — registers through one
// RegisterPolicyPlugin call: a descriptor (aliases, typed parameters)
// plus a build function. The registry derives everything downstream
// from the descriptor: the "name:k=v,k=v" string grammar spec files and
// CLIs use, validation of the {"policy": {"name": ..., "params": ...}}
// spec-file block, and the -list self-documentation.

// PolicyDesc declares one policy plugin; GET /v1/catalog serves it as
// the plugin's documentation.
type PolicyDesc struct {
	// Name is the canonical spelling ("fixed", "aql-w", "edf").
	Name string `json:"name"`
	// Aliases are additional spellings that resolve to the same plugin
	// ("xen-credit" for "xen").
	Aliases []string `json:"aliases,omitempty"`
	// Help is a one-line description for -list.
	Help string `json:"help,omitempty"`
	// Positional names the parameter that may be supplied without a
	// "key=" prefix, so "fixed:5ms" means "fixed:q=5ms". Empty means
	// every parameter must be named.
	Positional string `json:"positional,omitempty"`
	// Params declares the plugin's typed knobs.
	Params []scenario.ParamDesc `json:"params,omitempty"`
}

// Params carries the parsed, validated parameter values a plugin's
// build function receives: ints as int64, durations as sim.Time. Only
// parameters the user supplied (or that carry a declared default) are
// present.
type Params map[string]any

// Int reads an integer parameter.
func (p Params) Int(name string) (int, bool) {
	v, ok := p[name].(int64)
	return int(v), ok
}

// Duration reads a duration parameter.
func (p Params) Duration(name string) (sim.Time, bool) {
	v, ok := p[name].(sim.Time)
	return v, ok
}

type policyPlugin struct {
	desc  PolicyDesc
	build func(Params) (Policy, error)
}

var (
	pluginMu      sync.RWMutex
	plugins       []*policyPlugin // registration order, for grammar listings
	pluginByAlias = map[string]*policyPlugin{}
)

// RegisterPolicyPlugin registers a policy plugin. It panics on an
// invalid descriptor or a duplicate alias: plugins register from init
// functions and a collision is a programming error, not an input error.
func RegisterPolicyPlugin(desc PolicyDesc, build func(Params) (Policy, error)) {
	if desc.Name == "" {
		panic("catalog: RegisterPolicyPlugin with empty name")
	}
	if build == nil {
		panic(fmt.Sprintf("catalog: policy plugin %q has no build function", desc.Name))
	}
	seen := map[string]bool{}
	for _, d := range desc.Params {
		if d.Name == "" {
			panic(fmt.Sprintf("catalog: policy plugin %q declares an unnamed parameter", desc.Name))
		}
		if seen[d.Name] {
			panic(fmt.Sprintf("catalog: policy plugin %q declares parameter %q twice", desc.Name, d.Name))
		}
		seen[d.Name] = true
		switch d.Kind {
		case scenario.ParamInt, scenario.ParamDuration:
		default:
			panic(fmt.Sprintf("catalog: policy plugin %q parameter %q has unknown kind %q", desc.Name, d.Name, d.Kind))
		}
		// Defaults and bounds must themselves parse under the kind.
		for _, txt := range []string{d.Default, d.Min, d.Max} {
			if txt == "" {
				continue
			}
			if _, err := coerceText(d, txt); err != nil {
				panic(fmt.Sprintf("catalog: policy plugin %q parameter %q: bad declaration value %q: %v", desc.Name, d.Name, txt, err))
			}
		}
	}
	if desc.Positional != "" && !seen[desc.Positional] {
		panic(fmt.Sprintf("catalog: policy plugin %q positional %q is not a declared parameter", desc.Name, desc.Positional))
	}
	pl := &policyPlugin{desc: desc, build: build}
	aliases := append([]string{desc.Name}, desc.Aliases...)
	pluginMu.Lock()
	defer pluginMu.Unlock()
	// Validate every alias before inserting any, so a panicking
	// registration leaves the registry untouched.
	for _, alias := range aliases {
		if alias == "" {
			panic(fmt.Sprintf("catalog: policy plugin %q has an empty alias", desc.Name))
		}
		if strings.Contains(alias, ":") {
			panic(fmt.Sprintf("catalog: policy plugin alias %q may not contain %q", alias, ":"))
		}
		if _, dup := pluginByAlias[alias]; dup {
			panic(fmt.Sprintf("catalog: policy %q registered twice", alias))
		}
	}
	for _, alias := range aliases {
		pluginByAlias[alias] = pl
	}
	plugins = append(plugins, pl)
}

// PolicyPlugins lists the registered plugin descriptors sorted by name
// (the -list self-documentation surface).
func PolicyPlugins() []PolicyDesc {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	out := make([]PolicyDesc, 0, len(plugins))
	for _, pl := range plugins {
		out = append(out, pl.desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lookupPlugin(alias string) *policyPlugin {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	return pluginByAlias[alias]
}

// PolicyByName resolves a policy axis point from its string spelling:
// an alias ("aql", "xen-credit"), optionally followed by ":" and
// comma-separated arguments. An argument is either "key=value" or, for
// plugins with a positional parameter, a bare value ("fixed:5ms").
func PolicyByName(name string) (Policy, error) {
	base, arg, hasArg := strings.Cut(name, ":")
	pl := lookupPlugin(base)
	if pl == nil {
		return Policy{}, fmt.Errorf("catalog: unknown policy %q (want one of %s)", name, strings.Join(PolicyGrammar(), ", "))
	}
	params := Params{}
	if hasArg {
		if err := pl.parseArgs(arg, params); err != nil {
			return Policy{}, err
		}
	}
	if err := pl.finish(params); err != nil {
		return Policy{}, err
	}
	return pl.build(params)
}

// PolicyFromConfig resolves a policy from a spec file's structured
// {"policy": {"name": ..., "params": {...}}} block: name is a plugin
// alias (no ":" arguments) and params holds JSON values — strings in
// the same spellings the grammar accepts, or JSON numbers for numeric
// kinds.
func PolicyFromConfig(name string, raw map[string]any) (Policy, error) {
	if strings.Contains(name, ":") {
		return Policy{}, fmt.Errorf("catalog: policy block name %q may not carry %q arguments; use the params object", name, ":")
	}
	pl := lookupPlugin(name)
	if pl == nil {
		return Policy{}, fmt.Errorf("catalog: unknown policy %q (want one of %s)", name, strings.Join(PolicyGrammar(), ", "))
	}
	params := Params{}
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic first-error selection
	for _, k := range keys {
		d, ok := pl.param(k)
		if !ok {
			return Policy{}, fmt.Errorf("catalog: policy %q has no parameter %q (declared: %s)", pl.desc.Name, k, strings.Join(pl.paramNames(), ", "))
		}
		v, err := coerceJSON(d, raw[k])
		if err != nil {
			return Policy{}, err
		}
		if err := checkRange(d, v); err != nil {
			return Policy{}, err
		}
		params[k] = v
	}
	if err := pl.finish(params); err != nil {
		return Policy{}, err
	}
	return pl.build(params)
}

// PolicyGrammar lists every valid policy spelling: the bare aliases
// (sorted) plus the parameterized forms ("fixed:<duration>",
// "aql-w:<periods>") in plugin registration order.
func PolicyGrammar() []string {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	var bare, parameterized []string
	for _, pl := range plugins {
		if pl.bareResolvable() {
			bare = append(bare, pl.desc.Name)
			bare = append(bare, pl.desc.Aliases...)
		}
		if form := pl.grammarForm(); form != "" {
			parameterized = append(parameterized, form)
		}
	}
	sort.Strings(bare)
	return append(bare, parameterized...)
}

func (pl *policyPlugin) param(name string) (scenario.ParamDesc, bool) {
	for _, d := range pl.desc.Params {
		if d.Name == name {
			return d, true
		}
	}
	return scenario.ParamDesc{}, false
}

func (pl *policyPlugin) paramNames() []string {
	out := make([]string, len(pl.desc.Params))
	for i, d := range pl.desc.Params {
		out[i] = d.Name
	}
	return out
}

// bareResolvable reports whether the plugin resolves with no arguments
// (no required parameter lacks a default).
func (pl *policyPlugin) bareResolvable() bool {
	for _, d := range pl.desc.Params {
		if d.Required && d.Default == "" {
			return false
		}
	}
	return true
}

// grammarForm renders the parameterized spelling, or "" for plugins
// without parameters. The positional parameter shows as its bare hint
// ("fixed:<duration>"); named ones as "key=<hint>".
func (pl *policyPlugin) grammarForm() string {
	if len(pl.desc.Params) == 0 {
		return ""
	}
	parts := make([]string, 0, len(pl.desc.Params))
	for _, d := range pl.desc.Params {
		if d.Name == pl.desc.Positional {
			parts = append(parts, d.GrammarHint())
		} else {
			parts = append(parts, d.Name+"="+d.GrammarHint())
		}
	}
	return pl.desc.Name + ":" + strings.Join(parts, ",")
}

// parseArgs parses the text after the ":" — comma-separated "key=value"
// pairs, plus at most one bare value for the positional parameter.
func (pl *policyPlugin) parseArgs(arg string, params Params) error {
	for _, part := range strings.Split(arg, ",") {
		key, val, named := strings.Cut(part, "=")
		if !named {
			if pl.desc.Positional == "" {
				return fmt.Errorf("catalog: policy %q takes no positional argument; want %s", pl.desc.Name, pl.grammarOrBare())
			}
			key, val = pl.desc.Positional, part
		}
		d, ok := pl.param(key)
		if !ok {
			return fmt.Errorf("catalog: policy %q has no parameter %q (declared: %s)", pl.desc.Name, key, strings.Join(pl.paramNames(), ", "))
		}
		if _, dup := params[key]; dup {
			return fmt.Errorf("catalog: policy %q parameter %q given twice", pl.desc.Name, key)
		}
		v, err := coerceText(d, val)
		if err != nil {
			return err
		}
		if err := checkRange(d, v); err != nil {
			return err
		}
		params[key] = v
	}
	return nil
}

func (pl *policyPlugin) grammarOrBare() string {
	if form := pl.grammarForm(); form != "" {
		return form
	}
	return pl.desc.Name
}

// finish applies declared defaults and enforces required parameters.
func (pl *policyPlugin) finish(params Params) error {
	for _, d := range pl.desc.Params {
		if _, set := params[d.Name]; set {
			continue
		}
		if d.Default != "" {
			v, err := coerceText(d, d.Default)
			if err != nil {
				return err // unreachable: declaration values are pre-validated
			}
			params[d.Name] = v
			continue
		}
		if d.Required {
			return fmt.Errorf("catalog: policy %q requires %s (want %s)", pl.desc.Name, d.Name, pl.grammarOrBare())
		}
	}
	return nil
}

// coerceText parses one textual parameter value under its declared
// kind.
func coerceText(d scenario.ParamDesc, raw string) (any, error) {
	if d.Kind == scenario.ParamDuration {
		return ParseQuantum(raw)
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("catalog: bad %s %q: want an integer%s", d.Name, raw, rangeNote(d))
	}
	return n, nil
}

// coerceJSON converts one decoded JSON value (string, number) to the
// parameter's kind. Strings take the same spellings the grammar does;
// numbers are accepted for the int kind (integral only).
func coerceJSON(d scenario.ParamDesc, v any) (any, error) {
	switch x := v.(type) {
	case string:
		return coerceText(d, x)
	case int:
		// JSON decoding never produces int, but Go-authored builtin
		// specs do; fold into the float64 path.
		return coerceJSON(d, float64(x))
	case float64:
		if d.Kind == scenario.ParamDuration {
			return nil, fmt.Errorf("catalog: bad %s %v: want a duration string like \"5ms\"", d.Name, x)
		}
		n := int64(x)
		if float64(n) != x {
			return nil, fmt.Errorf("catalog: bad %s %v: want an integer%s", d.Name, x, rangeNote(d))
		}
		return n, nil
	}
	want := "a string"
	if d.Kind == scenario.ParamInt {
		want += " or number"
	}
	return nil, fmt.Errorf("catalog: bad %s value %v (%T): want %s", d.Name, v, v, want)
}

// checkRange enforces the declared inclusive [Min, Max] bounds.
func checkRange(d scenario.ParamDesc, v any) error {
	if d.Min == "" && d.Max == "" {
		return nil
	}
	out := fmt.Errorf("catalog: bad %s %s: want %s in [%s, %s]", d.Name, render(v), kindNoun(d.Kind), orInf(d.Min), orInf(d.Max))
	switch x := v.(type) {
	case int64:
		if d.Min != "" {
			if min, _ := strconv.ParseInt(d.Min, 10, 64); x < min {
				return out
			}
		}
		if d.Max != "" {
			if max, _ := strconv.ParseInt(d.Max, 10, 64); x > max {
				return out
			}
		}
	case sim.Time:
		if d.Min != "" {
			if min, _ := ParseQuantum(d.Min); x < min {
				return out
			}
		}
		if d.Max != "" {
			if max, _ := ParseQuantum(d.Max); x > max {
				return out
			}
		}
	}
	return nil
}

func render(v any) string {
	if t, ok := v.(sim.Time); ok {
		return t.String()
	}
	return fmt.Sprint(v)
}

func kindNoun(k scenario.ParamKind) string {
	if k == scenario.ParamInt {
		return "an integer"
	}
	return "a duration"
}

func orInf(bound string) string {
	if bound == "" {
		return "-"
	}
	return bound
}

func rangeNote(d scenario.ParamDesc) string {
	if d.Min == "" && d.Max == "" {
		return ""
	}
	return fmt.Sprintf(" in [%s, %s]", orInf(d.Min), orInf(d.Max))
}
