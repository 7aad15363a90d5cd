package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"aqlsched/internal/scenario"
	"aqlsched/internal/sim"
)

// --- Policy plugins ---------------------------------------------------------
//
// Every policy — the paper's baselines included — is one entry of the
// policyPlugins table (papers.go): a descriptor (aliases, typed
// parameters) plus a build function. Everything downstream derives from
// the descriptor: the "name:k=v,k=v" string grammar spec files and CLIs
// use, validation of the {"policy": {"name": ..., "params": ...}}
// spec-file block, and the -list self-documentation. Both spellings
// feed their values through one per-parameter parser (set).

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
	build func(Params) Policy
}

// PolicyPlugins lists the plugin descriptors sorted by name (the -list
// self-documentation surface).
func PolicyPlugins() []PolicyDesc {
	out := make([]PolicyDesc, len(policyPlugins))
	for i, pl := range policyPlugins {
		out[i] = pl.desc
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lookupPlugin(alias string) *policyPlugin {
	for i := range policyPlugins {
		pl := &policyPlugins[i]
		if pl.desc.Name == alias || slices.Contains(pl.desc.Aliases, alias) {
			return pl
		}
	}
	return nil
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
		for _, part := range strings.Split(arg, ",") {
			key, val, named := strings.Cut(part, "=")
			if !named {
				if pl.desc.Positional == "" {
					return Policy{}, fmt.Errorf("catalog: policy %q takes no positional argument; want %s", pl.desc.Name, pl.grammarOrBare())
				}
				key, val = pl.desc.Positional, part
			}
			if err := pl.set(params, key, val); err != nil {
				return Policy{}, err
			}
		}
	}
	return pl.finish(params)
}

// PolicyFromConfig resolves a policy from a spec file's structured
// {"policy": {"name": ..., "params": {...}}} block: name is a plugin
// alias (no ":" arguments) and params holds decoded JSON values. Each
// value parses exactly like grammar text: a string as is, a number as
// its shortest decimal spelling ("window": 8 is aql:window=8), and any
// other JSON value (true, null, an array or object) as fmt.Sprint
// renders it, which no kind accepts.
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
		var text string
		switch v := raw[k].(type) {
		case string:
			text = v
		case float64:
			text = strconv.FormatFloat(v, 'f', -1, 64)
		default:
			text = fmt.Sprint(v)
		}
		if err := pl.set(params, k, text); err != nil {
			return Policy{}, err
		}
	}
	return pl.finish(params)
}

// PolicyGrammar lists every valid policy spelling: the bare aliases
// (sorted) plus the parameterized forms ("fixed:<duration>",
// "aql-w:<periods>") in policyPlugins order.
func PolicyGrammar() []string {
	var bare, parameterized []string
	for _, pl := range policyPlugins {
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

// set parses one parameter's text under its declared kind and records
// it: the one per-parameter path of both policy spellings.
func (pl *policyPlugin) set(params Params, key, text string) error {
	d, ok := pl.param(key)
	if !ok {
		return fmt.Errorf("catalog: policy %q has no parameter %q (declared: %s)", pl.desc.Name, key, strings.Join(pl.paramNames(), ", "))
	}
	if _, dup := params[key]; dup {
		return fmt.Errorf("catalog: policy %q parameter %q given twice", pl.desc.Name, key)
	}
	v, err := coerceText(d, text)
	if err != nil {
		return err
	}
	if err := checkRange(d, v); err != nil {
		return err
	}
	params[key] = v
	return nil
}

func (pl *policyPlugin) grammarOrBare() string {
	if form := pl.grammarForm(); form != "" {
		return form
	}
	return pl.desc.Name
}

// finish applies declared defaults, enforces required parameters and
// builds the policy.
func (pl *policyPlugin) finish(params Params) (Policy, error) {
	for _, d := range pl.desc.Params {
		if _, set := params[d.Name]; set {
			continue
		}
		if d.Default != "" {
			params[d.Name], _ = coerceText(d, d.Default) // TestPolicyTable parses every default
			continue
		}
		if d.Required {
			return Policy{}, fmt.Errorf("catalog: policy %q requires %s (want %s)", pl.desc.Name, d.Name, pl.grammarOrBare())
		}
	}
	return pl.build(params), nil
}

// coerceText parses one textual parameter value under its declared
// kind.
func coerceText(d scenario.ParamDesc, raw string) (any, error) {
	if d.Kind == scenario.ParamDuration {
		q, err := ParseQuantum(raw)
		if err != nil {
			return nil, fmt.Errorf("catalog: bad %s %q: %v", d.Name, raw, err)
		}
		return q, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("catalog: bad %s %q: want an integer%s", d.Name, raw, rangeNote(d))
	}
	return n, nil
}

// checkRange enforces an int parameter's declared inclusive [Min, Max]
// bounds; TestPolicyTable keeps other kinds unbounded.
func checkRange(d scenario.ParamDesc, v any) error {
	n, ok := v.(int64)
	if !ok {
		return nil
	}
	min, errMin := strconv.ParseInt(d.Min, 10, 64)
	max, errMax := strconv.ParseInt(d.Max, 10, 64)
	if (errMin == nil && n < min) || (errMax == nil && n > max) {
		return fmt.Errorf("catalog: bad %s %d: want an integer%s", d.Name, n, rangeNote(d))
	}
	return nil
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
