package scenario

// The policy axis carries a typed-parameter model: a policy declares
// its knobs (name, kind, range, default) as ParamDesc values, and the
// catalog's policy table turns the declarations into a parse
// grammar ("fixed:5ms", "aql:window=8"), spec-file validation for
// {"policy": {"name": ..., "params": {...}}} blocks, and -list
// self-documentation. The descriptors are JSON-taggable so tooling can
// emit them as machine-readable config schemas.

// ParamKind is the type of one policy parameter.
type ParamKind string

const (
	// ParamInt is a decimal integer ("4").
	ParamInt ParamKind = "int"
	// ParamDuration is a positive Go duration ("5ms", "90us").
	ParamDuration ParamKind = "duration"
)

// ParamDesc declares one typed policy knob.
type ParamDesc struct {
	// Name identifies the parameter in "k=v" spellings and spec-file
	// params objects.
	Name string `json:"name"`
	// Kind selects the parser and range semantics.
	Kind ParamKind `json:"kind"`
	// Help is a one-line description for -list.
	Help string `json:"help,omitempty"`
	// Hint is the grammar placeholder shown in listings ("<duration>",
	// "<periods>"); empty defaults to "<kind>".
	Hint string `json:"hint,omitempty"`
	// Default is the textual default value applied when the parameter
	// is omitted; empty means no default (the policy's zero behavior).
	Default string `json:"default,omitempty"`
	// Min and Max bound numeric kinds, inclusive, in the same textual
	// form the parameter is spelled in; empty means unbounded.
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
	// Required parameters must be supplied explicitly.
	Required bool `json:"required,omitempty"`
}

// GrammarHint is the placeholder shown for this parameter in grammar
// listings.
func (d ParamDesc) GrammarHint() string {
	if d.Hint != "" {
		return d.Hint
	}
	return "<" + string(d.Kind) + ">"
}
