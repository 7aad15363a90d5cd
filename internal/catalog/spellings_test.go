package catalog

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/spellings.golden from the current policy parser")

// spellingArgs are the argument forms every name is tried with, after
// the bare name: positional and named values, duplicates, unknown and
// empty keys, empty values, trailing commas, fractional, overflowing,
// negative, zero and out-of-range numbers, and durations in other
// units.
var spellingArgs = []string{
	":", ":8", ":5ms", ":window=8", ":n=8", ":q=5ms", ":fast_q=2ms", ":deadline=10ms",
	":8,8", ":5ms,q=5ms", ":window=8,window=9", ":bogus=1", ":=5ms", ":q=", ":5ms,",
	":4.5", ":99999999999999999999", ":-3", ":-3ms", ":0", ":0ms", ":1", ":64", ":65",
	":5s", ":90us", ":1h", ":5ms:6ms",
}

// spellingValues are param values as a spec file spells them; each is
// decoded by encoding/json, so numbers arrive as float64.
var spellingValues = []string{
	`"8"`, `"5ms"`, `""`, `"zebra"`, `"4.5"`, `"-3ms"`,
	`8`, `1`, `64`, `0`, `65`, `-3`, `5`, `4.5`, `1e6`, `1e300`,
	`9223372036854775808`, `-9223372036854775808`,
	`true`, `null`, `[]`, `{}`,
}

// spellingNames lists every alias of every plugin, then one unknown and
// one empty name.
func spellingNames() []string {
	var names []string
	for _, d := range PolicyPlugins() {
		names = append(names, d.Name)
		names = append(names, d.Aliases...)
	}
	return append(names, "frob", "")
}

// declaredKeys lists the parameters the plugin behind alias declares.
func declaredKeys(alias string) []string {
	if pl := lookupPlugin(alias); pl != nil {
		return pl.paramNames()
	}
	return nil
}

// verdict renders one resolution as "reject" or "accept <name>".
func verdict(p Policy, err error) string {
	if err != nil {
		return "reject"
	}
	return "accept " + p.Name
}

// blockVerdict decodes one {"name": ..., "params": ...} block the way a
// spec file's policy entry is decoded and resolves it.
func blockVerdict(t testing.TB, blob string) string {
	var b struct {
		Name   string         `json:"name"`
		Params map[string]any `json:"params"`
	}
	if err := json.Unmarshal([]byte(blob), &b); err != nil {
		t.Fatalf("bad test block %s: %v", blob, err)
	}
	return verdict(PolicyFromConfig(b.Name, b.Params))
}

// TestPolicySpellingsGolden pins the verdict and resolved name of every
// policy spelling: every alias (plus an unknown and an empty name) bare
// and with each argument form of the string grammar, then as a
// {"policy": ...} block with no params, with each declared key (plus an
// unknown one) set to each spec-file value, and with a declared key
// beside the unknown one. A parser refactor must leave the file
// byte-identical. Regenerate an intentional change with:
//
//	go test ./internal/catalog/ -run PolicySpellingsGolden -update-golden
func TestPolicySpellingsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range spellingNames() {
		for _, arg := range append([]string{""}, spellingArgs...) {
			in := name + arg
			fmt.Fprintf(&buf, "%q => %s\n", in, verdict(PolicyByName(in)))
		}
	}
	for _, name := range append(spellingNames(), "fixed:5ms") {
		blocks := []string{fmt.Sprintf(`{"name":%q}`, name), fmt.Sprintf(`{"name":%q,"params":{}}`, name)}
		keys := append(declaredKeys(name), "bogus")
		for _, k := range keys {
			for _, v := range spellingValues {
				blocks = append(blocks, fmt.Sprintf(`{"name":%q,"params":{%q:%s}}`, name, k, v))
			}
		}
		for _, k := range keys[:len(keys)-1] {
			blocks = append(blocks, fmt.Sprintf(`{"name":%q,"params":{%q:"5ms","bogus":1}}`, name, k))
		}
		for _, blob := range blocks {
			fmt.Fprintf(&buf, "block %s => %s\n", blob, blockVerdict(t, blob))
		}
	}

	path := filepath.Join("testdata", "spellings.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", path, err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		line := bytes.Count(got[:n], []byte("\n")) + 1
		t.Errorf("policy spellings drifted from %s at line %d (%d bytes got, %d want)", path, line, len(got), len(want))
	}
}

// FuzzPolicyGrammar throws arbitrary strings at the policy grammar,
// seeded with every alias under every argument form. The properties:
// PolicyByName never panics; an accepted spelling resolves again to the
// same name and an equal fresh instance; and "<alias>:<v>", with v free
// of "," and "=", gets the same verdict and name as the block that sets
// the plugin's positional parameter to the string v.
func FuzzPolicyGrammar(f *testing.F) {
	for _, name := range spellingNames() {
		for _, arg := range append([]string{""}, spellingArgs...) {
			f.Add(name + arg)
		}
	}
	for _, s := range append(refusedDurations, "edf:deadline=zebra") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := PolicyByName(s)
		if err == nil {
			again, err := PolicyByName(s)
			if err != nil {
				t.Fatalf("%q resolved once, then failed: %v", s, err)
			}
			if again.Name != p.Name || !reflect.DeepEqual(again.New(), p.New()) {
				t.Fatalf("%q resolved to %q, then to %q or an unequal instance", s, p.Name, again.Name)
			}
		}
		alias, v, ok := strings.Cut(s, ":")
		if !ok || strings.ContainsAny(v, ",=") {
			return
		}
		pl := lookupPlugin(alias)
		if pl == nil || pl.desc.Positional == "" {
			return
		}
		b, berr := PolicyFromConfig(alias, map[string]any{pl.desc.Positional: v})
		if (err == nil) != (berr == nil) || (err == nil && b.Name != p.Name) {
			t.Fatalf("%q gives %s, the block {%q: %q} gives %s",
				s, verdict(p, err), pl.desc.Positional, v, verdict(b, berr))
		}
	})
}
