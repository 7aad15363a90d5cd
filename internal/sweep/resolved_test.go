package sweep

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// specErrorCase is one malformed spec file that Parse must reject with
// an error mentioning want ("" accepts any error).
type specErrorCase struct {
	name, json, want string
}

// checkSpecErrors runs one subtest per case.
func checkSpecErrors(t *testing.T, cases []specErrorCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.json))
			if err == nil {
				t.Fatal("bad spec accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestResolvedSpecsGolden pins what the spec-file parser resolves, not
// just what the simulator then computes: every axis point of every
// built-in sweep, dumped field by field under a header carrying the
// built-in's manifest fingerprint and run count (what a journal written
// for it records), plus the accept/reject verdict (and, when accepted,
// the resolved values) of every fuzz seed and spec-file error case. A
// schema refactor must leave the file byte-identical. Regenerate an
// intentional change with:
//
//	go test ./internal/sweep/ -run ResolvedSpecsGolden -update-golden
func TestResolvedSpecsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range BuiltinNames() {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("built-in %q listed but not found", name)
		}
		m := NewManifest(spec, nil, name)
		fmt.Fprintf(&buf, "== builtin %s fingerprint=%s runs=%d\n", name, m.Fingerprint, m.Runs)
		dumpResolved(&buf, spec)
	}
	for i, s := range fuzzSeedSpecs {
		fmt.Fprintf(&buf, "== fuzz seed %d\n", i)
		dumpVerdict(&buf, s)
	}
	for _, group := range []struct {
		name  string
		cases []specErrorCase
	}{
		{"spec", specFileErrorCases},
		{"dynamic", dynErrorCases},
		{"policy", policyBlockErrorCases},
		{"fleet", fleetErrorCases},
		{"fault", faultErrorCases},
	} {
		for _, c := range group.cases {
			fmt.Fprintf(&buf, "== error case %s/%s\n", group.name, c.name)
			dumpVerdict(&buf, c.json)
		}
	}

	path := filepath.Join("testdata", "resolved.golden")
	if *updateGolden {
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
		line := bytes.Count(got[:firstDiff(got, want)], []byte("\n")) + 1
		t.Errorf("resolved spec values drifted from %s at line %d (%d bytes got, %d want)", path, line, len(got), len(want))
	}
}

// dumpVerdict records whether Parse accepts blob and, if so, what it
// resolves to.
func dumpVerdict(buf *bytes.Buffer, blob string) {
	spec, err := Parse([]byte(blob))
	if err != nil {
		buf.WriteString("reject\n")
		return
	}
	buf.WriteString("accept\n")
	dumpResolved(buf, spec)
}

// dumpResolved writes the sweep knobs, the policy axis and every
// scenario axis point: a fleet point as its fleet.Spec plus the size of
// its generated VM timeline, a single-host point as its scenario.Spec.
func dumpResolved(buf *bytes.Buffer, s *Spec) {
	fmt.Fprintf(buf, "sweep name=%q baseline=%q seeds=%d base_seed=%d warmup=%d measure=%d\n",
		s.Name, s.Baseline, s.Seeds, s.BaseSeed, int64(s.Warmup), int64(s.Measure))
	for _, p := range s.Policies {
		fmt.Fprintf(buf, "policy %q\n", p.Name)
	}
	for _, sc := range s.Scenarios {
		if sc.NewFleet != nil {
			fs := sc.NewFleet()
			vms, err := fs.GenVMs()
			fmt.Fprintf(buf, "fleet %q vms=%d err=%v\n", sc.Name, len(vms), err)
			dumpValue(buf, "  ", reflect.ValueOf(fs))
			continue
		}
		fmt.Fprintf(buf, "scenario %q\n", sc.Name)
		dumpValue(buf, "  ", reflect.ValueOf(sc.New()))
	}
}

// dumpValue writes one "path = value" line per leaf of v: exported
// struct fields, slice elements and map entries (keys sorted), following
// pointers and interfaces and skipping funcs and channels. Integers
// print by kind, so retyping a field between integer types with the
// same value leaves the dump unchanged.
func dumpValue(buf *bytes.Buffer, path string, v reflect.Value) {
	leaf := func(s string) { fmt.Fprintf(buf, "%s = %s\n", path, s) }
	switch v.Kind() {
	case reflect.Invalid:
		leaf("nil")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			leaf("nil")
			return
		}
		dumpValue(buf, path, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				dumpValue(buf, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		if v.Len() == 0 {
			leaf("[]")
		}
		for i := 0; i < v.Len(); i++ {
			dumpValue(buf, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			leaf("{}")
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			dumpValue(buf, fmt.Sprintf("%s[%v]", path, k), v.MapIndex(k))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		leaf(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		leaf(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.Bool:
		leaf(strconv.FormatBool(v.Bool()))
	case reflect.String:
		leaf(strconv.Quote(v.String()))
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Constructors and channels carry no resolved values.
	default:
		leaf(v.Kind().String())
	}
}
