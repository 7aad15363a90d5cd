package sim

import (
	"encoding/json"
	"testing"
)

func TestMillisDecodesIntegerMilliseconds(t *testing.T) {
	var v struct {
		D Millis `json:"d_ms"`
	}
	if err := json.Unmarshal([]byte(`{"d_ms": 120}`), &v); err != nil {
		t.Fatal(err)
	}
	if Time(v.D) != 120*Millisecond {
		t.Errorf("decoded %d, want %d", v.D, 120*Millisecond)
	}
	if v.D.String() != (120 * Millisecond).String() {
		t.Errorf("String() = %q, want the Time formatting", v.D.String())
	}
	// null is a no-op, as for an int64 field.
	if err := json.Unmarshal([]byte(`{"d_ms": null}`), &v); err != nil || Time(v.D) != 120*Millisecond {
		t.Errorf("null changed the value to %d (err %v)", v.D, err)
	}
	// Whatever an int64 field rejects, Millis rejects.
	for _, bad := range []string{`1.5`, `"10"`, `1e3`, `true`, `{}`, `92233720368547758070`} {
		var n int64
		if json.Unmarshal([]byte(bad), &n) == nil {
			t.Fatalf("int64 accepts %s; the case proves nothing", bad)
		}
		if err := json.Unmarshal([]byte(`{"d_ms": `+bad+`}`), &v); err == nil {
			t.Errorf("Millis accepted %s", bad)
		}
	}
	// Counts an int64 holds but whose µs value does not must fail, not
	// wrap (18446744073709552 ms would wrap to 384 µs).
	for _, bad := range []string{`18446744073709552`, `9223372036854776`, `-9223372036854776`} {
		if err := json.Unmarshal([]byte(`{"d_ms": `+bad+`}`), &v); err == nil {
			t.Errorf("Millis accepted the overflowing count %s as %d", bad, v.D)
		}
	}
	// The largest counts that fit still decode exactly.
	for _, ms := range []int64{9223372036854775, -9223372036854775} {
		if got, err := FromMillis(ms); err != nil || got != Time(ms)*Millisecond {
			t.Errorf("FromMillis(%d) = %d, %v", ms, got, err)
		}
	}
}
