package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Millis is a simulated duration that spec files spell as an integer
// count of milliseconds ("at_ms": 120). The value is held in Time units
// (Time(m) converts); only its JSON form differs, so a domain type with
// Millis fields is its own spec-file schema.
type Millis Time

// UnmarshalJSON reads an integer millisecond count, rejecting exactly
// what an int64 field rejects (fractions such as 1.5, quoted numbers)
// plus counts FromMillis rejects. null leaves the value unchanged, as it
// does for an int64.
func (m *Millis) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var ms int64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	t, err := FromMillis(ms)
	if err != nil {
		return err
	}
	*m = Millis(t)
	return nil
}

// MarshalJSON writes the integer millisecond count UnmarshalJSON reads.
// A duration that is not a whole number of milliseconds fails to
// marshal; it is never rounded.
func (m Millis) MarshalJSON() ([]byte, error) {
	if Time(m)%Millisecond != 0 {
		return nil, fmt.Errorf("%s is not a whole number of milliseconds", Time(m))
	}
	return strconv.AppendInt(nil, int64(Time(m)/Millisecond), 10), nil
}

// String formats the duration like Time.
func (m Millis) String() string { return Time(m).String() }

// FromMillis converts a millisecond count to Time. It is the one place
// spec-file "*_ms" values enter the simulated clock, and it rejects
// counts whose microsecond value overflows int64 instead of letting the
// product wrap to an unrelated duration.
func FromMillis(ms int64) (Time, error) {
	if ms > math.MaxInt64/int64(Millisecond) || ms < math.MinInt64/int64(Millisecond) {
		return 0, fmt.Errorf("%d ms overflows the simulated clock", ms)
	}
	return Time(ms) * Millisecond, nil
}
