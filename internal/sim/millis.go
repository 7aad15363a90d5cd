package sim

import "encoding/json"

// Millis is a simulated duration that spec files spell as an integer
// count of milliseconds ("at_ms": 120). The value is held in Time units
// (Time(m) converts); only JSON decoding differs, so a domain type with
// Millis fields is its own spec-file schema.
type Millis Time

// UnmarshalJSON reads an integer millisecond count, rejecting exactly
// what an int64 field rejects (fractions such as 1.5, quoted numbers).
// null leaves the value unchanged, as it does for an int64.
func (m *Millis) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var ms int64
	if err := json.Unmarshal(data, &ms); err != nil {
		return err
	}
	*m = Millis(Time(ms) * Millisecond)
	return nil
}

// String formats the duration like Time.
func (m Millis) String() string { return Time(m).String() }
