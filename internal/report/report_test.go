package report

import (
	"strings"
	"testing"
)

func TestTableRendersAligned(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 2.5)
	tb.AddNote("footnote %d", 42)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "====") {
		t.Errorf("missing title/underline:\n%s", out)
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Errorf("missing row:\n%s", out)
	}
	if !strings.Contains(out, "2.500") {
		t.Errorf("float not formatted:\n%s", out)
	}
	if !strings.Contains(out, "footnote 42") {
		t.Errorf("missing note:\n%s", out)
	}
	// Every data line must have the same width (aligned columns).
	var widths []int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") {
			widths = append(widths, len(line))
		}
	}
	for _, w := range widths {
		if w != widths[0] {
			t.Errorf("misaligned table:\n%s", out)
			break
		}
	}
}
