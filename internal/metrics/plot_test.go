package metrics

import (
	"strings"
	"testing"
)

func TestAsciiPlot(t *testing.T) {
	a := Series{Name: "heter"}
	a.Append(0, 1.0)
	a.Append(10, 0.2)
	b := Series{Name: "naive"}
	b.Append(0, 1.0)
	b.Append(10, 0.6)
	out := AsciiPlot([]Series{a, b}, 40, 8)
	for _, want := range []string{"heter", "naive", "*", "+"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 8 {
		t.Fatalf("plot too short:\n%s", out)
	}
}

func TestAsciiPlotEmptyAndDegenerate(t *testing.T) {
	if out := AsciiPlot(nil, 40, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot = %q", out)
	}
	flat := Series{Name: "flat"}
	flat.Append(5, 3)
	out := AsciiPlot([]Series{flat}, 2, 2) // clamped to minimums
	if !strings.Contains(out, "flat") {
		t.Fatalf("degenerate plot = %q", out)
	}
}
