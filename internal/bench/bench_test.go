package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(1, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestExtensionsRun(t *testing.T) {
	for _, e := range Extensions() {
		if e.Run == nil {
			continue // artifact only; its contract is tested separately
		}
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(1, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig12"); !ok {
		t.Error("fig12 not found")
	}
	if e, ok := Find("fleet"); !ok || e.Artifact == nil {
		t.Error("fleet (an extension) not found with its artifact")
	}
	if _, ok := Find("fig99"); ok {
		t.Error("bogus experiment found")
	}
	if len(All()) != 16 {
		t.Errorf("experiment count = %d, want 16 (every table & figure)", len(All()))
	}
	// IDs unique across the paper and extension lists, so Find is
	// unambiguous.
	seen := map[string]bool{}
	for _, e := range append(All(), Extensions()...) {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTab3ReportsNoMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Tab3(1, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "MISMATCH") {
		t.Errorf("Table 3 regeneration disagrees with the paper:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wrpkrs") {
		t.Error("Table 3 output missing rows")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "bee", "c")
	tab.Row("x", "1", "2")
	tab.Rowf("y", "%.1f", 3.14159, 2.71828)
	tab.Note("hello %d", 42)
	out := tab.String()
	for _, want := range []string{"== demo ==", "bee", "3.1", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig16OutputHasCurves(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig16(1, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"memcached", "redis", "CKI-NST", "HVM-NST"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig16 output missing %q", want)
		}
	}
}
