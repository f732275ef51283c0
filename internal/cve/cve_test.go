package cve

import (
	"math"
	"strings"
	"testing"
)

func TestDatasetMatchesPaperPopulation(t *testing.T) {
	s := Summarize(Dataset())
	if s.Total != 209 {
		t.Fatalf("total = %d, want 209 (paper §2.1)", s.Total)
	}
	paper := map[Effect]float64{
		OutOfBoundRW:       39.9,
		UseAfterFree:       20.2,
		NullDereference:    12.8,
		OtherMemCorruption: 8.0,
		LogicError:         6.4,
		MemoryLeakage:      5.9,
		KernelPanic:        2.7,
		Deadlock:           1.6,
		InformationLeakage: 2.7,
	}
	for e, want := range paper {
		if got := s.Share(e); math.Abs(got-want) > 0.6 {
			t.Errorf("%v share = %.1f%%, paper says %.1f%%", e, got, want)
		}
	}
	if got := s.DoSShare(); math.Abs(got-97.3) > 0.6 {
		t.Errorf("DoS share = %.1f%%, paper says 97.3%%", got)
	}
}

func TestDoSClassification(t *testing.T) {
	for e := Effect(0); e < numEffects; e++ {
		want := e != InformationLeakage
		if e.CanDoS() != want {
			t.Errorf("%v CanDoS = %v, want %v", e, e.CanDoS(), want)
		}
	}
}

func TestDatasetDeterministicAndUnique(t *testing.T) {
	a, b := Dataset(), Dataset()
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs between runs", i)
		}
		if seen[a[i].ID] {
			t.Errorf("duplicate CVE id %s", a[i].ID)
		}
		seen[a[i].ID] = true
		if a[i].Year != 2022 && a[i].Year != 2023 {
			t.Errorf("entry %s outside study window", a[i].ID)
		}
	}
}

func TestRender(t *testing.T) {
	out := Summarize(Dataset()).Render()
	for _, want := range []string{"209 total", "Out-of-Bound R/W", "97.1%", "DoS-capable"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderStableOrder pins the effect order: equal counts ("Information
// Leakage" and "Kernel Panic", 6 each) are ordered by name, so every
// render in one process is identical.
func TestRenderStableOrder(t *testing.T) {
	s := Summarize(Dataset())
	first := s.Render()
	leak, panicked := strings.Index(first, "Information Leakage"), strings.Index(first, "Kernel Panic")
	if leak < 0 || panicked < 0 || leak > panicked {
		t.Fatalf("tied effects not in name order:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		if out := s.Render(); out != first {
			t.Fatalf("render %d differs:\n%s\n---\n%s", i, first, out)
		}
	}
}

func TestEmptySummary(t *testing.T) {
	s := Summarize(nil)
	if s.DoSShare() != 0 || s.Share(UseAfterFree) != 0 {
		t.Error("empty dataset shares should be zero")
	}
}
