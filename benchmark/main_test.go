package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestWorkloadsVerify(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name == "paper" {
				t.Skip("paper takes seconds per iteration")
			}
			w.warmup = 1
			r := newRunner(w, "..", 0)
			if err := r.setUp(); err != nil {
				t.Fatal(err)
			}
			if r.Attempted != 1 || r.Failed != 0 {
				t.Fatalf("%d of %d iterations failed against the goldens", r.Failed, r.Attempted)
			}
		})
	}
}

// benchmarkFile is the schema of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var bf benchmarkFile
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			if !name.MatchString(n) {
				t.Errorf("name %q does not match %v", n, name)
			}
			if m[n] {
				t.Errorf("name %q declared twice", n)
			}
			m[n] = true
		}
		return m
	}

	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
	}
	wantWs := declared(ws...)
	for _, w := range workloads {
		if !wantWs[w.name] {
			t.Errorf("workload %q is not declared", w.name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(ws), len(workloads))
	}

	units := map[string]string{}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}
	declared(append(e2e, layer...)...)
	check := func(kind string, want []string, got []metric) {
		var names []string
		for _, m := range got {
			names = append(names, m.name)
			if units[m.name] != m.unit {
				t.Errorf("%s: unit %q, declared %q", m.name, m.unit, units[m.name])
			}
		}
		sort.Strings(names)
		sort.Strings(want)
		if !slices.Equal(names, want) {
			t.Errorf("%s metrics printed %v, declared %v", kind, names, want)
		}
	}

	smp, _ := findWorkload("smp")
	check("end-to-end", e2e, (&stats{}).endToEnd())
	r := newRunner(smp, "..", 0)
	r.sp = newHostSpans()
	ms, _, err := r.traced(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	check("per-layer", layer, ms)

	dirs, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, d := range dirs {
		if d.IsDir() {
			pkgs = append(pkgs, d.Name())
		}
	}
	if !slices.Equal(pkgs, modules) {
		t.Errorf("modules = %v, internal packages are %v", modules, pkgs)
	}
}

func TestQuantiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
	for _, c := range []struct {
		xs                 []float64
		median, q1, q3     float64
		tailPct, tailValue float64
	}{
		{[]float64{7}, 7, 7, 7, 0, 0},
		{[]float64{1, 2}, 1.5, 0.75, 2.25, 0, 0},
		{[]float64{3, 1, 2}, 2, 1, 3, 0, 0},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 4, 2, 7, 0, 0},
		{seq(10), 5.5, 2.75, 8.25, 0, 0},
		{seq(20), 10.5, 5.25, 15.75, 50, 10},
		{seq(100), 50.5, 25.25, 75.75, 90, 90},
		{seq(1000), 500.5, 250.25, 750.75, 99, 990},
	} {
		s := summarize(c.xs)
		if s.N != len(c.xs) || s.Median != c.median || s.Q1 != c.q1 || s.Q3 != c.q3 ||
			s.TailPct != c.tailPct || s.Tail != c.tailValue {
			t.Errorf("summarize(%d values) = %+v, want median %v q1 %v q3 %v p%v=%v",
				len(c.xs), s, c.median, c.q1, c.q3, c.tailPct, c.tailValue)
		}
	}
}
