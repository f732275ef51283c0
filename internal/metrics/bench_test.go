package metrics

import (
	"bytes"
	"testing"

	"repro/internal/clock"
)

// TestIntStr checks the interned table agrees with the formatted path
// on both sides of the table boundary.
func TestIntStr(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 255, 1023, 1024, 99999, -7} {
		want := ""
		switch {
		case n == -7:
			want = "-7"
		case n == 99999:
			want = "99999"
		case n == 1024:
			want = "1024"
		default:
			want = smallInts[n]
		}
		if got := IntStr(n); got != want {
			t.Errorf("IntStr(%d) = %q, want %q", n, got, want)
		}
	}
	if got := IntStr(42); got != "42" {
		t.Errorf("IntStr(42) = %q", got)
	}
}

// TestIntStrAllocs pins the interned range at zero allocations.
func TestIntStrAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		_ = IntStr(137)
	}); n != 0 {
		t.Errorf("IntStr allocs/op = %v, want 0", n)
	}
}

// TestFlowMetricsObserveAllocs pins both observer states at zero
// allocations per event: nil FlowMetrics (disabled) and a live one
// (histograms are pre-registered, Observe only updates counters).
func TestFlowMetricsObserveAllocs(t *testing.T) {
	var nilFM *FlowMetrics
	if n := testing.AllocsPerRun(1000, func() {
		nilFM.ObserveSyscall(1000)
		nilFM.ObservePageFault(1000)
		nilFM.ObserveShootdown(1000)
	}); n != 0 {
		t.Errorf("nil FlowMetrics Observe allocs/op = %v, want 0", n)
	}

	reg := NewRegistry()
	fm := NewFlowMetrics(reg, L("runtime", "CKI"))
	if n := testing.AllocsPerRun(1000, func() {
		fm.ObserveSyscall(1000)
		fm.ObservePageFault(1000)
		fm.ObserveShootdown(1000)
	}); n != 0 {
		t.Errorf("live FlowMetrics Observe allocs/op = %v, want 0", n)
	}
}

// TestCounterHotPathAllocs pins a cached counter handle at zero
// allocations per Add.
func TestCounterHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot_total", "hot path counter", L("runtime", "CKI"))
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocs/op = %v, want 0", n)
	}
}

// TestVisitAllocs pins a Registry.Visit walk at zero allocations: every
// callback gets the registry's one reused view, refilled so that the
// value groups other than its Kind's read as zero.
func TestVisitAllocs(t *testing.T) {
	reg := NewRegistry()
	populate(reg, "CKI", "1", 7)
	seen := 0
	visit := func(v *SeriesView) {
		seen++
		if v.Kind != "histogram" && (v.Bounds != nil || v.Counts != nil || v.Count != 0) ||
			v.Kind != "counter" && v.Counter != 0 || v.Kind != "gauge" && v.Value != 0 {
			t.Errorf("%s %s carries another kind's values: %+v", v.Kind, v.Name, *v)
		}
	}
	if n := testing.AllocsPerRun(100, func() { reg.Visit(visit) }); n != 0 {
		t.Errorf("Registry.Visit allocs/op = %v, want 0", n)
	}
	if seen == 0 {
		t.Fatal("Visit saw no series")
	}
}

// populate drives a registry the way one smp grid cell does: counters,
// a gauge, and a histogram, under a cell-specific label.
func populate(reg *Registry, runtime, vcpus string, base uint64) {
	reg.Counter("guest_syscalls_total", "Syscalls.", L("runtime", runtime), L("vcpus", vcpus)).Add(base)
	reg.Counter("tlb_hits_total", "Hits.", L("pcid", "257"), L("runtime", runtime), L("vcpus", vcpus)).Add(base * 2)
	reg.Gauge("tlb_hit_ratio", "Ratio.", L("runtime", runtime), L("vcpus", vcpus)).Set(0.5)
	h := reg.Histogram("smp_request_latency_ns", "Latency.", nil, L("runtime", runtime), L("vcpus", vcpus))
	for i := uint64(0); i < base; i++ {
		h.Observe(clock.Time(1000 * 1000 * (i + 1))) // spread across buckets (ps)
	}
}

// TestRegistryMergeReproducesSequential checks merging per-cell
// registries in cell order yields byte-identical Prometheus text and
// JSON snapshots to one registry fed sequentially in the same order.
func TestRegistryMergeReproducesSequential(t *testing.T) {
	seq := NewRegistry()
	populate(seq, "RunC", "1", 3)
	populate(seq, "RunC", "2", 5)
	populate(seq, "CKI", "1", 7)

	cells := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
	populate(cells[0], "RunC", "1", 3)
	populate(cells[1], "RunC", "2", 5)
	populate(cells[2], "CKI", "1", 7)
	merged := NewRegistry()
	for _, c := range cells {
		merged.Merge(c)
	}

	var a, b bytes.Buffer
	if err := seq.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merged Prom text differs from sequential:\n--- seq\n%s\n--- merged\n%s", a.String(), b.String())
	}

	aj, err := seq.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := merged.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("merged JSON snapshot differs from sequential")
	}
}

// TestRegistryMergeAccumulates checks overlapping series add rather
// than overwrite (two cells touching the same counter must sum).
func TestRegistryMergeAccumulates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x_total", "x", L("runtime", "CKI")).Add(3)
	b.Counter("x_total", "x", L("runtime", "CKI")).Add(4)
	ah := a.Histogram("lat_ns", "lat", nil, L("runtime", "CKI"))
	bh := b.Histogram("lat_ns", "lat", nil, L("runtime", "CKI"))
	ah.Observe(100_000)
	bh.Observe(200_000)
	bh.Observe(1 << 40) // lands in +Inf

	m := NewRegistry()
	m.Merge(a)
	m.Merge(b)
	if got := m.Counter("x_total", "x", L("runtime", "CKI")).Value(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	mh := m.Histogram("lat_ns", "lat", nil, L("runtime", "CKI"))
	if mh.Count() != 3 {
		t.Errorf("merged histogram count = %d, want 3", mh.Count())
	}
	if mh.Sum() != 100_000+200_000+(1<<40) {
		t.Errorf("merged histogram sum = %d", mh.Sum())
	}
}
