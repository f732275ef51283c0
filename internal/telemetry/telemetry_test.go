package telemetry

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// scrapeN drives reg through n scrapes at the given interval, calling
// fill(tick) before each to mutate the instruments.
func scrapeN(st *Store, reg *metrics.Registry, n int, fill func(int)) {
	for i := 0; i < n; i++ {
		if fill != nil {
			fill(i)
		}
		st.Scrape(reg, clock.Time(i+1)*st.Interval)
	}
}

// TestScrapeKinds: counters scrape as deltas+totals, gauges as values,
// histograms as windowed counts with quantiles.
func TestScrapeKinds(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("reqs_total", "")
	g := reg.Gauge("depth", "")
	h := reg.Histogram("lat_ns", "", []int64{100, 200, 400})
	st := NewStore(clock.Microsecond, 0)
	scrapeN(st, reg, 3, func(tick int) {
		c.Add(uint64(10 * (tick + 1)))
		g.Set(float64(tick) * 2)
		for i := 0; i < 4; i++ {
			h.Observe(150 * clock.Nanosecond)
		}
	})

	cs := st.Lookup("reqs_total", nil)
	if cs == nil || len(cs.Windows) != 3 {
		t.Fatalf("counter series missing or wrong length: %+v", cs)
	}
	// Adds were 10, 20, 30 → deltas 10, 20, 30; totals 10, 30, 60.
	for i, want := range []float64{10, 20, 30} {
		if cs.Windows[i].Delta != want {
			t.Errorf("window %d delta = %g, want %g", i, cs.Windows[i].Delta, want)
		}
	}
	if cs.Windows[2].Total != 60 {
		t.Errorf("final total = %g, want 60", cs.Windows[2].Total)
	}
	gs := st.Lookup("depth", nil)
	if gs.Windows[2].Value != 4 {
		t.Errorf("gauge window = %g, want 4", gs.Windows[2].Value)
	}
	hs := st.Lookup("lat_ns", nil)
	w := hs.Windows[1]
	if w.Count != 4 {
		t.Errorf("histogram window count = %d, want 4", w.Count)
	}
	// All 4 samples in the (100, 200] bucket: both quantiles inside it.
	if w.P50Ns <= 100 || w.P50Ns > 200 || w.P99Ns <= 100 || w.P99Ns > 200 {
		t.Errorf("windowed quantiles outside the sample bucket: p50=%g p99=%g", w.P50Ns, w.P99Ns)
	}
	if w.AtNs != int64(2*clock.Microsecond/clock.Nanosecond) {
		t.Errorf("window stamped %dns", w.AtNs)
	}
}

// TestScrapeSeriesRegisteredMidRun: a series registered between
// scrapes shifts the Visit position of every series after it; each
// scrape must still land every window on its own series, none
// duplicated, with counter deltas and histogram window counts intact.
func TestScrapeSeriesRegisteredMidRun(t *testing.T) {
	reg := metrics.NewRegistry()
	a1 := reg.Counter("a_total", "", metrics.L("x", "1"))
	g := reg.Gauge("g", "")
	h := reg.Histogram("h_ns", "", []int64{100, 200})
	var a0 *metrics.Counter
	st := NewStore(clock.Microsecond, 0)
	scrapeN(st, reg, 12, func(tick int) {
		switch tick {
		case 4: // lands before g and h in Visit order
			a0 = reg.Counter("a_total", "", metrics.L("x", "0"))
		case 8: // a late label set on the last family
			reg.Histogram("h_ns", "", []int64{100, 200}, metrics.L("y", "late"))
		}
		a1.Add(1)
		if a0 != nil {
			a0.Add(10)
		}
		g.Set(float64(tick))
		h.Observe(150 * clock.Nanosecond)
	})
	if n := len(st.Series()); n != 5 {
		t.Fatalf("%d series stored, want 5", n)
	}
	check := func(name string, sel map[string]string, n int, ok func(i int, w Window) bool) {
		t.Helper()
		s := st.Lookup(name, sel)
		if s == nil || len(s.Windows) != n {
			t.Fatalf("%s%v: %+v, want %d windows", name, sel, s, n)
		}
		for i, w := range s.Windows {
			if !ok(i, w) {
				t.Errorf("%s%v window %d wrong: %+v", name, sel, i, w)
			}
		}
	}
	check("a_total", map[string]string{"x": "1"}, 12, func(i int, w Window) bool { return w.Delta == 1 && w.Total == float64(i+1) })
	check("a_total", map[string]string{"x": "0"}, 8, func(i int, w Window) bool { return w.Delta == 10 && w.Tick == i+4 })
	check("g", nil, 12, func(i int, w Window) bool { return w.Value == float64(i) })
	check("h_ns", map[string]string{}, 12, func(i int, w Window) bool { return w.Count == 1 && w.Total == float64(i+1) })
	check("h_ns", map[string]string{"y": "late"}, 4, func(i int, w Window) bool { return w.Count == 0 && w.Tick == i+8 })
}

// TestRingEviction: the store keeps exactly Depth windows per series
// and FirstTick tracks what was dropped.
func TestRingEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("x", "")
	st := NewStore(clock.Microsecond, 4)
	scrapeN(st, reg, 10, func(int) { c.Inc() })
	s := st.Lookup("x", nil)
	if len(s.Windows) != 4 {
		t.Fatalf("ring holds %d windows, want 4", len(s.Windows))
	}
	if s.FirstTick != 6 {
		t.Fatalf("FirstTick = %d, want 6", s.FirstTick)
	}
	if s.At(5) != nil {
		t.Fatalf("evicted window still addressable")
	}
	if w := s.At(9); w == nil || w.Total != 10 {
		t.Fatalf("latest window wrong: %+v", w)
	}
	// Totals stay cumulative across evictions.
	if s.Windows[0].Total != 7 || s.Windows[0].Delta != 1 {
		t.Fatalf("post-eviction window 0: %+v", s.Windows[0])
	}
	// Many evictions later the ring still holds exactly the newest
	// Depth windows in tick order.
	for tick := 10; tick < 100; tick++ {
		c.Inc()
		st.Scrape(reg, clock.Time(tick+1)*st.Interval)
		if len(s.Windows) != 4 || s.FirstTick != tick-3 {
			t.Fatalf("tick %d: %d windows from tick %d", tick, len(s.Windows), s.FirstTick)
		}
		for i, w := range s.Windows {
			if w.Tick != s.FirstTick+i || w.Total != float64(w.Tick+1) {
				t.Fatalf("tick %d: window %d is %+v", tick, i, w)
			}
		}
	}
}

// TestWindowQuantileVsExact pins the windowed estimator against exact
// sorted-sample quantiles: for every sample count and quantile, the
// estimate must land inside the bucket that contains the exact answer.
func TestWindowQuantileVsExact(t *testing.T) {
	bounds := []int64{64, 128, 256, 512, 1024, 2048, 4096}
	rng := uint64(0x5eed)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{1, 2, 3, 5, 10, 100, 1000} {
		samples := make([]int64, n)
		deltas := make([]uint64, len(bounds))
		var inf uint64
		for i := range samples {
			// Spread samples across the bucket range, some past the end.
			samples[i] = int64(next() % 5000)
			placed := false
			for bi, ub := range bounds {
				if samples[i] <= ub {
					deltas[bi]++
					placed = true
					break
				}
			}
			if !placed {
				inf++
			}
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.99, 0.999, 1} {
			got := WindowQuantile(bounds, deltas, inf, q)
			idx := int(q*float64(n)+0.999999) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			exact := sorted[idx]
			// Find the bucket holding the exact answer; the estimate must
			// fall inside it ((lo, hi]), or equal the top finite bound
			// when the exact answer overflows every bucket.
			lo, hi := int64(0), int64(-1)
			for _, ub := range bounds {
				if exact <= ub {
					hi = ub
					break
				}
				lo = ub
			}
			if hi == -1 {
				if got != float64(bounds[len(bounds)-1]) {
					t.Errorf("n=%d q=%g: exact %d overflows, estimate %g != top bound", n, q, exact, got)
				}
				continue
			}
			if got <= float64(lo) || got > float64(hi) {
				t.Errorf("n=%d q=%g: exact %d in (%d, %d], estimate %g outside", n, q, exact, lo, hi, got)
			}
		}
		for i := range deltas {
			deltas[i] = 0
		}
		inf = 0
	}
	if WindowQuantile(bounds, make([]uint64, len(bounds)), 0, 0.99) != 0 {
		t.Errorf("empty window quantile != 0")
	}
}

// TestMergeReproducesSequential: merging per-cell stores in cell order
// yields byte-identical exports to one sequential store that saw the
// same scrapes in the same order.
func TestMergeReproducesSequential(t *testing.T) {
	cell := func(runtime string) *Store {
		reg := metrics.NewRegistry()
		c := reg.Counter("reqs_total", "", metrics.L("runtime", runtime))
		st := NewStore(clock.Microsecond, 0)
		scrapeN(st, reg, 5, func(tick int) { c.Add(uint64(tick + 1)) })
		return st
	}
	seq := NewStore(clock.Microsecond, 0)
	for _, r := range []string{"runc", "cki", "gvisor"} {
		seq.Merge(cell(r))
	}
	// "Parallel": build the cells in a different order, merge in the
	// same fixed order.
	cells := map[string]*Store{}
	for _, r := range []string{"gvisor", "runc", "cki"} {
		cells[r] = cell(r)
	}
	par := NewStore(clock.Microsecond, 0)
	for _, r := range []string{"runc", "cki", "gvisor"} {
		par.Merge(cells[r])
	}
	a, err := seq.Export().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Export().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("merge order-dependent:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Equal(seq.EncodeBinary(), par.EncodeBinary()) {
		t.Fatalf("binary encodings differ")
	}
}

// TestBinaryRoundTrip: encode → decode → encode is byte-identical, and
// corruption is caught with typed errors.
func TestBinaryRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("reqs_total", "", metrics.L("runtime", "cki"), metrics.L("node", "3"))
	h := reg.Histogram("lat_ns", "", []int64{100, 200})
	st := NewStore(2*clock.Microsecond, 8)
	scrapeN(st, reg, 5, func(tick int) {
		c.Add(3)
		h.Observe(clock.Time(50*(tick+1)) * clock.Nanosecond)
	})
	enc := st.EncodeBinary()
	dec, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.EncodeBinary(), enc) {
		t.Fatalf("round trip not byte-identical")
	}
	if dec.Interval != st.Interval || dec.Ticks() != st.Ticks() {
		t.Fatalf("header fields lost: %v/%d vs %v/%d", dec.Interval, dec.Ticks(), st.Interval, st.Ticks())
	}
	if s := dec.Lookup("reqs_total", map[string]string{"node": "3"}); s == nil || s.Windows[4].Total != 15 {
		t.Fatalf("decoded series wrong: %+v", s)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)-9] },
		"bit flip":      func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"bad magic":     func(b []byte) []byte { b[0] = 'X'; return b },
		"flipped count": func(b []byte) []byte { b[20] ^= 0x80; return b },
		"empty":         func(b []byte) []byte { return b[:0] },
	} {
		bad := mutate(append([]byte(nil), enc...))
		if _, err := DecodeBinary(bad); err == nil {
			t.Errorf("%s: corruption not detected", name)
		} else if _, ok := err.(*DecodeError); !ok {
			t.Errorf("%s: error %T is not *DecodeError", name, err)
		}
	}
}

// TestSLOFireResolve: a burn-rate alert fires only once both windows
// burn, stays open while the violation persists, and resolves when the
// short window recovers.
func TestSLOFireResolve(t *testing.T) {
	reg := metrics.NewRegistry()
	bad := reg.Counter("bad_total", "", metrics.L("runtime", "cki"))
	all := reg.Counter("all_total", "", metrics.L("runtime", "cki"))
	eng, err := NewEngine([]SLOSpec{{
		Name: "reject-rate", Metric: "bad_total", TotalMetric: "all_total",
		Threshold: 0.1, Budget: 0.1,
		Rules: []BurnRule{{Severity: "page", Long: 4, Short: 2, Burn: 2.5}},
		Curve: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var fired []*Alert
	eng.OnAlert = func(a *Alert) { fired = append(fired, a) }
	st := NewStore(clock.Microsecond, 0)

	// Ticks 0-3 healthy, 4-9 violating (50% bad), 10-15 healthy again.
	badAt := func(tick int) bool { return tick >= 4 && tick <= 9 }
	for tick := 0; tick < 16; tick++ {
		all.Add(100)
		if badAt(tick) {
			bad.Add(50)
		}
		now := clock.Time(tick+1) * clock.Microsecond
		st.Scrape(reg, now)
		eng.Step(st, now)
	}

	alerts := eng.Alerts()
	if len(alerts) != 1 || len(fired) != 1 {
		t.Fatalf("got %d alerts (%d callbacks), want 1", len(alerts), len(fired))
	}
	a := alerts[0]
	if a.SLO != "reject-rate" || a.Severity != "page" || a.Labels["runtime"] != "cki" {
		t.Fatalf("alert identity wrong: %+v", a)
	}
	// The first violating window (tick 4, scraped at 5µs) already
	// burns both windows past 2.5 at budget 0.1: short = 1/2/0.1 = 5,
	// long = 1/4/0.1 = 2.5.
	if a.FiredAtNs != 5000 {
		t.Errorf("fired at %dns, want 5000", a.FiredAtNs)
	}
	// Short window clears two ticks after the violation stops.
	if a.ResolvedAtNs == 0 || a.ResolvedAtNs <= a.FiredAtNs {
		t.Errorf("alert never resolved: %+v", a)
	}
	curve := eng.Curves()["reject-rate"]
	if len(curve) != 16 {
		t.Fatalf("curve has %d points, want 16", len(curve))
	}
	var peak float64
	for _, p := range curve {
		if p.Short > peak {
			peak = p.Short
		}
	}
	if peak < 2.5 {
		t.Errorf("curve never shows the burn that fired the alert: peak %g", peak)
	}
}

// TestSLOInvertAndQuantile: inverted (at-least) objectives and
// histogram-quantile SLIs classify windows correctly.
func TestSLOInvertAndQuantile(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("lat_ns", "", []int64{100, 1000, 10000})
	warm := reg.Counter("warm_total", "")
	ev := reg.Counter("ev_total", "")
	eng, err := NewEngine([]SLOSpec{
		{Name: "p99-latency", Metric: "lat_ns", Quantile: 0.99,
			Threshold: 1000, Budget: 0.5,
			Rules: []BurnRule{{Severity: "page", Long: 2, Short: 1, Burn: 1}}},
		{Name: "warm-ratio", Metric: "warm_total", TotalMetric: "ev_total",
			Threshold: 0.5, Invert: true, Budget: 0.5,
			Rules: []BurnRule{{Severity: "ticket", Long: 2, Short: 1, Burn: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(clock.Microsecond, 0)
	step := func(tick int, lat clock.Time, w, e uint64) {
		h.Observe(lat)
		warm.Add(w)
		ev.Add(e)
		now := clock.Time(tick+1) * clock.Microsecond
		st.Scrape(reg, now)
		eng.Step(st, now)
	}
	step(0, 50*clock.Nanosecond, 5, 5)    // healthy, all-warm
	step(1, 5000*clock.Nanosecond, 1, 5)  // slow p99, warm ratio 0.2
	step(2, 5000*clock.Nanosecond, 1, 10) // still bad both ways
	var latFired, warmFired bool
	for _, a := range eng.Alerts() {
		switch a.SLO {
		case "p99-latency":
			latFired = true
		case "warm-ratio":
			warmFired = true
		}
	}
	if !latFired {
		t.Errorf("quantile SLO never fired despite 5µs p99 over a 1µs threshold")
	}
	if !warmFired {
		t.Errorf("inverted ratio SLO never fired despite warm ratio 0.2 under 0.5 floor")
	}
	// No-signal windows are good: an idle engine on an empty store
	// fires nothing.
	idle, _ := NewEngine([]SLOSpec{{Name: "x", Metric: "lat_ns", Quantile: 0.99,
		Threshold: 1, Budget: 0.5, Rules: []BurnRule{{Severity: "page", Long: 1, Short: 1, Burn: 0.1}}}})
	st2 := NewStore(clock.Microsecond, 0)
	reg2 := metrics.NewRegistry()
	reg2.Histogram("lat_ns", "", []int64{100})
	for i := 0; i < 5; i++ {
		now := clock.Time(i+1) * clock.Microsecond
		st2.Scrape(reg2, now)
		idle.Step(st2, now)
	}
	if len(idle.Alerts()) != 0 {
		t.Errorf("idle histogram fired %d alerts", len(idle.Alerts()))
	}
}

// TestEngineValidation: NewEngine rejects malformed specs.
func TestEngineValidation(t *testing.T) {
	good := SLOSpec{Name: "ok", Metric: "m", Threshold: 1, Budget: 0.1,
		Rules: []BurnRule{{Severity: "page", Long: 2, Short: 1, Burn: 1}}}
	for name, breakIt := range map[string]func(*SLOSpec){
		"no metric":     func(s *SLOSpec) { s.Metric = "" },
		"bad quantile":  func(s *SLOSpec) { s.Quantile = 0.95 },
		"zero budget":   func(s *SLOSpec) { s.Budget = 0 },
		"budget over 1": func(s *SLOSpec) { s.Budget = 1.5 },
		"no rules":      func(s *SLOSpec) { s.Rules = nil },
		"short > long":  func(s *SLOSpec) { s.Rules = []BurnRule{{Long: 1, Short: 2, Burn: 1}} },
		"zero burn":     func(s *SLOSpec) { s.Rules = []BurnRule{{Long: 2, Short: 1}} },
	} {
		sp := good
		breakIt(&sp)
		if _, err := NewEngine([]SLOSpec{sp}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewEngine([]SLOSpec{good}); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestFlightRecorder: the rings bound memory, Poll is incremental (one
// entry at a time or in a batch larger than the rings), and Dump
// captures exactly the tail around the instant.
func TestFlightRecorder(t *testing.T) {
	clk := &clock.Clock{}
	sr := trace.NewSpanRecorder(clk)
	ar := audit.NewRecorder(clk)
	fr := NewFlightRecorder(8, 8)
	fr.Node = 3
	fr.Runtime = "cki"

	for i := 0; i < 20; i++ {
		id := sr.Begin("req")
		ar.Emit(audit.EvSyscall, 0, 0, uint64(i), 0, 0)
		clk.Advance(clock.Microsecond)
		sr.End(id)
		fr.Poll(sr, ar)
	}
	if len(fr.Spans()) != 8 || len(fr.Events()) != 8 {
		t.Fatalf("rings hold %d spans / %d events, want 8/8", len(fr.Spans()), len(fr.Events()))
	}
	// Oldest retained span started at t=12µs (spans 12..19 survive).
	if fr.Spans()[0].At != 12*clock.Microsecond {
		t.Fatalf("oldest retained span at %v", fr.Spans()[0].At)
	}
	reg := metrics.NewRegistry()
	c := reg.Counter("reqs_total", "")
	st := NewStore(clock.Microsecond, 0)
	for i := 0; i < 20; i++ {
		c.Inc()
		st.Scrape(reg, clock.Time(i+1)*clock.Microsecond)
	}
	b := fr.Dump("watchdog", 18*clock.Microsecond, nil, st, 4)
	if b.Reason != "watchdog" || b.Node != 3 || b.Runtime != "cki" {
		t.Fatalf("bundle identity wrong: %+v", b)
	}
	if b.AtNs != 18000 {
		t.Fatalf("bundle at %dns", b.AtNs)
	}
	// Window radius 4 at t=18µs: windows stamped 14..18µs.
	if len(b.Series) != 1 || len(b.Series[0].Windows) != 5 {
		t.Fatalf("bundle series wrong: %+v", b.Series)
	}
	for _, s := range b.Spans {
		if s.At < 14*clock.Microsecond || s.At > 18*clock.Microsecond {
			t.Errorf("span at %v outside the capture range", s.At)
		}
	}
	if len(b.Spans) == 0 || len(b.Events) == 0 {
		t.Fatalf("bundle tails empty: %d spans, %d events", len(b.Spans), len(b.Events))
	}
	for _, e := range b.Events {
		if e.Kind != "syscall" {
			t.Errorf("event kind %q not rendered", e.Kind)
		}
	}
	if _, err := b.JSON(); err != nil {
		t.Fatal(err)
	}

	// An alert dump carries the alert.
	a := &Alert{SLO: "x", Severity: "page", FiredAtNs: 18000}
	b2 := fr.Dump("alert", 18*clock.Microsecond, a, st, 2)
	if b2.Alert != a || b2.Reason != "alert" {
		t.Fatalf("alert bundle wrong: %+v", b2)
	}

	// One batch larger than the depth keeps only its newest entries.
	if fr.Events()[0].A != 12 {
		t.Fatalf("oldest retained event is #%d, want #12", fr.Events()[0].A)
	}
	var batch clock.Time
	for i := 20; i < 40; i++ {
		id := sr.Begin("req")
		ar.Emit(audit.EvSyscall, 0, 0, uint64(i), 0, 0)
		if i == 32 {
			batch = clk.Now()
		}
		clk.Advance(clock.Microsecond)
		sr.End(id)
	}
	fr.Poll(sr, ar)
	if sp, ev := fr.Spans(), fr.Events(); len(sp) != 8 || len(ev) != 8 ||
		sp[0].At != batch || ev[0].A != 32 || ev[7].A != 39 {
		t.Fatalf("after a 20-entry batch the rings hold %d spans from %v and %d events %+v; want 8 from %v and events 32..39",
			len(sp), sp[0].At, len(ev), ev, batch)
	}

}

// TestScrapeDeterminism: two identical scrape sequences produce
// byte-identical JSON and binary exports.
func TestScrapeDeterminism(t *testing.T) {
	run := func() *Store {
		reg := metrics.NewRegistry()
		c := reg.Counter("a_total", "", metrics.L("runtime", "pvm"))
		h := reg.Histogram("lat_ns", "", nil, metrics.L("runtime", "pvm"))
		st := NewStore(clock.Microsecond, 16)
		scrapeN(st, reg, 40, func(tick int) {
			c.Add(uint64(tick % 7))
			h.Observe(clock.Time(100+tick*37) * clock.Nanosecond)
		})
		return st
	}
	a, b := run(), run()
	aj, _ := a.Export().JSON()
	bj, _ := b.Export().JSON()
	if !bytes.Equal(aj, bj) {
		t.Fatal("JSON export nondeterministic")
	}
	if !bytes.Equal(a.EncodeBinary(), b.EncodeBinary()) {
		t.Fatal("binary export nondeterministic")
	}
}
