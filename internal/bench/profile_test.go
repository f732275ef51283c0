package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

func reportBytes(t *testing.T, rep *SMPReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSMPReportJSON(rep, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// One profiled run of the SMP experiment, checked from every angle: the
// observers must be free (the report is byte-identical to the plain
// run), the artifacts must be byte-identical across two seeded runs,
// and the span accounting must balance exactly against both the
// published report and the SMP engine's own statistics.
func TestSMPProfile(t *testing.T) {
	plain, err := RunSMPParallel(1, SMPSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := RunSMPProfiledParallel(1, SMPSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof2, err := RunSMPProfiledParallel(1, SMPSeed, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("observers are free", func(t *testing.T) {
		if !bytes.Equal(reportBytes(t, plain), reportBytes(t, prof.Report)) {
			t.Error("profiled report differs from the plain run: observers cost virtual time")
		}
	})

	t.Run("artifacts byte-identical across runs", func(t *testing.T) {
		j1, err := prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		j2, err := prof2.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j1, j2) {
			t.Error("span profile JSON differs between two same-seed runs")
		}
		if !bytes.Equal(prof.ChromeJSON(), prof2.ChromeJSON()) {
			t.Error("Chrome trace differs between two same-seed runs")
		}
		if prof.FoldedStacks() != prof2.FoldedStacks() {
			t.Error("folded stacks differ between two same-seed runs")
		}
		m1, err := prof.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		m2, err := prof2.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Error("metrics snapshot differs between two same-seed runs")
		}
	})

	t.Run("chrome trace schema", func(t *testing.T) {
		// One process per runtime, and only complete ("X") events, all
		// in the flow or remote category.
		var tr struct {
			DisplayTimeUnit string `json:"displayTimeUnit"`
			TraceEvents     []struct {
				Ph   string `json:"ph"`
				Name string `json:"name"`
				Cat  string `json:"cat"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(prof.ChromeJSON(), &tr); err != nil {
			t.Fatal(err)
		}
		procs, complete := 0, 0
		for _, ev := range tr.TraceEvents {
			switch {
			case ev.Ph == "M" && ev.Name == "process_name":
				procs++
			case ev.Ph == "X":
				complete++
				if ev.Cat != "flow" && ev.Cat != "remote" {
					t.Errorf("complete event %q in category %q", ev.Name, ev.Cat)
				}
			}
		}
		if tr.DisplayTimeUnit != "ns" || procs != 5 || complete == 0 {
			t.Errorf("displayTimeUnit %q, %d processes, %d complete events; want ns, 5, > 0",
				tr.DisplayTimeUnit, procs, complete)
		}
	})

	t.Run("breakdown sums exactly", func(t *testing.T) {
		var buf bytes.Buffer
		if err := prof.WriteBreakdown(&buf); err != nil {
			t.Fatalf("breakdown accounting failed: %v", err)
		}
		out := buf.String()
		for _, rt := range []string{"RunC", "HVM-BM", "PVM-BM", "CKI-BM", "gVisor"} {
			if !strings.Contains(out, rt) {
				t.Errorf("breakdown missing runtime %s", rt)
			}
		}
		if !strings.Contains(out, "TOTAL") {
			t.Error("breakdown missing TOTAL rows")
		}
		// A parsed-back profile must verify identically: the gate works on
		// the committed artifact, not just the live structs.
		j, err := prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSMPProfile(j)
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		if err := back.WriteBreakdown(&buf2); err != nil {
			t.Fatalf("breakdown on parsed profile: %v", err)
		}
		if buf2.String() != out {
			t.Error("breakdown differs after a JSON round trip")
		}
	})

	t.Run("shootdown spans match engine stats", func(t *testing.T) {
		for _, run := range prof.Runs {
			if run.VCPUs <= 1 {
				continue
			}
			var n uint64
			var total clock.Time
			for _, s := range run.Spans {
				if !s.Async && s.Phase == "shootdown" {
					n++
					total += s.Dur
				}
			}
			if n != run.Shootdowns {
				t.Errorf("%s x%d: %d shootdown spans, engine counted %d",
					run.Runtime, run.VCPUs, n, run.Shootdowns)
			}
			if int64(total) != run.ShootdownTotalPs {
				t.Errorf("%s x%d: shootdown spans sum to %dps, engine measured %dps",
					run.Runtime, run.VCPUs, int64(total), run.ShootdownTotalPs)
			}
			if n == 0 {
				t.Errorf("%s x%d: no shootdowns recorded on a multi-vCPU run",
					run.Runtime, run.VCPUs)
			}
		}
	})

	t.Run("remote legs sum to remote span", func(t *testing.T) {
		var checked int
		for _, run := range prof.Runs {
			children := map[int][]trace.Span{}
			byID := map[int]trace.Span{}
			for _, s := range run.Spans {
				byID[s.ID] = s
				if s.Parent >= 0 {
					children[s.Parent] = append(children[s.Parent], s)
				}
			}
			for _, s := range run.Spans {
				if !s.Async || s.Phase != "shootdown_remote" {
					continue
				}
				kids := children[s.ID]
				if len(kids) == 0 {
					continue
				}
				var sum clock.Time
				for _, c := range kids {
					sum += c.Dur
				}
				if sum != s.Dur {
					t.Fatalf("%s x%d: remote span %d legs sum to %v, span is %v",
						run.Runtime, run.VCPUs, s.ID, sum, s.Dur)
				}
				if p, ok := byID[s.Parent]; !ok || p.Phase != "shootdown" {
					t.Fatalf("%s x%d: remote span %d not parented to a shootdown root",
						run.Runtime, run.VCPUs, s.ID)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Error("no decomposed shootdown_remote spans found")
		}
	})

	t.Run("metrics cover every runtime", func(t *testing.T) {
		// Decoded from the -metrics-out bytes: every family carries its
		// name, kind and series.
		b, err := prof.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Families []map[string]json.RawMessage `json:"families"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatal(err)
		}
		fams := map[string]bool{}
		for _, f := range snap.Families {
			var name string
			if json.Unmarshal(f["name"], &name) != nil || f["kind"] == nil || f["series"] == nil {
				t.Errorf("family without name, kind or series: %v", f)
			}
			fams[name] = true
		}
		for _, want := range []string{
			"syscall_latency_ns", "shootdown_latency_ns", "guest_syscalls_total",
			"tlb_hits_total", "cpu_ops_total", "smp_shootdowns_total",
			"smp_request_latency_ns",
		} {
			if !fams[want] {
				t.Errorf("metrics snapshot missing family %s", want)
			}
		}
		var promBuf bytes.Buffer
		if err := prof.WriteMetricsProm(&promBuf); err != nil {
			t.Fatal(err)
		}
		for _, rt := range []string{"RunC", "HVM-BM", "PVM-BM", "CKI-BM", "gVisor"} {
			if !strings.Contains(promBuf.String(), `runtime="`+rt+`"`) {
				t.Errorf("Prometheus exposition missing runtime %s", rt)
			}
		}
	})
}

// Every runtime's span tree must account for all elapsed virtual time:
// the non-async roots of an arbitrary workload window sum to exactly
// the window, with zero unattributed cycles. This is the per-runtime
// exactness guarantee the breakdown view builds on.
func TestSpanTreesAccountForAllVirtualTime(t *testing.T) {
	cfgs := []struct {
		name string
		kind backends.Kind
		opts backends.Options
	}{
		{"runc", backends.RunC, backends.Options{}},
		{"hvm", backends.HVM, backends.Options{}},
		{"hvm-nst", backends.HVM, backends.Options{Nested: true}},
		{"pvm", backends.PVM, backends.Options{}},
		{"cki", backends.CKI, backends.Options{}},
		{"gvisor", backends.GVisor, backends.Options{}},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.name, func(t *testing.T) {
			c := backends.MustNew(cfg.kind, cfg.opts)
			rec := trace.NewSpanRecorder(c.Clk)
			c.Attach(backends.Observers{Spans: rec})
			// Warm first-touch state off the measurement.
			c.K.Getpid()
			rec.Reset()
			start := c.Clk.Now()
			c.K.Getpid()
			addr, err := c.K.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.K.TouchRange(addr, mem.PageSize, mmu.Write); err != nil {
				t.Fatal(err)
			}
			if err := c.K.MunmapCall(addr, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			c.K.Compute(clock.FromNanos(800))
			elapsed := c.Clk.Now() - start
			if got := trace.RootTotal(rec.Spans()); got != elapsed {
				t.Errorf("root spans sum to %v over a %v window (%v unattributed)",
					got, elapsed, elapsed-got)
			}
			if rec.Len() == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

// The recorded getpid root span is the measurement, exactly, on every
// runtime: the span tree is the calibrated flow the runtime charges.
func TestGetpidSpanMatchesCalibratedFlow(t *testing.T) {
	cfgs := []struct {
		name string
		kind backends.Kind
	}{
		{"runc", backends.RunC},
		{"hvm", backends.HVM},
		{"pvm", backends.PVM},
		{"cki", backends.CKI},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.name, func(t *testing.T) {
			c := backends.MustNew(cfg.kind, backends.Options{})
			rec := trace.NewSpanRecorder(c.Clk)
			c.Attach(backends.Observers{Spans: rec})
			c.K.Getpid()
			rec.Reset()
			start := c.Clk.Now()
			c.K.Getpid()
			elapsed := c.Clk.Now() - start
			spans := rec.Spans()
			if len(spans) == 0 || spans[0].Phase != "syscall" || spans[0].Parent != -1 {
				t.Fatalf("expected a syscall root span, got %+v", spans)
			}
			if spans[0].Dur != elapsed {
				t.Errorf("syscall span %v != measured %v", spans[0].Dur, elapsed)
			}
		})
	}
}

// TestWriteFlow: every flow renders on every Fig. 8/10 runtime with its
// roots summing to the measured window, except the hypercall on RunC,
// which has none.
func TestWriteFlow(t *testing.T) {
	for _, flow := range []string{"syscall", "pgfault", "hypercall"} {
		for _, rt := range []string{"runc", "hvm", "hvm-nst", "pvm", "cki"} {
			var b bytes.Buffer
			err := WriteFlow(&b, flow, rt)
			if flow == "hypercall" && rt == "runc" {
				if err == nil {
					t.Errorf("%s/%s: want an error", flow, rt)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/%s: %v", flow, rt, err)
			} else if !strings.Contains(b.String(), "TOTAL") {
				t.Errorf("%s/%s: no tree:\n%s", flow, rt, b.String())
			}
		}
	}
}
