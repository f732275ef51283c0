package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Cycle-attribution profiles over the SMP experiment: the same seeded
// runs as RunSMPParallel, with the span recorder, metrics registry and
// audit recorder attached (RunSMPObserved). Because the observers are
// nil-safe no-ops on the virtual clock, the profiled report is
// identical — byte for byte — to the plain one; the profile adds the
// per-phase decomposition (Table-2 style), the folded stacks, the
// Chrome trace, the metrics snapshot and the machine-event log on top.

// SMPRun is the span capture of one (runtime, vCPU count) bench run.
type SMPRun struct {
	Runtime string `json:"runtime"`
	VCPUs   int    `json:"vcpus"`
	// ServiceLoPs/ServiceHiPs bound the 16-request service-time
	// measurement window on the 1-vCPU run (both zero otherwise). The
	// non-async root spans inside it sum to exactly ServiceHiPs -
	// ServiceLoPs, which is what WriteBreakdown verifies.
	ServiceLoPs int64 `json:"service_lo_ps,omitempty"`
	ServiceHiPs int64 `json:"service_hi_ps,omitempty"`
	// Shootdowns and ShootdownTotalPs mirror the SMP engine's stats so
	// span sums can be checked against the engine after a JSON
	// round-trip.
	Shootdowns       uint64       `json:"shootdowns,omitempty"`
	ShootdownTotalPs int64        `json:"shootdown_total_ps,omitempty"`
	Spans            []trace.Span `json:"spans"`
}

// serviceWindow returns the non-async spans fully inside the service
// measurement window.
func (r *SMPRun) serviceWindow() []trace.Span {
	lo, hi := clock.Time(r.ServiceLoPs), clock.Time(r.ServiceHiPs)
	var out []trace.Span
	for _, s := range r.Spans {
		if !s.Async && s.At >= lo && s.At+s.Dur <= hi {
			out = append(out, s)
		}
	}
	return out
}

// SMPProfile is the full observability artifact of one profiled SMP
// experiment.
type SMPProfile struct {
	Seed   uint64     `json:"seed"`
	Rounds int        `json:"rounds"`
	Report *SMPReport `json:"report"`
	Runs   []*SMPRun  `json:"runs"`

	// reg is the live metrics registry and log the machine-event log
	// (both nil on a profile parsed back from JSON).
	reg *metrics.Registry
	log *audit.Recorder
}

// Registry exposes the live metrics registry (nil after ParseSMPProfile).
func (p *SMPProfile) Registry() *metrics.Registry { return p.reg }

// Audit exposes the machine-event log (nil after ParseSMPProfile).
func (p *SMPProfile) Audit() *audit.Recorder { return p.log }

// JSON renders the profile as deterministic indented JSON.
func (p *SMPProfile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// writeFiles writes the profile artifacts o names: the Chrome trace
// (-trace-out), the span profile (-spans-out), the metrics snapshot
// (-metrics-out) and the audit log (-audit-out).
func (p *SMPProfile) writeFiles(o Options) error {
	if o.AuditOut != "" {
		if err := p.log.WriteFile(o.AuditOut); err != nil {
			return err
		}
	}
	if o.TraceOut != "" {
		if err := os.WriteFile(o.TraceOut, p.ChromeJSON(), 0o644); err != nil {
			return err
		}
	}
	for _, out := range []struct {
		path   string
		encode func() ([]byte, error)
	}{{o.SpansOut, p.JSON}, {o.MetricsOut, p.MetricsJSON}} {
		if out.path == "" {
			continue
		}
		b, err := out.encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ParseSMPProfile loads a profile written by JSON.
func ParseSMPProfile(b []byte) (*SMPProfile, error) {
	p := &SMPProfile{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, fmt.Errorf("profile: parse: %w", err)
	}
	return p, nil
}

// run looks up the capture for (runtime, vcpus); nil if absent.
func (p *SMPProfile) run(runtime string, vcpus int) *SMPRun {
	for _, r := range p.Runs {
		if r.Runtime == runtime && r.VCPUs == vcpus {
			return r
		}
	}
	return nil
}

// runtimeOrder returns the distinct runtimes in first-appearance order.
func (p *SMPProfile) runtimeOrder() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range p.Runs {
		if !seen[r.Runtime] {
			seen[r.Runtime] = true
			out = append(out, r.Runtime)
		}
	}
	return out
}

func fmtPsAsNs(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	return fmt.Sprintf("%s%d.%03d", neg, ps/1000, ps%1000)
}

// WriteBreakdown renders the Table-2-style per-phase cost attribution
// for every runtime from the 1-vCPU service window, and verifies the
// accounting: the non-async root spans must sum to exactly the window,
// and the per-request service derived from the window must equal the
// ServiceNs the report published. Any mismatch is an error — the
// decomposition is not allowed to drift from the measurement.
func (p *SMPProfile) WriteBreakdown(w io.Writer) error {
	if p.Report == nil {
		return fmt.Errorf("profile: no report attached")
	}
	for _, rt := range p.runtimeOrder() {
		run := p.run(rt, 1)
		if run == nil || run.ServiceHiPs <= run.ServiceLoPs {
			return fmt.Errorf("profile: %s: no 1-vCPU service window captured", rt)
		}
		window := run.serviceWindow()
		elapsed := clock.Time(run.ServiceHiPs - run.ServiceLoPs)
		if got := trace.RootTotal(window); got != elapsed {
			return fmt.Errorf("profile: %s: spans sum to %v inside a %v window (unattributed time)",
				rt, got, elapsed)
		}
		service := elapsed / smpServiceReqs
		var row *SMPRow
		for i := range p.Report.Rows {
			if p.Report.Rows[i].Runtime == rt && p.Report.Rows[i].VCPUs == 1 {
				row = &p.Report.Rows[i]
			}
		}
		if row == nil {
			return fmt.Errorf("profile: %s: no 1-vCPU report row", rt)
		}
		if want := float64(service) / float64(clock.Nanosecond); row.ServiceNs != want {
			return fmt.Errorf("profile: %s: breakdown service %.3fns != report %.3fns",
				rt, want, row.ServiceNs)
		}
		fmt.Fprintf(w, "%s  (%d requests, %s ns total, %s ns/request)\n",
			rt, smpServiceReqs, fmtPsAsNs(int64(elapsed)), fmtPsAsNs(int64(service)))
		writeTree(w, window, elapsed)
	}
	return nil
}

// writeTree prints the folded phase tree of spans, one row per phase
// with its count, inclusive and self time, then the TOTAL row.
func writeTree(w io.Writer, spans []trace.Span, total clock.Time) {
	fmt.Fprintf(w, "  %-44s %10s %14s %14s\n", "phase", "count", "total ns", "self ns")
	var walk func(n *trace.Node, depth int)
	walk = func(n *trace.Node, depth int) {
		for _, c := range n.Children {
			fmt.Fprintf(w, "  %-44s %10d %14s %14s\n",
				strings.Repeat("  ", depth)+c.Phase, c.Count,
				fmtPsAsNs(int64(c.Total)), fmtPsAsNs(int64(c.Self())))
			walk(c, depth+1)
		}
	}
	walk(trace.Fold(spans), 0)
	fmt.Fprintf(w, "  %-44s %10s %14s\n\n", "TOTAL", "", fmtPsAsNs(int64(total)))
}

// ChromeTracks assembles the widest (8-vCPU) run of each runtime as one
// Chrome-trace process with a thread per vCPU.
func (p *SMPProfile) ChromeTracks() []trace.TrackSet {
	var tracks []trace.TrackSet
	for _, rt := range p.runtimeOrder() {
		widest := (*SMPRun)(nil)
		for _, r := range p.Runs {
			if r.Runtime == rt && (widest == nil || r.VCPUs > widest.VCPUs) {
				widest = r
			}
		}
		if widest != nil {
			tracks = append(tracks, trace.TrackSet{
				Name:  fmt.Sprintf("%s %dvcpu", widest.Runtime, widest.VCPUs),
				Spans: widest.Spans,
			})
		}
	}
	return tracks
}

// ChromeJSON renders the profile as a Chrome trace-event document.
func (p *SMPProfile) ChromeJSON() []byte {
	return trace.ChromeTrace(p.ChromeTracks())
}

// FoldedStacks renders every run as flamegraph collapsed-stack lines,
// prefixed "runtime/Nvcpu".
func (p *SMPProfile) FoldedStacks() string {
	var b strings.Builder
	for _, r := range p.Runs {
		b.WriteString(trace.FoldedStacks(fmt.Sprintf("%s/%dvcpu", r.Runtime, r.VCPUs), r.Spans))
	}
	return b.String()
}

// MetricsJSON renders the registry snapshot (requires a live registry).
func (p *SMPProfile) MetricsJSON() ([]byte, error) {
	if p.reg == nil {
		return nil, fmt.Errorf("profile: no live metrics registry (parsed from JSON?)")
	}
	return p.reg.Snapshot().JSON()
}

// WriteMetricsProm writes the registry in Prometheus text format.
func (p *SMPProfile) WriteMetricsProm(w io.Writer) error {
	if p.reg == nil {
		return fmt.Errorf("profile: no live metrics registry (parsed from JSON?)")
	}
	return p.reg.WriteProm(w)
}

// ExtBreakdown is the "breakdown" experiment: the profiled SMP run's
// per-phase attribution, with the exact-sum verification as the pass
// criterion.
func ExtBreakdown(scale int, w io.Writer) error {
	prof, err := RunSMPObserved(scale, SMPSeed, 1)
	if err != nil {
		return err
	}
	return prof.WriteBreakdown(w)
}

// flowProbes names the microbenchmark probe behind each ckitrace flow
// and how many operations it times: Table 2's getpid, Fig. 10a's
// anonymous faults and Table 2's empty hypercall.
var flowProbes = map[string]struct {
	ops   int
	probe func(c *backends.Container) (clock.Time, error)
}{
	"syscall":   {1, func(c *backends.Container) (clock.Time, error) { return c.MeasureSyscall(), nil }},
	"pgfault":   {fig10aFaults, func(c *backends.Container) (clock.Time, error) { return c.MeasureAnonFault(fig10aFaults) }},
	"hypercall": {1, (*backends.Container).MeasureHypercall},
}

// ErrUnattributed marks a recorded flow whose root spans do not sum to
// the window its probe measured.
var ErrUnattributed = errors.New("unattributed time")

// WriteFlow renders where each nanosecond of one flow goes on one paper
// runtime. It boots a fresh container of the runtime label names (a
// paper runtime label, matched without regard to case), runs the flow's
// probe with a span recorder attached, and prints the folded tree of the
// probe's measured operations: the last root spans, after its warm-up.
// The per-op value is the probe's own result. The error wraps
// ErrUnattributed unless the roots sum exactly to the elapsed window.
func WriteFlow(w io.Writer, flow, label string) error {
	p, ok := flowProbes[flow]
	if !ok {
		return fmt.Errorf("unknown flow %q (want syscall, pgfault or hypercall)", flow)
	}
	name := ""
	for n := range paperRuntimes {
		if strings.EqualFold(n, label) {
			name = n
		}
	}
	if name == "" {
		return fmt.Errorf("unknown runtime %q", label)
	}
	c := boot(name)
	rec := trace.NewSpanRecorder(c.Clk)
	c.Attach(backends.Observers{Spans: rec})
	per, err := p.probe(c)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", flow, name, err)
	}
	end := c.Clk.Now()
	spans := rec.Spans()
	first := len(spans)
	for roots := 0; roots < p.ops && first > 0; {
		first--
		if s := spans[first]; s.Parent == -1 && !s.Async {
			roots++
		}
	}
	window := spans[first:]
	elapsed := end - spans[first].At
	if got := trace.RootTotal(window); got != elapsed {
		return fmt.Errorf("%s on %s: spans sum to %v inside a %v window: %w",
			flow, name, got, elapsed, ErrUnattributed)
	}
	fmt.Fprintf(w, "%s / %s  (%d measured, %s ns total, %s ns/op)\n",
		flow, name, p.ops, fmtPsAsNs(int64(elapsed)), fmtPsAsNs(int64(per)))
	writeTree(w, window, elapsed)
	return nil
}
