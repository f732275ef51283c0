// Command ckirun boots a secure container on a chosen runtime and runs
// one named workload, printing virtual time, throughput and guest
// kernel statistics.
//
// Usage:
//
//	ckirun -runtime cki -workload btree
//	ckirun -runtime hvm -nested -workload gups
//	ckirun -runtime cki -workload btree -trace-out run.trace.json -metrics-out run.metrics.json
//	ckirun -list
//
// A run can be checkpointed into a CKISNAP1 image after the workload
// completes, and a later run can restore from one instead of
// cold-booting (the runtime configuration comes from the image; a
// corrupt or truncated image is rejected with an error):
//
//	ckirun -runtime cki -workload btree -checkpoint app.snap
//	ckirun -restore app.snap -workload btree
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/inspect"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	rt := flag.String("runtime", "cki", "runc | hvm | pvm | cki | gvisor")
	nested := flag.Bool("nested", false, "deploy inside an L1 IaaS VM")
	wl := flag.String("workload", "btree", "workload name (see -list)")
	list := flag.Bool("list", false, "list workloads and exit")
	dump := flag.Bool("dump", false, "dump the active address space after the run")
	traceN := flag.Int("trace", 0, "record flow spans and print the last N top-level flows")
	faultSeed := flag.Uint64("faults", 0, "run under a deterministic fault plan with this seed (0 = off)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's flow spans to FILE")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot JSON to FILE")
	auditOut := flag.String("audit-out", "", "record the machine-event audit log to FILE (replay with ckireplay)")
	checkpointOut := flag.String("checkpoint", "", "checkpoint the container to a CKISNAP1 image FILE after the workload completes")
	restoreIn := flag.String("restore", "", "restore the container from a CKISNAP1 image FILE instead of cold-booting (-runtime/-nested come from the image)")
	flag.Parse()

	cat := workloads.Catalog()
	if *list {
		names := make([]string, 0, len(cat))
		for n := range cat {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	kind, ok := backends.KindByName(*rt)
	if !ok {
		fmt.Fprintf(os.Stderr, "ckirun: unknown runtime %q\n", *rt)
		os.Exit(2)
	}
	runner, ok := cat[strings.ToLower(*wl)]
	if !ok {
		fmt.Fprintf(os.Stderr, "ckirun: unknown workload %q (try -list)\n", *wl)
		os.Exit(2)
	}
	var auditRec *audit.Recorder
	if *auditOut != "" {
		auditRec = audit.NewRecorder(nil)
		auditRec.Meta = audit.Meta{
			Kind:      "ckirun",
			Runtime:   strings.ToLower(*rt),
			Nested:    *nested,
			Workload:  strings.ToLower(*wl),
			FaultSeed: *faultSeed,
		}
	}
	var c *backends.Container
	var err error
	if *restoreIn != "" {
		// The audit recorder attaches at boot; a restored container's
		// boot is driven by the image, so the combination is rejected
		// rather than silently recording a partial log.
		if *auditOut != "" {
			fmt.Fprintf(os.Stderr, "ckirun: -audit-out cannot be combined with -restore\n")
			os.Exit(2)
		}
		blob, rerr := os.ReadFile(*restoreIn)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "ckirun: %v\n", rerr)
			os.Exit(1)
		}
		snap, rerr := snapshot.Decode(blob)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "ckirun: restore %s: %v\n", *restoreIn, rerr)
			os.Exit(1)
		}
		m, rerr := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "ckirun: restore: %v\n", rerr)
			os.Exit(1)
		}
		c, err = backends.Restore(m, snap)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckirun: restore %s: %v\n", *restoreIn, err)
			os.Exit(1)
		}
		fmt.Printf("restored:    %s\n", snap.Describe())
	} else {
		c, err = backends.New(kind, backends.Options{Nested: *nested, Audit: auditRec})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckirun: boot: %v\n", err)
			os.Exit(1)
		}
	}
	// Span and metrics observers are nil-safe no-ops on the virtual
	// clock: attaching them changes no measured time. All timestamps are
	// virtual, so the artifacts are byte-identical across runs.
	var rec *trace.SpanRecorder
	var reg *metrics.Registry
	if *traceN > 0 || *traceOut != "" || *metricsOut != "" {
		rec = trace.NewSpanRecorder(c.Clk)
		reg = metrics.NewRegistry()
		c.Attach(backends.Observers{
			Spans: rec,
			Flow:  metrics.NewFlowMetrics(reg, metrics.L("runtime", c.Name)),
			Audit: auditRec,
		})
	}
	writeArtifacts := func() {
		if *traceOut != "" {
			data := trace.ChromeTrace([]trace.TrackSet{
				{Name: c.Name + " " + strings.ToLower(*wl), Spans: rec.Spans()},
			})
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
				os.Exit(1)
			}
		}
		if *metricsOut != "" {
			c.CollectMetrics(reg, metrics.L("workload", strings.ToLower(*wl)))
			b, err := reg.Snapshot().JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*metricsOut, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
				os.Exit(1)
			}
		}
		if *auditOut != "" {
			if err := auditRec.WriteFile(*auditOut); err != nil {
				fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
				os.Exit(1)
			}
		}
	}
	var plan *faults.Plan
	if *faultSeed != 0 {
		plan = faults.DefaultPlan(*faultSeed)
		c.InjectFaults(plan)
	}
	res, err := runner.Run(c)
	if err != nil {
		// Under fault injection a guest-kernel panic or an aborted
		// workload is an expected outcome, not a harness failure: report
		// the containment result and the replayable fault log instead of
		// exiting nonzero.
		if plan != nil {
			fmt.Printf("runtime:     %s\n", c.Name)
			if errors.Is(err, guest.EKERNELDIED) || c.K.Died() {
				fmt.Printf("outcome:     guest kernel panic (contained; host unaffected)\n")
				fmt.Printf("panic:       %s\n", c.K.PanicReason())
			} else {
				fmt.Printf("outcome:     workload aborted by injected fault: %v\n", err)
			}
			fmt.Printf("fault plan:  seed=%#x injected: %s\n", plan.Seed(), plan.Summary())
			for _, f := range plan.Log() {
				fmt.Printf("  fired %-12s at occurrence %d\n", f.Site, f.Seq)
			}
			if *traceN > 0 {
				fmt.Println()
				fmt.Print(renderTimeline(rec.Spans(), *traceN))
			}
			writeArtifacts()
			return
		}
		fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("runtime:     %s\n", c.Name)
	fmt.Printf("workload:    %s\n", res.Workload)
	fmt.Printf("virtual time:%12v\n", res.Time)
	fmt.Printf("operations:  %12d  (%.0f ops/s, %v/op)\n", res.Ops, res.OpsPerSec(), res.PerOp())
	fmt.Printf("syscalls:    %12d\n", res.Syscalls)
	fmt.Printf("page faults: %12d\n", res.PageFaults)
	st := c.K.Stats
	fmt.Printf("guest totals: syscalls=%d pgfaults=%d ptewrites=%d ctxsw=%d hypercalls=%d\n",
		st.Syscalls, st.PageFaults, st.PTEWrites, st.CtxSwitches, st.Hypercalls)
	if plan != nil {
		fmt.Printf("fault plan:  seed=%#x injected: %s (survived)\n", plan.Seed(), plan.Summary())
	}
	if *dump {
		fmt.Println()
		fmt.Print(inspect.Render(c.HostMem, c.CPU.CR3()))
	}
	if *traceN > 0 {
		fmt.Println()
		fmt.Print(renderTimeline(rec.Spans(), *traceN))
	}
	if *checkpointOut != "" {
		blob, err := backends.CheckpointBytes(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckirun: checkpoint: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*checkpointOut, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ckirun: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint:  %d bytes -> %s\n", len(blob), *checkpointOut)
	}
	writeArtifacts()
}

// renderTimeline formats the last n non-async root spans: one line per
// top-level flow (syscall, page fault, context switch, timer tick,
// shootdown, ...) with its virtual start time and duration.
func renderTimeline(spans []trace.Span, n int) string {
	var roots []trace.Span
	for _, s := range spans {
		if s.Parent == -1 && !s.Async {
			roots = append(roots, s)
		}
	}
	if len(roots) > n {
		roots = roots[len(roots)-n:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flow timeline (last %d top-level flows):\n", len(roots))
	for _, s := range roots {
		fmt.Fprintf(&b, "  %12v  cpu%d pid %-3d  %-12s %v\n", s.At, s.VCPU, s.PID, s.Phase, s.Dur)
	}
	return b.String()
}
