// Command ckitrace renders the simulator's flow decompositions and
// observability artifacts.
//
// Without -in it boots a fresh container per runtime, runs the probe of
// one context-switch flow the paper analyzes (Fig. 8, Fig. 10) with a
// span recorder attached, and prints the recorded per-phase tree of the
// measured operations. The roots sum exactly to the measured window (it
// exits 1 otherwise); an unknown flow or runtime, or a runtime without
// the flow, is a usage error.
//
// With -in it loads a span profile written by `ckibench -exp smp
// -spans-out` and renders one of the measured views; all values come
// from recorded spans over the virtual clock, so every view is
// byte-identical across runs of the same seeded experiment.
//
// Usage:
//
//	ckitrace -flow pgfault -runtime pvm
//	ckitrace -flow syscall -runtime all
//	ckitrace -in smp.spans.json -breakdown     # Table-2-style attribution
//	ckitrace -in smp.spans.json -top 10        # hottest phases by self time
//	ckitrace -in smp.spans.json -chrome        # Chrome/Perfetto trace JSON
//	ckitrace -in smp.spans.json -folded        # flamegraph collapsed stacks
//	ckitrace -metrics smp.metrics.json         # render a metrics snapshot
//
// -since/-until restrict a profile view to the spans starting inside a
// virtual-time range (e.g. -since 120us -until 1.5ms; bare numbers are
// picoseconds). They combine with -top, -chrome, and -folded, but not
// with -breakdown, whose attribution is verified against the report's
// whole-run totals.
//
// With -tail it loads a BENCH_tail report written by `ckibench -exp
// tail -json` and renders per-request causal waterfalls — every
// lifecycle segment with its virtual start time and duration, plus the
// component attribution that sums exactly to the end-to-end latency:
//
//	ckitrace -tail BENCH_tail.json                          # list traced requests
//	ckitrace -tail BENCH_tail.json -request 633821815e6de0c8
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckitrace: "+format+"\n", args...)
	os.Exit(1)
}

func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ckitrace: "+format+"\n", args...)
	os.Exit(2)
}

// validateSet rejects conflicting flag combinations instead of
// silently ignoring the losers. The four modes are mutually exclusive:
// -metrics, -in (plus exactly one view selector), -tail (optionally
// with -request), and the live flow tree (-flow/-runtime).
// top is -top's value, which must be at least 1 when set. Separated
// from flag.Visit so the rules are unit-testable.
func validateSet(set map[string]bool, top int) error {
	if set["top"] && top < 1 {
		return fmt.Errorf("-top %d: must be at least 1", top)
	}
	views := []string{"breakdown", "top", "chrome", "folded"}
	nviews := 0
	for _, v := range views {
		if set[v] {
			nviews++
		}
	}
	switch {
	case set["metrics"]:
		for _, other := range append([]string{"in", "tail", "request", "flow", "runtime"}, views...) {
			if set[other] {
				return fmt.Errorf("-metrics cannot be combined with -%s", other)
			}
		}
	case set["tail"]:
		for _, other := range append([]string{"in", "flow", "runtime", "since", "until"}, views...) {
			if set[other] {
				return fmt.Errorf("-tail renders request waterfalls; it cannot be combined with -%s", other)
			}
		}
	case set["in"]:
		if set["request"] {
			return fmt.Errorf("-request requires -tail")
		}
		for _, other := range []string{"flow", "runtime"} {
			if set[other] {
				return fmt.Errorf("-in renders a recorded profile; -%s selects a live flow probe — pick one", other)
			}
		}
		if nviews == 0 {
			return fmt.Errorf("-in requires exactly one of -breakdown, -top N, -chrome, -folded")
		}
		if nviews > 1 {
			return fmt.Errorf("-breakdown, -top, -chrome and -folded are mutually exclusive")
		}
		if (set["since"] || set["until"]) && set["breakdown"] {
			return fmt.Errorf("-since/-until cannot be combined with -breakdown (its attribution is verified against whole-run totals)")
		}
	case set["request"]:
		return fmt.Errorf("-request requires -tail")
	case nviews > 0:
		return fmt.Errorf("-%s requires -in", firstSet(set, views))
	default:
		if set["since"] || set["until"] {
			return fmt.Errorf("-since/-until require -in")
		}
	}
	return nil
}

func validateFlags(top int) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateSet(set, top); err != nil {
		usage("%v", err)
	}
}

// parseSpanRange resolves -since/-until into a [since, until] span
// filter range (until 0 = unbounded), exiting 2 on bad input.
func parseSpanRange(since, until string) (clock.Time, clock.Time) {
	var lo, hi clock.Time
	var err error
	if since != "" {
		if lo, err = clock.ParseTime(since); err != nil {
			usage("-since: %v", err)
		}
	}
	if until != "" {
		if hi, err = clock.ParseTime(until); err != nil {
			usage("-until: %v", err)
		}
	}
	if hi != 0 && lo > hi {
		usage("-since %s is after -until %s", since, until)
	}
	return lo, hi
}

func firstSet(set map[string]bool, names []string) string {
	for _, n := range names {
		if set[n] {
			return n
		}
	}
	return names[0]
}

func profileViews(path string, breakdown, chrome, folded bool, top int, since, until clock.Time) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	prof, err := bench.ParseSMPProfile(data)
	if err != nil {
		fail("%v", err)
	}
	if since > 0 || until > 0 {
		for i := range prof.Runs {
			prof.Runs[i].Spans = trace.FilterSpans(prof.Runs[i].Spans, since, until)
		}
	}
	switch {
	case breakdown:
		if err := prof.WriteBreakdown(os.Stdout); err != nil {
			fail("%v", err)
		}
	case chrome:
		os.Stdout.Write(prof.ChromeJSON())
	case folded:
		fmt.Print(prof.FoldedStacks())
	case top > 0:
		for _, r := range prof.Runs {
			fmt.Printf("%s %dvcpu — top %d phases by self time:\n", r.Runtime, r.VCPUs, top)
			phases := trace.TopPhases(r.Spans)
			if len(phases) > top {
				phases = phases[:top]
			}
			for _, ph := range phases {
				fmt.Printf("  %-32s %10d x %14.3f ns\n", ph.Phase, ph.Count, ph.Self.Nanos())
			}
			fmt.Println()
		}
	default:
		fail("-in requires one of -breakdown, -top N, -chrome, -folded")
	}
}

// renderTail renders per-request causal waterfalls from a BENCH_tail
// report: with reqID the one request's full story, without it an index
// of every request that has a recorded waterfall.
func renderTail(path, reqID string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	rep := &bench.TailReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		fail("%s: %v", path, err)
	}
	if reqID == "" {
		fmt.Printf("requests with recorded waterfalls (render one with -request <id>):\n")
		for _, r := range rep.Rows {
			for _, wf := range r.Waterfalls {
				fmt.Printf("  %-10s %s  rank %-4d %10.3f ms\n",
					r.Runtime, wf.RequestID, wf.Rank, wf.LatencyMs)
			}
		}
		return
	}
	id, err := trace.ParseRequestID(reqID)
	if err != nil {
		usage("%v", err)
	}
	want := id.String()
	for _, r := range rep.Rows {
		for _, wf := range r.Waterfalls {
			if wf.RequestID != want {
				continue
			}
			c := wf.Components
			fmt.Printf("request %s — %s storm cell, slowness rank %d, latency %.3f ms\n",
				want, r.Runtime, wf.Rank, wf.LatencyMs)
			fmt.Printf("components (they sum exactly to the latency):\n")
			for _, p := range []struct {
				name string
				ps   int64
			}{
				{"queue", c.QueuePs}, {"boot", c.BootPs},
				{"warm_restore", c.WarmRestorePs}, {"service", c.ServicePs},
				{"storm_redo", c.StormRedoPs},
			} {
				if p.ps == 0 {
					continue
				}
				fmt.Printf("  %-14s %14s  %5.1f%%\n", p.name,
					clock.Time(p.ps).String(), 100*float64(p.ps)/float64(c.TotalPs))
			}
			fmt.Printf("  %-14s %14s  (%d placement(s), %d eviction(s))\n",
				"TOTAL", clock.Time(c.TotalPs).String(), c.Placements, c.Evictions)
			fmt.Printf("waterfall (virtual time):\n")
			for _, s := range wf.Steps {
				line := fmt.Sprintf("  %14s  %-14s", clock.Time(s.AtPs).String(), s.Kind)
				if s.DurPs > 0 {
					line += fmt.Sprintf("  +%s", clock.Time(s.DurPs).String())
				}
				if s.Outcome != "" {
					line += fmt.Sprintf("  [%s]", s.Outcome)
				}
				if s.Kind != trace.SegArrival && s.Kind != trace.SegReject {
					line += fmt.Sprintf("  node %d", s.Node)
				}
				fmt.Println(line)
			}
			return
		}
	}
	fail("request %s has no waterfall in %s (list them with -tail alone)", want, path)
}

func renderMetrics(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	snap, err := metrics.ParseSnapshot(data)
	if err != nil {
		fail("%v", err)
	}
	if err := snap.Render(os.Stdout); err != nil {
		fail("%v", err)
	}
}

func main() {
	flow := flag.String("flow", "pgfault", "syscall | pgfault | hypercall")
	rt := flag.String("runtime", "all", "a paper runtime label, any case (runc, hvm, hvm-nst, pvm, cki, gvisor, ...) | all")
	in := flag.String("in", "", "span profile JSON from ckibench -exp smp -spans-out")
	breakdown := flag.Bool("breakdown", false, "with -in: per-phase cycle attribution (verified against the report)")
	top := flag.Int("top", 0, "with -in: print the N hottest phases by self time per run")
	chrome := flag.Bool("chrome", false, "with -in: emit Chrome trace-event JSON")
	folded := flag.Bool("folded", false, "with -in: emit flamegraph collapsed stacks")
	metricsIn := flag.String("metrics", "", "render a metrics snapshot JSON written by -metrics-out")
	since := flag.String("since", "", "with -in: drop spans starting before this virtual time (e.g. 120us, 1.5ms; bare = ps)")
	until := flag.String("until", "", "with -in: drop spans starting after this virtual time")
	tailIn := flag.String("tail", "", "BENCH_tail report JSON from ckibench -exp tail -json")
	request := flag.String("request", "", "with -tail: render this request's causal waterfall (16-hex id)")
	flag.Parse()
	validateFlags(*top)

	if *metricsIn != "" {
		renderMetrics(*metricsIn)
		return
	}
	if *tailIn != "" {
		renderTail(*tailIn, *request)
		return
	}
	if *in != "" {
		lo, hi := parseSpanRange(*since, *until)
		profileViews(*in, *breakdown, *chrome, *folded, *top, lo, hi)
		return
	}

	names := []string{*rt}
	if *rt == "all" {
		names = []string{"runc", "hvm", "hvm-nst", "pvm", "cki"}
		if *flow == "hypercall" {
			names = names[1:] // RunC has no hypercalls
		}
	}
	for _, n := range names {
		if err := bench.WriteFlow(os.Stdout, *flow, n); err != nil {
			if errors.Is(err, bench.ErrUnattributed) {
				fail("%v", err)
			}
			usage("%v", err)
		}
	}
}
