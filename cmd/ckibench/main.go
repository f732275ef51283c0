// Command ckibench regenerates the paper's tables and figures.
//
// Usage:
//
//	ckibench                 # run every experiment at scale 1
//	ckibench -exp fig12      # run one experiment
//	ckibench -scale 4        # larger workloads (slower, smoother)
//	ckibench -list           # list experiment ids, artifacts and their flags
//
// Every experiment with a JSON artifact is registered in
// bench.Extensions() together with the flags it accepts; ckibench
// derives its dispatch and its "flag requires -exp" usage errors (exit
// 2) from that registry.
//
// Grid experiments fan their independent cells out to host goroutines;
// -parallel caps the fan-out (default GOMAXPROCS). Every artifact is
// byte-identical for any -parallel value — cells are fully isolated
// simulations on their own virtual clocks, assembled in a fixed order.
//
//	ckibench -exp smp -json -parallel 8
//	ckibench -exp chaos -json -seeds 16 -parallel 8   # seed sweep
//
// The smp experiment can additionally emit observability artifacts
// (all timestamps are virtual, so the bytes are identical across runs):
//
//	ckibench -exp smp -trace-out smp.trace.json    # Chrome/Perfetto trace
//	ckibench -exp smp -spans-out smp.spans.json    # span profile (ckitrace -in)
//	ckibench -exp smp -metrics-out smp.metrics.json
//	ckibench -exp smp -audit-out smp.audit.log     # machine-event log (ckireplay -in)
//
// The wallclock experiment measures the simulator itself (host ns/op,
// allocs/op, parallel speedup) and emits the BENCH_wallclock artifact:
//
//	ckibench -exp wallclock > BENCH_wallclock.json
//
// The snapshot experiment measures checkpoint/restore latency, live
// migration (iterative pre-copy with dirty-page tracking) and
// warm-vs-cold restart recovery, emitting the BENCH_snapshot artifact;
// -snap-out additionally writes a CKISNAP1 checkpoint image:
//
//	ckibench -exp snapshot -json > BENCH_snapshot.json
//	ckibench -exp snapshot -snap-out cki.snap
//
// The fleet experiment simulates datacenter-scale serving: open-loop
// heavy-traffic arrivals placed across a fleet of simulated nodes by a
// pluggable scheduler, with capacity curves, p50/p99/p999 tails, and a
// per-node machine replay stage. It emits the BENCH_fleet artifact:
//
//	ckibench -exp fleet -json > BENCH_fleet.json
//	ckibench -exp fleet -nodes 8 -sched spread       # smaller fleet, one scheduler
//	ckibench -exp fleet -arrival-rate 50000          # one segment at 50k arrivals/s
//	ckibench -exp fleet -trace-file diurnal.trace    # piecewise rate trace
//
// The tail experiment traces every request's lifecycle through the
// eviction-storm scenario and attributes tail latency to exact causal
// components (queue, boot, warm restore, service, storm redo — they
// sum to the end-to-end latency, picosecond-exact), with bucket
// exemplars and top-K waterfalls. It emits the BENCH_tail artifact;
// ckitrace -tail renders any request's waterfall from it:
//
//	ckibench -exp tail -json > BENCH_tail.json
//	ckibench -exp tail -nodes 8                      # smaller fleet
//
// The serverless experiment measures cold-start latency and high-churn
// serving under the fork-from-snapshot fast path: per-runtime
// calibration of the four instantiation paths (cold boot, eager
// restore, COW fork, lazy fork), a machine-level churn loop against
// one shared page store, and a fleet churn grid with per-request
// cold-start attribution. It emits the BENCH_serverless artifact:
//
//	ckibench -exp serverless -json > BENCH_serverless.json
//	ckibench -exp serverless -fork-mode lazy         # one instantiation mode
//	ckibench -exp serverless -churn-rate 30000       # absolute arrival rate
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/clock"
)

// fail prints a ckibench error and exits with code.
func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ckibench: "+format+"\n", args...)
	os.Exit(code)
}

// config is the parsed flag set, separated from flag.Parse so the
// validation rules are unit-testable. The experiment flags bind straight
// into bench.Options; scrapeIv is -scrape-interval as typed, which
// validate parses into Options.ScrapeInterval.
type config struct {
	exp      string
	jsonOut  bool
	scrapeIv string
	bench.Options
}

// expFlags names the experiment flags set away from their defaults.
func (c config) expFlags() []string {
	var set []string
	for _, f := range []struct {
		name string
		on   bool
	}{
		{"-seeds", c.Seeds != 1},
		{"-trace-out", c.TraceOut != ""},
		{"-spans-out", c.SpansOut != ""},
		{"-metrics-out", c.MetricsOut != ""},
		{"-audit-out", c.AuditOut != ""},
		{"-checkpoint-interval", c.Interval != 1},
		{"-snap-out", c.SnapOut != ""},
		{"-nodes", c.Nodes != 0},
		{"-sched", c.Sched != ""},
		{"-arrival-rate", c.ArrivalRate != 0},
		{"-trace-file", c.TraceFile != ""},
		{"-scrape-interval", c.scrapeIv != ""},
		{"-slo-out", c.SLOOut != ""},
		{"-bundle-out", c.BundleOut != ""},
		{"-churn-rate", c.ChurnRate != 0},
		{"-fork-mode", c.ForkMode != ""},
	} {
		if f.on {
			set = append(set, f.name)
		}
	}
	return set
}

// accepting lists the artifact experiments that accept flag, or all of
// them for flag "", as "a, b, or c".
func accepting(flag string) string {
	var ids []string
	for _, e := range bench.Extensions() {
		if e.Artifact != nil && (flag == "" || e.Artifact.Accepts(flag)) {
			ids = append(ids, e.ID)
		}
	}
	switch n := len(ids); n {
	case 1:
		return ids[0]
	case 2:
		return ids[0] + " or " + ids[1]
	default:
		return strings.Join(ids[:n-1], ", ") + ", or " + ids[n-1]
	}
}

// validate returns a usage error (exit 2) for flag values out of range,
// mutually exclusive flags, and experiment flags the chosen experiment
// does not accept (per the registry). It resolves -scrape-interval
// into c.ScrapeInterval.
func validate(c *config) error {
	switch {
	case c.Scale < 1:
		return errors.New("-scale must be >= 1")
	case c.Parallel < 1:
		return errors.New("-parallel must be >= 1")
	case c.Seeds < 1:
		return errors.New("-seeds must be >= 1")
	case c.Interval < 1:
		return errors.New("-checkpoint-interval must be >= 1")
	case c.Nodes < 0:
		return errors.New("-nodes must be >= 1")
	case c.ArrivalRate < 0:
		return errors.New("-arrival-rate must be > 0")
	case c.ChurnRate < 0:
		return errors.New("-churn-rate must be > 0")
	case c.ArrivalRate != 0 && c.TraceFile != "":
		return errors.New("-arrival-rate and -trace-file are mutually exclusive")
	case c.AuditOut != "" && (c.TraceOut != "" || c.SpansOut != "" || c.MetricsOut != ""):
		return errors.New("-audit-out cannot be combined with the span/metrics artifact flags")
	}
	if c.scrapeIv != "" {
		d, err := clock.ParseTime(c.scrapeIv)
		if err != nil {
			return fmt.Errorf("-scrape-interval: %w", err)
		}
		if d <= 0 {
			return errors.New("-scrape-interval must be > 0")
		}
		c.ScrapeInterval = d
	}
	e, ok := bench.Find(c.exp)
	if c.exp != "" && !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", c.exp)
	}
	for _, name := range c.expFlags() {
		if e.Artifact == nil || !e.Artifact.Accepts(name) {
			return fmt.Errorf("%s requires -exp %s", name, accepting(name))
		}
	}
	if c.jsonOut && e.Artifact == nil {
		return fmt.Errorf("-json is only supported with -exp %s", accepting(""))
	}
	if c.Seeds > 1 && !c.jsonOut {
		return errors.New("-seeds requires -json")
	}
	if e.Artifact != nil && e.Artifact.Validate != nil {
		return e.Artifact.Validate(c.Options)
	}
	return nil
}

// usage prefixes an experiment flag's help with the experiments that
// accept it.
func usage(flag, text string) string {
	return "with -exp " + accepting(flag) + ": " + text
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.exp, "exp", "", "experiment id (empty = all)")
	flag.IntVar(&cfg.Scale, "scale", 1, "workload scale factor (>= 1)")
	list := flag.Bool("list", false, "list experiments, with each artifact's file and flags, and exit")
	flag.BoolVar(&cfg.jsonOut, "json", false, usage("", "emit the JSON report instead of a table"))
	flag.IntVar(&cfg.Parallel, "parallel", bench.DefaultParallel(), "max grid cells run concurrently (artifacts are byte-identical for any value)")
	flag.IntVar(&cfg.Seeds, "seeds", 1, usage("-seeds", "sweep this many derived seeds (requires -json)"))
	flag.StringVar(&cfg.TraceOut, "trace-out", "", usage("-trace-out", "write a Chrome trace-event JSON to FILE"))
	flag.StringVar(&cfg.SpansOut, "spans-out", "", usage("-spans-out", "write the span profile JSON to FILE"))
	flag.StringVar(&cfg.MetricsOut, "metrics-out", "", usage("-metrics-out", "write the metrics snapshot JSON to FILE"))
	flag.StringVar(&cfg.AuditOut, "audit-out", "", usage("-audit-out", "record the machine-event audit log to FILE"))
	flag.StringVar(&cfg.SnapOut, "snap-out", "", usage("-snap-out", "write the CKI cell's CKISNAP1 checkpoint image to FILE"))
	flag.IntVar(&cfg.Interval, "checkpoint-interval", 1, usage("-checkpoint-interval", "supervised rounds between periodic checkpoints in the warm-restart comparison"))
	flag.IntVar(&cfg.Nodes, "nodes", 0, usage("-nodes", "simulated node count"))
	flag.StringVar(&cfg.Sched, "sched", "", usage("-sched", "restrict to one scheduler (binpack, spread; default both)"))
	flag.Float64Var(&cfg.ArrivalRate, "arrival-rate", 0, usage("-arrival-rate", "replace the capacity curve with one open-loop segment at this rate (arrivals/sec)"))
	flag.StringVar(&cfg.TraceFile, "trace-file", "", usage("-trace-file", "drive arrivals from a piecewise rate trace file (\"rate_per_sec duration_ms\" lines)"))
	flag.StringVar(&cfg.scrapeIv, "scrape-interval", "", usage("-scrape-interval", "virtual scrape interval (e.g. 250us, 1.5ms; bare numbers are ps)"))
	flag.StringVar(&cfg.SLOOut, "slo-out", "", usage("-slo-out", "slo writes per-runtime CKITS1 timelines under DIR; fleet (with -scrape-interval) writes the merged timeline to FILE (.ckits = binary, else JSON)"))
	flag.StringVar(&cfg.BundleOut, "bundle-out", "", usage("-bundle-out", "write the postmortem bundles as JSON under DIR"))
	flag.Float64Var(&cfg.ChurnRate, "churn-rate", 0, usage("-churn-rate", "replace the derived churn arrival rate with this absolute rate (arrivals/sec)"))
	flag.StringVar(&cfg.ForkMode, "fork-mode", "", usage("-fork-mode", "restrict the fleet stage to one instantiation mode (cold, eager, cow, lazy; default all)"))
	flag.Parse()

	if err := validate(&cfg); err != nil {
		fail(2, "%v", err)
	}

	everything := append(bench.All(), bench.Extensions()...)
	if *list {
		for _, e := range everything {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
			if a := e.Artifact; a != nil {
				fmt.Printf("%-12s -json: %s\n", "", strings.TrimSpace(a.Path+"  "+strings.Join(a.Flags, " ")))
			}
		}
		return
	}
	run := func(e bench.Experiment) {
		fmt.Printf("--- %s: %s ---\n", e.ID, e.Title)
		if err := e.Run(cfg.Scale, os.Stdout); err != nil {
			fail(1, "%s: %v", e.ID, err)
		}
	}
	if cfg.exp == "" {
		for _, e := range everything {
			if e.Run != nil {
				run(e)
			}
		}
		return
	}
	e, _ := bench.Find(cfg.exp)
	if e.Artifact == nil {
		run(e)
		return
	}
	rep, err := e.Artifact.Run(cfg.Options)
	if err != nil {
		fail(1, "%s: %v", e.ID, err)
	}
	if cfg.jsonOut {
		err = bench.WriteJSON(rep, os.Stdout)
	} else {
		err = rep.WriteTable(os.Stdout)
	}
	if err != nil {
		fail(1, "%s: %v", e.ID, err)
	}
}
