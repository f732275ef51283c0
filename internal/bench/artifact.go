package bench

import (
	"encoding/json"
	"io"
	"slices"

	"repro/internal/clock"
)

// The artifact contract. Every experiment that emits a JSON report
// declares it in its Extensions() entry: the ckibench flags it accepts
// (side outputs included), its committed file, how to run it, and — on
// the report it returns — the claims that file stands for. ckibench
// derives its dispatch, its "flag requires -exp" rules and its help from
// these entries, and TestArtifactContracts checks every one of them.

// Options carries ckibench's experiment flags. Zero values mean the
// committed-artifact defaults; an experiment reads only the fields of
// the flags its Artifact declares.
type Options struct {
	Scale    int
	Parallel int

	Seeds    int    // -seeds (chaos sweep width)
	Interval int    // -checkpoint-interval
	Nodes    int    // -nodes: the simulated fleet size
	Sched    string // -sched: one fleet scheduler ("" = all)
	// -arrival-rate: one open-loop fleet segment at this rate
	// (arrivals/sec) instead of the capacity curve.
	ArrivalRate float64
	// -trace-file: the fleet's arrivals follow the piecewise rate trace
	// in this file ("rate_per_sec duration_ms" lines).
	TraceFile string
	// -scrape-interval: fleet attaches a telemetry probe to every cell
	// (FleetReport.Timeline); slo overrides its per-cell interval.
	ScrapeInterval clock.Time
	// -churn-rate: serverless replaces its load-derived arrival rate
	// with this one (arrivals/sec).
	ChurnRate float64
	ForkMode  string // -fork-mode: one serverless mode ("" = all)

	// Side outputs: files or directories a run writes besides its report.
	TraceOut   string // -trace-out
	SpansOut   string // -spans-out
	MetricsOut string // -metrics-out
	AuditOut   string // -audit-out
	SnapOut    string // -snap-out
	SLOOut     string // -slo-out
	BundleOut  string // -bundle-out
}

// FleetOpts, SLOOpts, TailOpts and ServerlessOpts are other names of
// Options, kept because the benchmark module spells them.
type (
	FleetOpts      = Options
	SLOOpts        = Options
	TailOpts       = Options
	ServerlessOpts = Options
)

// Report is an artifact experiment's result. WriteJSON emits it in the
// committed encoding.
type Report interface {
	// WriteTable renders the report as ckibench's table output.
	WriteTable(w io.Writer) error
	// Invariants checks the claims the committed artifact stands for:
	// its shape at the committed configuration, the orderings the paper
	// argues, conservation sums and cross-references.
	Invariants() error
}

// Artifact declares an experiment's JSON report.
type Artifact struct {
	// Path is the committed report, relative to the repository root.
	Path string
	// Flags lists the ckibench flags the experiment accepts besides
	// -exp, -scale, -parallel and -json.
	Flags []string
	// HostTimed marks a report of host measurements: it differs from run
	// to run, so it has no byte contract, and Run checks its invariants.
	HostTimed bool
	// Validate, when set, rejects flag values only this experiment can
	// judge; ckibench reports its error as a usage error.
	Validate func(o Options) error
	// Run executes the experiment and writes the side outputs o names.
	Run func(o Options) (Report, error)
}

// report adapts an experiment's entry point to Artifact.Run.
func report[R Report](run func(Options) (R, error)) func(Options) (Report, error) {
	return func(o Options) (Report, error) {
		rep, err := run(o)
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
}

// Accepts reports whether flag (e.g. "-nodes") is one of the
// experiment's flags.
func (a *Artifact) Accepts(flag string) bool { return slices.Contains(a.Flags, flag) }

// WriteJSON writes a report in the exact encoding of the committed
// BENCH_*.json artifacts.
func WriteJSON(rep Report, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// artifact registers an artifact experiment. Its table mode runs the
// experiment at the committed defaults and renders the report; a
// host-timed artifact has no table mode, so running every experiment
// skips it.
func artifact(id, title string, a *Artifact) Experiment {
	e := Experiment{ID: id, Title: title, Artifact: a}
	if !a.HostTimed {
		e.Run = func(scale int, w io.Writer) error {
			rep, err := a.Run(Options{Scale: scale, Parallel: DefaultParallel()})
			if err != nil {
				return err
			}
			return rep.WriteTable(w)
		}
	}
	return e
}
