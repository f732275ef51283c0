package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// The slo experiment: live telemetry over a fleet under an eviction
// storm. Each runtime gets one storm cell deliberately harsher than
// the fleet experiment's — three fifths of the nodes go down at once
// under 0.9x load, so admission control must reject — with a telemetry
// probe scraping the control plane at a fixed virtual interval, an SLO
// engine evaluating multi-window burn-rate rules at every scrape, and
// a flight recorder dumping postmortem bundles when a page fires. A
// machine replay of the storm cell's crashed node then exercises the
// watchdog-trip dump path on real spans and audit records. The report
// records the alert timeline, the detection latency (virtual time from
// storm onset to the first page), and the burn-rate curve; everything
// is byte-identical for any -parallel value because every cell is an
// isolated simulation.

// SLOSeed tags the committed BENCH_slo report and roots the per-cell
// seeds.
const SLOSeed = 0x510b4a1

// sloFleet is the committed slo experiment's shape: 20 nodes x 4 slots,
// with a queue limit tighter than the fleet experiment's so overload
// turns into rejections quickly.
var sloFleet = FleetShape{Seed: SLOSeed, Nodes: 20, SlotsPerNode: 4, QueueLimit: 8, MeanReqs: 8}

const (
	// sloArrivalsPerCell sizes the horizon per scale unit.
	sloArrivalsPerCell = 4000
	// sloLoad is the offered load as a fraction of nominal capacity:
	// high enough that losing three fifths of the nodes to the storm is
	// a hard overload, low enough that the healthy fleet rarely rejects.
	sloLoad = 0.9
	// sloTicks is the default scrape count per cell (the scrape
	// interval is horizon/sloTicks unless overridden).
	sloTicks = 120
	// sloReplayMaxReqs bounds the machine replay's request volume.
	sloReplayMaxReqs = 256
	// sloBundleRadius is how many trailing scrape windows a postmortem
	// bundle captures.
	sloBundleRadius = 12
	// sloWindowStride decimates the per-window SLI table kept in the
	// report (the full-resolution series live in the -slo-out export).
	sloWindowStride = 4
)

// SLOWindow is one (decimated) scrape window of the report's SLI
// table.
type SLOWindow struct {
	AtNs        int64   `json:"at_ns"`
	RejectRatio float64 `json:"reject_ratio"`
	P99Ms       float64 `json:"p99_ms"`
	Running     int     `json:"running"`
	Queued      int     `json:"queued"`
	DownNodes   int     `json:"down_nodes"`
}

// SLOBundleDigest summarizes one postmortem bundle in the report; the
// full bundles are written separately (ckibench -bundle-out).
type SLOBundleDigest struct {
	Reason string `json:"reason"`
	AtNs   int64  `json:"at_ns"`
	Series int    `json:"series"`
	Spans  int    `json:"spans"`
	Events int    `json:"events"`
	FNV    uint64 `json:"fnv64a"`
}

// SLONamedBundle pairs a full postmortem bundle with its runtime (for
// the -bundle-out writer; not part of the report JSON).
type SLONamedBundle struct {
	Runtime string
	Bundle  *telemetry.Bundle
}

// SLORow is one runtime's storm cell plus its machine replay.
type SLORow struct {
	Runtime          string  `json:"runtime"`
	OfferedPerSec    float64 `json:"offered_per_sec"`
	HorizonNs        int64   `json:"horizon_ns"`
	ScrapeIntervalNs int64   `json:"scrape_interval_ns"`
	Ticks            int     `json:"ticks"`
	StormStartNs     int64   `json:"storm_start_ns"`
	StormEndNs       int64   `json:"storm_end_ns"`

	Arrived      int `json:"arrived"`
	Completed    int `json:"completed"`
	Rejected     int `json:"rejected"`
	Evicted      int `json:"evicted"`
	WarmRestores int `json:"warm_restores"`
	ColdRedos    int `json:"cold_redos"`

	// P99ThresholdNs is the latency SLO's per-runtime ceiling (a
	// multiple of the calibrated container lifetime).
	P99ThresholdNs float64 `json:"p99_threshold_ns"`
	// Alerts is the cell's full alert timeline in fire order.
	Alerts []telemetry.Alert `json:"alerts"`
	// DetectionNs is virtual time from storm onset to the first page
	// (0 when no page fired — Invariants requires > 0).
	DetectionNs int64 `json:"detection_ns"`
	// BurnCurve is the reject-rate SLO's per-tick burn rates.
	BurnCurve []telemetry.BurnPoint `json:"burn_curve"`
	// Windows is the decimated per-window SLI table.
	Windows []SLOWindow `json:"windows"`

	// The machine replay of the storm cell's crashed node.
	ReplayNode    int               `json:"replay_node"`
	ReplayCrashes int               `json:"replay_crashes"`
	ReplayWarm    int               `json:"replay_warm"`
	ReplayCold    int               `json:"replay_cold"`
	ReplayMTTRNs  int64             `json:"replay_mttr_ns"`
	NodeAlerts    []telemetry.Alert `json:"node_alerts"`
	Bundles       []SLOBundleDigest `json:"bundles"`
}

// SLOReport is the whole experiment (the committed BENCH_slo
// artifact).
type SLOReport struct {
	FleetShape
	Sched       string             `json:"sched"`
	Calibration []FleetCalibration `json:"calibration"`
	Rows        []SLORow           `json:"rows"`

	// FullBundles and Timelines carry the cells' postmortem bundles
	// and time-series stores for the -bundle-out / -slo-out writers;
	// they are not part of the report JSON.
	FullBundles []SLONamedBundle   `json:"-"`
	Timelines   []*telemetry.Store `json:"-"`
}

// sloSpecs builds the cell's SLO specs for one runtime. The reject
// ratio is the paging SLO: with ~33 arrivals per window a single
// rejection already violates the 1% threshold, so the multi-window
// rule (short 3 AND long 24 both burning >= 10x budget) is what keeps
// steady-state singletons from paging while a storm pages within a few
// windows.
func sloSpecs(name string, p99CeilNs float64) []telemetry.SLOSpec {
	sel := map[string]string{"runtime": name}
	return []telemetry.SLOSpec{
		{
			Name: "reject-rate", Metric: "fleet_rejected_total",
			TotalMetric: "fleet_arrivals_total", Labels: sel,
			Threshold: 0.01, Budget: 0.02,
			Rules: []telemetry.BurnRule{{Severity: "page", Long: 24, Short: 3, Burn: 10}},
			Curve: true,
		},
		{
			Name: "latency-p99", Metric: "fleet_latency_ns",
			Quantile: 0.99, Labels: sel,
			Threshold: p99CeilNs, Budget: 0.05,
			Rules: []telemetry.BurnRule{{Severity: "ticket", Long: 12, Short: 3, Burn: 4}},
		},
		{
			Name: "warm-restore-ratio", Metric: "fleet_warm_restores_total",
			TotalMetric: "fleet_evictions_total", Labels: sel,
			Threshold: 0.25, Invert: true, Budget: 0.02,
			Rules: []telemetry.BurnRule{{Severity: "ticket", Long: 24, Short: 3, Burn: 1}},
		},
	}
}

// sloNodeSpecs are the machine replay's node-level SLOs over the
// supervisor gauges the round hook maintains.
func sloNodeSpecs(mttrCeilNs float64) []telemetry.SLOSpec {
	return []telemetry.SLOSpec{
		{
			Name: "crash-ceiling", Metric: "node_crashes",
			Threshold: 1, Budget: 0.5,
			Rules: []telemetry.BurnRule{{Severity: "page", Long: 1, Short: 1, Burn: 2}},
		},
		{
			Name: "mttr-ceiling", Metric: "node_mttr_ns",
			Threshold: mttrCeilNs, Budget: 0.5,
			Rules: []telemetry.BurnRule{{Severity: "ticket", Long: 1, Short: 1, Burn: 2}},
		},
	}
}

func bundleDigest(b *telemetry.Bundle) (SLOBundleDigest, error) {
	data, err := b.JSON()
	if err != nil {
		return SLOBundleDigest{}, err
	}
	return SLOBundleDigest{
		Reason: b.Reason, AtNs: b.AtNs,
		Series: len(b.Series), Spans: len(b.Spans), Events: len(b.Events),
		FNV: telemetry.FNV64a(data),
	}, nil
}

// sloCell runs one runtime's storm cell plus its machine replay. The
// storm takes three fifths of the nodes down at horizon/3 for a quarter
// of the horizon.
func sloCell(o Options, shape FleetShape, ri int, name string, costs fleet.RuntimeCosts,
	kind backends.Kind, bopts backends.Options) (SLORow, []SLONamedBundle, *telemetry.Store, error) {
	var row SLORow
	var bundles []SLONamedBundle

	rate := sloLoad * shape.capacity(costs)
	horizon := shape.horizon(sloArrivalsPerCell, rate)
	interval := o.ScrapeInterval
	if interval <= 0 {
		interval = horizon / sloTicks
	}
	seed := faults.Child(shape.Seed, ri)
	cfg := shape.cell(costs, seed, des.PoissonArrivals(seed, rate, horizon), horizon, fleet.Spread{})
	shape.storm(&cfg, shape.Nodes*3/5, horizon/3, horizon/4)
	cfg.ScrapeEvery = interval

	p99CeilNs := 8 * float64(shape.lifetime(costs)) / float64(clock.Nanosecond)
	eng, err := telemetry.NewEngine(sloSpecs(name, p99CeilNs))
	if err != nil {
		return row, nil, nil, err
	}
	store := telemetry.NewStore(interval, sloTicks+sloBundleRadius)
	cellFR := telemetry.NewFlightRecorder(0, 0)
	cellFR.Runtime = name
	var pageBundle *telemetry.Bundle
	eng.OnAlert = func(a *telemetry.Alert) {
		// The fleet-level dump trigger: the first page captures the
		// time-series context around the alert (no machine spans exist
		// at the control-plane level).
		if a.Severity == "page" && pageBundle == nil {
			at := clock.Time(a.FiredAtNs) * clock.Nanosecond
			pageBundle = cellFR.Dump("alert", at, a, store, sloBundleRadius)
		}
	}
	reg := metrics.NewRegistry()
	cfg.Observe = telemetry.NewFleetProbe(reg, store, eng, metrics.L("runtime", name))

	res, err := fleet.Run(cfg)
	if err != nil {
		return row, nil, nil, fmt.Errorf("slo: %s: %w", name, err)
	}

	row = SLORow{
		Runtime: name, OfferedPerSec: rate,
		HorizonNs:        int64(horizon / clock.Nanosecond),
		ScrapeIntervalNs: int64(interval / clock.Nanosecond),
		Ticks:            store.Ticks(),
		StormStartNs:     int64(cfg.EvictAt / clock.Nanosecond),
		StormEndNs:       int64((cfg.EvictAt + cfg.DownFor) / clock.Nanosecond),
		Arrived:          res.Arrived, Completed: res.Completed, Rejected: res.Rejected,
		Evicted: res.Evicted, WarmRestores: res.WarmRestores, ColdRedos: res.ColdRedos,
		P99ThresholdNs: p99CeilNs,
	}
	for _, a := range eng.Alerts() {
		row.Alerts = append(row.Alerts, *a)
		if a.SLO == "reject-rate" && a.Severity == "page" && row.DetectionNs == 0 {
			row.DetectionNs = a.FiredAtNs - row.StormStartNs
		}
	}
	row.BurnCurve = eng.Curves()["reject-rate"]
	row.Windows = sloWindows(store, name)
	if pageBundle != nil {
		d, err := bundleDigest(pageBundle)
		if err != nil {
			return row, nil, nil, err
		}
		row.Bundles = append(row.Bundles, d)
		bundles = append(bundles, SLONamedBundle{Runtime: name, Bundle: pageBundle})
	}

	// Machine replay: re-execute the storm's crashed node (the busiest
	// one, falling back to the busiest overall) with the flight
	// recorder polled every supervised round, so the watchdog-trip and
	// node-alert dump paths run against real spans and audit records.
	stat := res.Nodes[0]
	for _, n := range res.Nodes {
		if n.Crashed {
			stat = n
			break
		}
	}
	reqs := stat.Requests
	if reqs > sloReplayMaxReqs {
		reqs = sloReplayMaxReqs
	}
	w := fleet.NodeWork{Node: stat.Node, Containers: shape.SlotsPerNode, Requests: reqs, Crashes: 2}

	ar := audit.NewRecorder(nil)
	fr := telemetry.NewFlightRecorder(0, 0)
	fr.Node, fr.Runtime = stat.Node, name
	// The node store's interval is nominal (rounds scrape at whatever
	// virtual time they end); it is sized so the bundle lookback
	// (radius x interval) spans a restart backoff, which advances the
	// clock by milliseconds during a crash round.
	nodeStore := telemetry.NewStore(500*clock.Microsecond, 0)
	nodeEng, err := telemetry.NewEngine(sloNodeSpecs(2e6))
	if err != nil {
		return row, nil, nil, err
	}
	var watchdogBundle, nodeAlertBundle *telemetry.Bundle
	nodeEng.OnAlert = func(a *telemetry.Alert) {
		if nodeAlertBundle == nil {
			at := clock.Time(a.FiredAtNs) * clock.Nanosecond
			nodeAlertBundle = fr.Dump("alert", at, a, nodeStore, sloBundleRadius)
		}
	}
	prevCrashes := 0
	var crashG, mttrG *metrics.Gauge
	nodeLb := metrics.NodeLabel(stat.Node)
	bopts.Audit = ar
	art, err := fleet.ReplayNode(w, kind, bopts, func(r fleet.ReplayRound) {
		fr.Poll(r.Recorder, ar)
		if crashG == nil {
			crashG = r.Metrics.Gauge("node_crashes", "supervisor-recorded kernel panics", nodeLb)
			mttrG = r.Metrics.Gauge("node_mttr_ns", "mean time to recovery (ns)", nodeLb)
		}
		crashes, restarts := 0, 0
		var downtime clock.Time
		for _, h := range r.Sup.Health {
			crashes += h.Crashes
			restarts += h.Restarts
			downtime += h.TotalDowntime
		}
		crashG.Set(float64(crashes))
		if restarts > 0 {
			mttrG.Set(float64(downtime/clock.Time(restarts)) / float64(clock.Nanosecond))
		}
		nodeStore.Scrape(r.Metrics, r.Clk.Now())
		nodeEng.Step(nodeStore, r.Clk.Now())
		if crashes > prevCrashes {
			if watchdogBundle == nil {
				// The supervisor just declared a container dead:
				// dump the postmortem before the next round runs.
				watchdogBundle = fr.Dump("watchdog", r.Clk.Now(), nil, nodeStore, sloBundleRadius)
			}
			prevCrashes = crashes
		}
	})
	if err != nil {
		return row, nil, nil, fmt.Errorf("slo: replay %s node %d: %w", name, stat.Node, err)
	}
	row.ReplayNode = art.Node
	row.ReplayCrashes = art.Crashes
	row.ReplayWarm = art.WarmRestores
	row.ReplayCold = art.ColdRestarts
	if restarts := art.WarmRestores + art.ColdRestarts; restarts > 0 {
		// Recompute MTTR from the digest-level restore counts is not
		// possible; read it from the last gauge value instead.
		if s := nodeStore.Lookup("node_mttr_ns", nil); s != nil {
			if n := len(s.Windows); n > 0 {
				row.ReplayMTTRNs = int64(s.Windows[n-1].Value)
			}
		}
	}
	for _, a := range nodeEng.Alerts() {
		row.NodeAlerts = append(row.NodeAlerts, *a)
	}
	for _, b := range []*telemetry.Bundle{watchdogBundle, nodeAlertBundle} {
		if b == nil {
			continue
		}
		d, err := bundleDigest(b)
		if err != nil {
			return row, nil, nil, err
		}
		row.Bundles = append(row.Bundles, d)
		bundles = append(bundles, SLONamedBundle{Runtime: name, Bundle: b})
	}
	return row, bundles, store, nil
}

// sloWindows folds the cell's store into the decimated SLI table.
func sloWindows(st *telemetry.Store, name string) []SLOWindow {
	sel := map[string]string{"runtime": name}
	rej := st.Lookup("fleet_rejected_total", sel)
	arr := st.Lookup("fleet_arrivals_total", sel)
	lat := st.Lookup("fleet_latency_ns", sel)
	run := st.Lookup("fleet_running", sel)
	que := st.Lookup("fleet_queued", sel)
	down := st.Lookup("fleet_down_nodes", sel)
	var out []SLOWindow
	for t := 0; t < st.Ticks(); t += sloWindowStride {
		var w SLOWindow
		if a := arr.At(t); a != nil {
			w.AtNs = a.AtNs
			if r := rej.At(t); r != nil && a.Delta > 0 {
				w.RejectRatio = r.Delta / a.Delta
			}
		}
		if l := lat.At(t); l != nil {
			w.P99Ms = l.P99Ns / 1e6
		}
		if g := run.At(t); g != nil {
			w.Running = int(g.Value)
		}
		if g := que.At(t); g != nil {
			w.Queued = int(g.Value)
		}
		if g := down.At(t); g != nil {
			w.DownNodes = int(g.Value)
		}
		out = append(out, w)
	}
	return out
}

// RunSLO executes the slo experiment and writes the per-runtime
// timelines to o.SLOOut and the postmortem bundles to o.BundleOut.
// Deterministic: the same opts produce the same report, byte for byte,
// for any Parallel.
func RunSLO(o Options) (*SLOReport, error) {
	shape := sloFleet.at(o.Scale, o.Nodes)
	specs := runtimeSpecs()
	costs, cal, err := fleetCalibrateAll("slo", o.Parallel)
	if err != nil {
		return nil, err
	}

	rep := &SLOReport{FleetShape: shape, Sched: fleet.Spread{}.Name(), Calibration: cal}

	rows := make([]SLORow, len(specs))
	cellBundles := make([][]SLONamedBundle, len(specs))
	stores := make([]*telemetry.Store, len(specs))
	err = RunIndexed(o.Parallel, len(specs), func(ri int) error {
		row, bundles, store, err := sloCell(o, shape, ri, cal[ri].Runtime, costs[ri], specs[ri].kind, specs[ri].opts)
		if err != nil {
			return err
		}
		rows[ri], cellBundles[ri], stores[ri] = row, bundles, store
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Timelines = stores
	for _, bs := range cellBundles {
		rep.FullBundles = append(rep.FullBundles, bs...)
	}
	if o.SLOOut != "" {
		if err := WriteSLOTimelines(rep, o.SLOOut); err != nil {
			return nil, err
		}
	}
	if o.BundleOut != "" {
		if err := WriteSLOBundles(rep, o.BundleOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// WriteSLOJSON writes the report in the exact encoding of the
// committed BENCH_slo artifact.
func WriteSLOJSON(rep *SLOReport, w io.Writer) error { return WriteJSON(rep, w) }

// WriteSLOTimelines writes each cell's full-resolution time-series
// store as a CKITS1 binary under dir (ckibench -slo-out).
func WriteSLOTimelines(rep *SLOReport, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, st := range rep.Timelines {
		if st == nil {
			continue
		}
		name := filepath.Join(dir, fmt.Sprintf("slo_timeline_%s.ckits", rep.Rows[i].Runtime))
		if err := os.WriteFile(name, st.EncodeBinary(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// WriteSLOBundles writes every postmortem bundle as JSON under dir
// (ckibench -bundle-out). Bundle file names are deterministic:
// slo_bundle_<runtime>_<index>_<reason>.json in report order.
func WriteSLOBundles(rep *SLOReport, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	seq := map[string]int{}
	for _, nb := range rep.FullBundles {
		data, err := nb.Bundle.JSON()
		if err != nil {
			return err
		}
		i := seq[nb.Runtime]
		seq[nb.Runtime] = i + 1
		name := filepath.Join(dir, fmt.Sprintf("slo_bundle_%s_%d_%s.json", nb.Runtime, i, nb.Bundle.Reason))
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders the alert timelines and detection latencies.
func (rep *SLOReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("SLO burn-rate alerting: %d nodes x %d slots, eviction storm at t=horizon/3",
			rep.Nodes, rep.SlotsPerNode),
		"runtime", "offered/s", "ticks", "rejected", "alerts", "detect", "page resolved", "bundles")
	for _, r := range rep.Rows {
		resolved := "no"
		for _, a := range r.Alerts {
			if a.Severity == "page" && a.ResolvedAtNs > 0 {
				resolved = (clock.Time(a.ResolvedAtNs) * clock.Nanosecond).String()
				break
			}
		}
		t.Row(r.Runtime,
			fmt.Sprintf("%.0f", r.OfferedPerSec),
			itoa(r.Ticks), itoa(r.Rejected),
			itoa(len(r.Alerts)+len(r.NodeAlerts)),
			(clock.Time(r.DetectionNs) * clock.Nanosecond).String(),
			resolved, itoa(len(r.Bundles)))
	}
	t.Note("detect = virtual time from storm onset (3/5 of nodes down) to the first page;")
	t.Note("the page fires when both the short and long burn-rate windows exceed 10x budget")
	t.Note("and resolves when the short window recovers after the nodes return")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	at := NewTable("Alert timeline (virtual time)",
		"runtime", "slo", "severity", "fired", "resolved", "burn s/l")
	for _, r := range rep.Rows {
		for _, a := range r.Alerts {
			res := "-"
			if a.ResolvedAtNs > 0 {
				res = (clock.Time(a.ResolvedAtNs) * clock.Nanosecond).String()
			}
			at.Row(r.Runtime, a.SLO, a.Severity,
				(clock.Time(a.FiredAtNs) * clock.Nanosecond).String(), res,
				fmt.Sprintf("%.1f/%.1f", a.ShortBurn, a.LongBurn))
		}
		for _, a := range r.NodeAlerts {
			at.Row(r.Runtime, a.SLO+" (node)", a.Severity,
				(clock.Time(a.FiredAtNs) * clock.Nanosecond).String(), "-",
				fmt.Sprintf("%.1f/%.1f", a.ShortBurn, a.LongBurn))
		}
	}
	_, err := at.WriteTo(w)
	return err
}

// Invariants checks every runtime's storm cell: the storm rejected and
// evicted, the reject-rate page fired inside the storm window with a
// positive detection latency and resolved after the nodes returned, the
// burn curve has a point per tick, and the machine replay crashed at
// least twice, raised node alerts, and dumped both an alert bundle and
// a watchdog bundle carrying real spans and audit events. Only the
// first bundle, the fleet-level page, may lack spans and events: the
// storm cell's flight recorder watches no machine.
func (rep *SLOReport) Invariants() error {
	if len(rep.Rows) != len(runtimeSpecs()) {
		return fmt.Errorf("slo: %d rows, want %d", len(rep.Rows), len(runtimeSpecs()))
	}
	for _, r := range rep.Rows {
		if r.DetectionNs <= 0 || r.Rejected == 0 || r.Evicted == 0 {
			return fmt.Errorf("slo: %s: detection %dns, %d rejected, %d evicted; want all > 0",
				r.Runtime, r.DetectionNs, r.Rejected, r.Evicted)
		}
		pages := 0
		for _, a := range r.Alerts {
			if a.SLO != "reject-rate" || a.Severity != "page" {
				continue
			}
			pages++
			if a.FiredAtNs < r.StormStartNs || a.FiredAtNs > r.StormEndNs || a.ResolvedAtNs <= a.FiredAtNs {
				return fmt.Errorf("slo: %s: page fired at %dns, resolved at %dns; storm window [%d, %d]",
					r.Runtime, a.FiredAtNs, a.ResolvedAtNs, r.StormStartNs, r.StormEndNs)
			}
		}
		if pages == 0 {
			return fmt.Errorf("slo: %s: no reject-rate page fired", r.Runtime)
		}
		if len(r.BurnCurve) != r.Ticks {
			return fmt.Errorf("slo: %s: burn curve has %d points, want %d", r.Runtime, len(r.BurnCurve), r.Ticks)
		}
		if r.ReplayCrashes < 2 || len(r.NodeAlerts) == 0 {
			return fmt.Errorf("slo: %s: replay saw %d crashes and %d node alerts; want >= 2 and > 0",
				r.Runtime, r.ReplayCrashes, len(r.NodeAlerts))
		}
		reasons := map[string]int{}
		for i, d := range r.Bundles {
			reasons[d.Reason]++
			if d.Series == 0 || d.FNV == 0 || (i > 0 && (d.Spans == 0 || d.Events == 0)) {
				return fmt.Errorf("slo: %s: empty %s bundle %+v", r.Runtime, d.Reason, d)
			}
		}
		if len(r.Bundles) != 3 || r.Bundles[0].Reason != "alert" || reasons["watchdog"] != 1 {
			return fmt.Errorf("slo: %s: bundle reasons %v, want the fleet page, then the replay's watchdog and alert",
				r.Runtime, reasons)
		}
	}
	return nil
}
