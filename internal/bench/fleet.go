package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// The fleet experiment: datacenter-scale serving. A calibration pass
// boots one real container per runtime and measures its machine
// truths — cold boot, per-request service, warm-restore cost — then an
// open-loop heavy-traffic grid drives a simulated fleet of nodes
// through a capacity curve (0.5x..1.3x of nominal capacity), a bursty
// diurnal trace, and an eviction storm, under both schedulers, with
// exact p50/p99/p999 arrival-to-completion tails. A replay stage then
// re-executes the storm cell's hottest nodes on real machines under
// the warm-restart supervisor, one node per grid cell, streaming
// per-node digests. Every cell is an isolated simulation, so the
// report is byte-identical for any -parallel value.

// FleetSeed tags the committed BENCH_fleet report and roots every
// derived per-cell seed.
const FleetSeed = 0xf1ee7

// FleetShape sizes the cells of a fleet-family experiment (fleet, slo,
// tail, serverless): the simulated fleet, its admission bound, the mean
// per-container request demand, and the seed and scale the cells derive
// from. One value heads the report (embedded, so its fields encode
// first) and configures every cell, so the two cannot disagree; its
// methods are the only place a cell's lifetime, capacity, horizon and
// eviction storm are computed.
type FleetShape struct {
	Seed         uint64 `json:"seed"`
	Scale        int    `json:"scale"`
	Nodes        int    `json:"nodes"`
	SlotsPerNode int    `json:"slots_per_node"`
	QueueLimit   int    `json:"queue_limit"`
	MeanReqs     int    `json:"mean_reqs"`
}

// at is the shape of one run: scale at least 1, and the fleet resized
// when nodes overrides it.
func (s FleetShape) at(scale, nodes int) FleetShape {
	s.Scale = max(scale, 1)
	if nodes != 0 {
		s.Nodes = nodes
	}
	return s
}

// lifetime is one container's nominal slot occupancy: a boot plus
// MeanReqs requests.
func (s FleetShape) lifetime(costs fleet.RuntimeCosts) clock.Time {
	return costs.Boot + clock.Time(s.MeanReqs)*costs.Service
}

// capacity is the arrival rate (arrivals/sec) at which the fleet is
// nominally saturated.
func (s FleetShape) capacity(costs fleet.RuntimeCosts) float64 {
	return float64(s.Nodes*s.SlotsPerNode) / s.lifetime(costs).Seconds()
}

// horizon sizes a cell so it carries perScale arrivals per scale unit
// at the given rate.
func (s FleetShape) horizon(perScale int, rate float64) clock.Time {
	return clock.Time(float64(perScale*s.Scale) / rate * float64(clock.Second))
}

// cell assembles one cell's control-plane config.
func (s FleetShape) cell(costs fleet.RuntimeCosts, seed uint64, arrivals []des.Arrival,
	horizon clock.Time, sched fleet.Scheduler) fleet.Config {
	return fleet.Config{
		Nodes: s.Nodes, SlotsPerNode: s.SlotsPerNode, QueueLimit: s.QueueLimit,
		Costs: costs, MeanReqs: s.MeanReqs,
		Arrivals: arrivals, Horizon: horizon,
		Seed: seed, Sched: sched,
	}
}

// storm turns cfg into an eviction-storm cell: evict nodes (at least
// one) go down at virtual time at for down, and containers snapshot
// every quarter lifetime so the evicted ones can restore warm.
func (s FleetShape) storm(cfg *fleet.Config, evict int, at, down clock.Time) {
	cfg.SnapshotAge = s.lifetime(cfg.Costs) / 4
	cfg.EvictAt = at
	cfg.EvictNodes = max(evict, 1)
	cfg.DownFor = down
}

// fleetGrid is the committed fleet experiment's shape: 50 nodes x 4
// slots, a per-node admission bound of 16, and a mean demand of 8
// requests per container.
var fleetGrid = FleetShape{Seed: FleetSeed, Nodes: 50, SlotsPerNode: 4, QueueLimit: 16, MeanReqs: 8}

const (
	// fleetCalibReqs sizes the calibration service-time window.
	fleetCalibReqs = 16
	// fleetReplayNodes is how many of the storm cell's nodes the replay
	// stage re-executes on real machines.
	fleetReplayNodes = 4
	// fleetReplayMaxReqs bounds one replayed node's request volume so a
	// small -nodes fleet cannot make a replay cell arbitrarily slow;
	// the bound is part of the experiment definition, so artifacts stay
	// deterministic.
	fleetReplayMaxReqs = 512
	// fleetArrivalsPerCell is the per-scale arrival volume every grid
	// cell targets (the horizon adjusts to the offered rate). It must
	// comfortably exceed the fleet's total buffering — nodes x (slots +
	// queue limit) — or an overload segment drains into queues at the
	// horizon instead of rejecting.
	fleetArrivalsPerCell = 6000
)

// fleetLoadPoints are the capacity-curve load multipliers; the two
// labels after them are the diurnal and eviction-storm segments.
var fleetLoadPoints = []float64{0.5, 0.7, 0.85, 0.95, 1.1, 1.3}

// FleetCalibration is one runtime's measured cost model.
type FleetCalibration struct {
	Runtime       string  `json:"runtime"`
	BootNs        float64 `json:"boot_ns"`
	ServiceNs     float64 `json:"service_ns"`
	WarmRestoreNs float64 `json:"warm_restore_ns"`
}

// FleetTails is one cell's volume, goodput and arrival-to-completion
// latency tails.
type FleetTails struct {
	Arrived       int     `json:"arrived"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	MaxQueue      int     `json:"max_queue"`
}

// fleetTails tabulates a cell's result over its horizon.
func fleetTails(res *fleet.Result, horizon clock.Time) FleetTails {
	ms := func(t clock.Time) float64 { return float64(t) / float64(clock.Millisecond) }
	return FleetTails{
		Arrived: res.Arrived, Completed: res.Completed, Rejected: res.Rejected,
		GoodputPerSec: res.Goodput(horizon),
		MeanMs:        ms(res.MeanLatency()),
		P50Ms:         ms(res.Quantile(0.5)),
		P99Ms:         ms(res.Quantile(0.99)),
		P999Ms:        ms(res.Quantile(0.999)),
		MaxQueue:      res.MaxQueue,
	}
}

// FleetRow is one (runtime, scheduler, load segment) measurement.
type FleetRow struct {
	Runtime       string  `json:"runtime"`
	Sched         string  `json:"sched"`
	Load          string  `json:"load"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	FleetTails
	Evicted      int `json:"evicted,omitempty"`
	WarmRestores int `json:"warm_restores,omitempty"`
	ColdRedos    int `json:"cold_redos,omitempty"`
}

// FleetReport is the whole experiment (the committed BENCH_fleet
// artifact).
type FleetReport struct {
	FleetShape
	Schedulers  []string             `json:"schedulers"`
	Calibration []FleetCalibration   `json:"calibration"`
	Rows        []FleetRow           `json:"rows"`
	Replay      []fleet.NodeArtifact `json:"replay"`

	// Timeline is the merged per-cell time-series store when
	// FleetOpts.ScrapeInterval was set (ckibench -slo-out); it is not
	// part of the report JSON, so the committed artifact bytes do not
	// depend on whether scraping was on.
	Timeline *telemetry.Store `json:"-"`
}

// FleetOpts parameterizes the experiment; zero values mean the
// committed-artifact defaults.
type FleetOpts struct {
	Scale    int
	Parallel int
	// Nodes overrides the fleet size (default fleetGrid.Nodes).
	Nodes int
	// Sched restricts the run to one scheduler ("" = all).
	Sched string
	// ArrivalRate, when > 0, replaces the capacity curve with a single
	// open-loop segment at that absolute rate (arrivals/sec).
	ArrivalRate float64
	// TraceFile, when set, replaces the capacity curve with the
	// piecewise rate trace parsed from the file ("rate_per_sec
	// duration_ms" lines).
	TraceFile string
	// ScrapeInterval, when > 0, attaches a telemetry probe to every
	// grid cell (series labeled runtime/sched/load) and exposes the
	// merged timeline via FleetReport.Timeline. Pure observation: the
	// report rows are byte-identical with or without it.
	ScrapeInterval clock.Time
}

// fleetCalibrate measures one runtime's cost model on a real machine:
// the boot is the virtual time New charges, the service time averages
// fleetCalibReqs requests after warmup, and the warm-restore cost is a
// checkpoint/restore round trip onto a fresh machine.
func fleetCalibrate(kind backends.Kind, opts backends.Options) (fleet.RuntimeCosts, string, error) {
	var costs fleet.RuntimeCosts
	c, err := backends.New(kind, opts)
	if err != nil {
		return costs, "", err
	}
	costs.Boot = c.Clk.Now()
	for i := 0; i < 4; i++ {
		if err := workloads.PageRequest(c.K); err != nil {
			return costs, "", err
		}
	}
	t0 := c.Clk.Now()
	for i := 0; i < fleetCalibReqs; i++ {
		if err := workloads.PageRequest(c.K); err != nil {
			return costs, "", err
		}
	}
	costs.Service = (c.Clk.Now() - t0) / fleetCalibReqs

	snap, err := backends.Checkpoint(c)
	if err != nil {
		return costs, "", fmt.Errorf("%s: checkpoint: %w", c.Name, err)
	}
	m2, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
	if err != nil {
		return costs, "", err
	}
	if _, err := backends.RestoreBytes(m2, snapshot.Encode(snap)); err != nil {
		return costs, "", fmt.Errorf("%s: restore: %w", c.Name, err)
	}
	costs.WarmRestore = m2.Clk.Now()
	return costs, c.Name, nil
}

// fleetCalibrateAll calibrates every fleet runtime, one cell each fanned
// out across host cores, and tabulates the cost models for the report.
// exp prefixes errors with the calling experiment.
func fleetCalibrateAll(exp string, parallel int) ([]fleet.RuntimeCosts, []FleetCalibration, error) {
	specs := runtimeSpecs()
	costs := make([]fleet.RuntimeCosts, len(specs))
	table := make([]FleetCalibration, len(specs))
	err := RunIndexed(parallel, len(specs), func(i int) error {
		c, name, err := fleetCalibrate(specs[i].kind, specs[i].opts)
		if err != nil {
			return fmt.Errorf("%s: calibrate %v: %w", exp, specs[i].kind, err)
		}
		costs[i] = c
		table[i] = FleetCalibration{
			Runtime:       name,
			BootNs:        float64(c.Boot) / float64(clock.Nanosecond),
			ServiceNs:     float64(c.Service) / float64(clock.Nanosecond),
			WarmRestoreNs: float64(c.WarmRestore) / float64(clock.Nanosecond),
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return costs, table, nil
}

// fleetSegment is one load segment of the grid: a label plus the
// arrival stream builder (deterministic per seed).
type fleetSegment struct {
	label string
	// offered is the nominal offered rate (arrivals/sec), 0 when the
	// segment defines its own shape (diurnal, trace).
	offered float64
	build   func(seed uint64) ([]des.Arrival, clock.Time)
	// storm marks the eviction-storm segment.
	storm bool
}

// fleetSegments builds the load axis for one runtime's capacity
// (arrivals/sec at which the fleet is nominally saturated). Every
// segment carries ~fleetArrivalsPerCell arrivals per scale unit.
func fleetSegments(o FleetOpts, shape FleetShape, capacity float64) ([]fleetSegment, error) {
	if o.TraceFile != "" {
		f, err := os.Open(o.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		segs, err := des.ParseRateTrace(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.TraceFile, err)
		}
		var horizon clock.Time
		var weighted float64
		for _, s := range segs {
			horizon += s.Dur
			weighted += s.RatePerSec * s.Dur.Seconds()
		}
		offered := 0.0
		if horizon > 0 {
			offered = weighted / horizon.Seconds()
		}
		return []fleetSegment{{
			label: "trace", offered: offered,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PiecewiseArrivals(seed, segs), horizon
			},
		}}, nil
	}
	if o.ArrivalRate > 0 {
		rate := o.ArrivalRate
		h := shape.horizon(fleetArrivalsPerCell, rate)
		return []fleetSegment{{
			label: "custom", offered: rate,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PoissonArrivals(seed, rate, h), h
			},
		}}, nil
	}
	var out []fleetSegment
	for _, mult := range fleetLoadPoints {
		rate := mult * capacity
		h := shape.horizon(fleetArrivalsPerCell, rate)
		out = append(out, fleetSegment{
			label: fmt.Sprintf("%.2fx", mult), offered: rate,
			build: func(seed uint64) ([]des.Arrival, clock.Time) {
				return des.PoissonArrivals(seed, rate, h), h
			},
		})
	}
	// Bursty diurnal trace: trough at 0.4x, peak near 1.4x capacity.
	dh := shape.horizon(fleetArrivalsPerCell, 0.9*capacity)
	base := 0.4 * capacity
	out = append(out, fleetSegment{
		label: "diurnal", offered: 0.9 * capacity,
		build: func(seed uint64) ([]des.Arrival, clock.Time) {
			d := des.DiurnalTrace{
				Seed: seed, BaseRate: base, PeakFactor: 3.5, Periods: 2,
				BurstProb: 0.005, BurstSize: 6,
				BurstSpread: dh / 256, Horizon: dh,
			}
			return d.Arrivals(), dh
		},
	})
	// Eviction storm at steady 0.8x load.
	sh := shape.horizon(fleetArrivalsPerCell, 0.8*capacity)
	srate := 0.8 * capacity
	out = append(out, fleetSegment{
		label: "storm", offered: srate, storm: true,
		build: func(seed uint64) ([]des.Arrival, clock.Time) {
			return des.PoissonArrivals(seed, srate, sh), sh
		},
	})
	return out, nil
}

// fleetSchedulers resolves the scheduler axis.
func fleetSchedulers(name string) ([]fleet.Scheduler, error) {
	if name == "" {
		var out []fleet.Scheduler
		for _, n := range fleet.SchedulerNames() {
			s, err := fleet.SchedulerByName(n)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	s, err := fleet.SchedulerByName(name)
	if err != nil {
		return nil, err
	}
	return []fleet.Scheduler{s}, nil
}

// fleetCellConfig assembles the control-plane config for one grid
// cell; the storm segment evicts a tenth of the nodes halfway through.
// The arrival and demand seeds derive from (runtime, segment) only —
// both schedulers see the identical offered stream, so their rows are
// directly comparable.
func fleetCellConfig(shape FleetShape, costs fleet.RuntimeCosts,
	ri, si int, seg fleetSegment, sched fleet.Scheduler) fleet.Config {
	seed := faults.Child(shape.Seed, ri*64+si)
	arrivals, horizon := seg.build(seed)
	cfg := shape.cell(costs, seed, arrivals, horizon, sched)
	if seg.storm {
		shape.storm(&cfg, shape.Nodes/10, horizon/2, horizon/8)
	}
	return cfg
}

// RunFleet executes the fleet experiment. Deterministic: the same
// opts produce the same report, byte for byte, for any Parallel.
func RunFleet(o FleetOpts) (*FleetReport, error) {
	shape := fleetGrid.at(o.Scale, o.Nodes)
	scheds, err := fleetSchedulers(o.Sched)
	if err != nil {
		return nil, err
	}
	specs := runtimeSpecs()

	// Stage 1 — calibration: one real container per runtime.
	costs, cal, err := fleetCalibrateAll("fleet", o.Parallel)
	if err != nil {
		return nil, err
	}

	rep := &FleetReport{FleetShape: shape, Calibration: cal}
	for _, s := range scheds {
		rep.Schedulers = append(rep.Schedulers, s.Name())
	}

	// Stage 2 — the control-plane grid: cell (ri, si, sj) simulates one
	// (runtime, segment, scheduler) fleet.
	segsPerRT := make([][]fleetSegment, len(specs))
	for ri := range specs {
		segs, err := fleetSegments(o, shape, shape.capacity(costs[ri]))
		if err != nil {
			return nil, err
		}
		segsPerRT[ri] = segs
	}
	nSegs := len(segsPerRT[0])
	nGrid := len(specs) * nSegs * len(scheds)
	rows := make([]FleetRow, nGrid)
	var stores []*telemetry.Store
	if o.ScrapeInterval > 0 {
		stores = make([]*telemetry.Store, nGrid)
	}
	// The replayed segment is the storm cell (last segment) under the
	// last scheduler in the axis; its cell keeps the per-node stats.
	replaySeg, replaySched := nSegs-1, len(scheds)-1
	stormNodes := make([][]fleet.NodeStat, len(specs))

	err = RunIndexed(o.Parallel, nGrid, func(ci int) error {
		ri := ci / (nSegs * len(scheds))
		si := ci / len(scheds) % nSegs
		sj := ci % len(scheds)
		seg := segsPerRT[ri][si]
		cfg := fleetCellConfig(shape, costs[ri], ri, si, seg, scheds[sj])
		if o.ScrapeInterval > 0 {
			store := telemetry.NewStore(o.ScrapeInterval, 0)
			cfg.Observe = telemetry.NewFleetProbe(metrics.NewRegistry(), store, nil,
				metrics.L("load", seg.label),
				metrics.L("runtime", cal[ri].Runtime),
				metrics.L("sched", scheds[sj].Name()))
			cfg.ScrapeEvery = o.ScrapeInterval
			stores[ci] = store
		}
		res, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("fleet: %s/%s/%s: %w", cal[ri].Runtime, scheds[sj].Name(), seg.label, err)
		}
		rows[ci] = FleetRow{
			Runtime: cal[ri].Runtime, Sched: scheds[sj].Name(), Load: seg.label,
			OfferedPerSec: seg.offered,
			FleetTails:    fleetTails(res, cfg.Horizon),
			Evicted:       res.Evicted,
			WarmRestores:  res.WarmRestores,
			ColdRedos:     res.ColdRedos,
		}
		if si == replaySeg && sj == replaySched {
			stormNodes[ri] = res.Nodes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 3 — replay: cell (ri, ni) re-executes node ni of runtime
	// ri's storm cell on a real machine.
	nReplay := len(specs) * fleetReplayNodes
	arts := make([]fleet.NodeArtifact, nReplay)
	err = RunIndexed(o.Parallel, nReplay, func(ci int) error {
		ri, ni := ci/fleetReplayNodes, ci%fleetReplayNodes
		stat := stormNodes[ri][ni]
		reqs := stat.Requests
		if reqs > fleetReplayMaxReqs {
			reqs = fleetReplayMaxReqs
		}
		w := fleet.NodeWork{
			Node:       stat.Node,
			Containers: shape.SlotsPerNode,
			Requests:   reqs,
		}
		if stat.Crashed {
			w.Crashes = 2
		}
		art, err := fleet.ReplayNode(w, specs[ri].kind, specs[ri].opts, nil)
		if err != nil {
			return fmt.Errorf("fleet: replay %s node %d: %w", cal[ri].Runtime, stat.Node, err)
		}
		arts[ci] = *art
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	rep.Replay = arts
	if o.ScrapeInterval > 0 {
		// Merging in the fixed sequential cell order reproduces the
		// series order of a sequential run at any parallelism.
		merged := telemetry.NewStore(o.ScrapeInterval, 0)
		for _, st := range stores {
			merged.Merge(st)
		}
		rep.Timeline = merged
	}
	return rep, nil
}

// WriteFleetJSON writes the report in the exact encoding of the
// committed BENCH_fleet artifact.
func WriteFleetJSON(rep *FleetReport, w io.Writer) error { return WriteJSON(rep, w) }

// WriteTable renders the capacity curves and tails as a table.
func (rep *FleetReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("Fleet serving: %d nodes x %d slots, open-loop arrivals", rep.Nodes, rep.SlotsPerNode),
		"runtime", "sched", "load", "offered/s", "done", "rejected", "goodput/s", "p50", "p99", "p999", "maxQ")
	for _, r := range rep.Rows {
		t.Row(r.Runtime, r.Sched, r.Load,
			fmt.Sprintf("%.0f", r.OfferedPerSec),
			itoa(r.Completed), itoa(r.Rejected),
			fmt.Sprintf("%.0f", r.GoodputPerSec),
			fmt.Sprintf("%.2fms", r.P50Ms),
			fmt.Sprintf("%.2fms", r.P99Ms),
			fmt.Sprintf("%.2fms", r.P999Ms),
			itoa(r.MaxQueue))
	}
	t.Note("open-loop Poisson arrivals; goodput saturates at the runtime's boot+service")
	t.Note("capacity, overload turns into rejections (admission bound), and the storm row")
	t.Note("evicts a tenth of the nodes mid-run — snapshot-aged containers restore warm")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	rt := NewTable("Replayed storm nodes (real machines under the warm-restart supervisor)",
		"runtime", "node", "containers", "requests", "crashes", "warm", "cold", "virtual", "spans")
	for _, a := range rep.Replay {
		rt.Row(a.Runtime, itoa(a.Node), itoa(a.Containers), itoa(a.Requests),
			itoa(a.Crashes), itoa(a.WarmRestores), itoa(a.ColdRestarts),
			(clock.Time(a.VirtualNs) * clock.Nanosecond).String(), itoa(a.Spans))
	}
	_, err := rt.WriteTo(w)
	return err
}

// Invariants checks the committed grid: 5 runtimes x 8 load segments x
// 2 schedulers on 50 nodes of 4 slots, calibrated costs, >= 1000
// arrivals and monotone tails in every cell, an overload segment that
// rejects (backpressure), storm rows that evict and restore warm without
// losing track of an eviction, and a replay digest per storm node.
func (rep *FleetReport) Invariants() error {
	nRT := len(runtimeSpecs())
	if want := fleetGrid.at(rep.Scale, 0); rep.FleetShape != want ||
		!slices.Equal(rep.Schedulers, fleet.SchedulerNames()) {
		return fmt.Errorf("fleet: shape %+v, schedulers %v; want %+v, %v",
			rep.FleetShape, rep.Schedulers, want, fleet.SchedulerNames())
	}
	if len(rep.Calibration) != nRT {
		return fmt.Errorf("fleet: %d calibration rows, want %d", len(rep.Calibration), nRT)
	}
	for _, c := range rep.Calibration {
		if c.Runtime == "" || c.BootNs < 0 || c.ServiceNs <= 0 || c.WarmRestoreNs <= 0 {
			return fmt.Errorf("fleet: degenerate calibration: %+v", c)
		}
	}
	if want := nRT * (len(fleetLoadPoints) + 2) * len(rep.Schedulers); len(rep.Rows) != want {
		return fmt.Errorf("fleet: %d rows, want %d", len(rep.Rows), want)
	}
	overloadRejects, stormWarm := false, false
	for _, r := range rep.Rows {
		cell := r.Runtime + "/" + r.Sched + "/" + r.Load
		if r.Arrived < 1000 {
			return fmt.Errorf("fleet: %s: only %d arrivals", cell, r.Arrived)
		}
		if r.P50Ms > r.P99Ms || r.P99Ms > r.P999Ms {
			return fmt.Errorf("fleet: %s: quantiles not monotone: %v/%v/%v", cell, r.P50Ms, r.P99Ms, r.P999Ms)
		}
		overloadRejects = overloadRejects || (r.Load == "1.30x" && r.Rejected > 0)
		if r.Load == "storm" {
			// Running instances split warm/cold; displaced queued ones
			// just re-place, so the split never exceeds the evictions.
			if r.Evicted == 0 || r.WarmRestores+r.ColdRedos > r.Evicted {
				return fmt.Errorf("fleet: %s: %d evicted, %d warm + %d cold", cell, r.Evicted, r.WarmRestores, r.ColdRedos)
			}
			stormWarm = stormWarm || r.WarmRestores > 0
		}
	}
	if !overloadRejects {
		return errors.New("fleet: no 1.30x overload row rejected (no backpressure)")
	}
	if !stormWarm {
		return errors.New("fleet: no storm row restored warm")
	}
	if want := nRT * fleetReplayNodes; len(rep.Replay) != want {
		return fmt.Errorf("fleet: %d replay digests, want %d", len(rep.Replay), want)
	}
	for _, a := range rep.Replay {
		if a.Runtime == "" || a.Requests == 0 || a.Spans == 0 || a.MetricsFNV == 0 {
			return fmt.Errorf("fleet: degenerate replay digest: %+v", a)
		}
	}
	return nil
}

// validateFleet rejects an unknown -sched, and -slo-out without an
// explicit -scrape-interval: every cell must share one interval for the
// merged timeline.
func validateFleet(o Options) error {
	if o.Sched != "" {
		if _, err := fleet.SchedulerByName(o.Sched); err != nil {
			return err
		}
	}
	if o.SLOOut != "" && o.ScrapeInterval == 0 {
		return errors.New("-slo-out with -exp fleet requires an explicit -scrape-interval (every cell must share one interval for the merged timeline)")
	}
	return nil
}

// runFleetArtifact runs the experiment and writes the merged timeline
// to -slo-out.
func runFleetArtifact(o Options) (Report, error) {
	rep, err := RunFleet(FleetOpts{
		Scale: o.Scale, Parallel: o.Parallel,
		Nodes: o.Nodes, Sched: o.Sched,
		ArrivalRate: o.ArrivalRate, TraceFile: o.TraceFile,
		ScrapeInterval: o.ScrapeInterval,
	})
	if err != nil || o.SLOOut == "" {
		return rep, err
	}
	return rep, writeTimeline(o.SLOOut, rep.Timeline)
}

// writeTimeline writes a merged fleet timeline: CKITS1 binary when the
// path ends in .ckits, JSON export otherwise.
func writeTimeline(path string, st *telemetry.Store) error {
	if st == nil {
		return errors.New("-slo-out: no timeline collected (is -scrape-interval set?)")
	}
	if strings.HasSuffix(path, ".ckits") {
		return os.WriteFile(path, st.EncodeBinary(), 0o644)
	}
	b, err := st.Export().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
