package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The tail experiment: per-request causal attribution of tail latency.
// Each runtime runs the eviction-storm scenario twice — once with the
// storm, once calm, same seed, so the pair differs only in the storm —
// with a request recorder capturing every request's lifecycle segments
// and an exemplar-enabled latency histogram linking buckets back to
// concrete RequestIDs. The critical-path extractor then decomposes
// each completed request's latency into exact, conservation-checked
// components (queue wait, boot, warm restore, service, storm-induced
// redo): the p50/p99/p999 requests are named and attributed, the
// slowest requests get full waterfalls, and the storm tax is the
// paired quantile delta. Every cell is an isolated simulation, so the
// report is byte-identical for any -parallel value.

// TailSeed tags the committed BENCH_tail report and roots the per-cell
// seeds.
const TailSeed = 0x7a11a7

// tailFleet is the committed tail experiment's shape: 20 nodes x 4
// slots, smaller than the fleet experiment's because the artifact
// carries per-request detail.
var tailFleet = FleetShape{Seed: TailSeed, Nodes: 20, SlotsPerNode: 4, QueueLimit: 16, MeanReqs: 8}

const (
	// tailArrivalsPerCell sizes the horizon per scale unit.
	tailArrivalsPerCell = 4000
	// tailLoad is the offered load as a fraction of nominal capacity.
	tailLoad = 0.8
	// tailTopK is how many of the slowest requests get waterfalls (on
	// top of every histogram exemplar, which always resolves to one).
	tailTopK = 3
)

// TailOpts parameterizes the experiment; zero values mean the
// committed-artifact defaults.
type TailOpts struct {
	Scale    int
	Parallel int
	// Nodes overrides the fleet size (default tailFleet.Nodes).
	Nodes int
}

// TailComponents is one request's latency decomposed into causal
// components. All durations are picoseconds — the virtual clock's own
// unit — because the conservation law is exact: QueuePs + BootPs +
// WarmRestorePs + ServicePs + StormRedoPs == TotalPs, no rounding.
// BootPs counts cold boots and fork boots alike.
type TailComponents struct {
	QueuePs       int64 `json:"queue_ps"`
	BootPs        int64 `json:"boot_ps"`
	WarmRestorePs int64 `json:"warm_restore_ps"`
	ServicePs     int64 `json:"service_ps"`
	StormRedoPs   int64 `json:"storm_redo_ps"`
	TotalPs       int64 `json:"total_ps"`
	// Placements counts scheduler decisions (instantaneous in the
	// control-plane model: counted, not timed); Evictions counts storm
	// displacements survived.
	Placements int `json:"placements"`
	Evictions  int `json:"evictions,omitempty"`
}

// tailComponents extracts one request's components from its causal
// segment chain, enforcing the conservation law on the way.
func tailComponents(segs []trace.Segment) (TailComponents, error) {
	var c TailComponents
	total, err := trace.Conserve(segs)
	if err != nil {
		return c, err
	}
	for _, s := range segs {
		switch s.Kind {
		case trace.SegQueue:
			c.QueuePs += int64(s.Dur)
		case trace.SegBoot, trace.SegForkBoot:
			c.BootPs += int64(s.Dur)
		case trace.SegWarmRestore:
			c.WarmRestorePs += int64(s.Dur)
		case trace.SegService:
			c.ServicePs += int64(s.Dur)
		case trace.SegStormRedo:
			c.StormRedoPs += int64(s.Dur)
		case trace.SegPlacement:
			c.Placements++
		case trace.SegEvict:
			c.Evictions++
		}
	}
	c.TotalPs = int64(total)
	if sum := c.QueuePs + c.BootPs + c.WarmRestorePs + c.ServicePs + c.StormRedoPs; sum != c.TotalPs {
		return c, fmt.Errorf("request %s: components sum to %d ps, latency is %d ps",
			segs[0].Req, sum, c.TotalPs)
	}
	return c, nil
}

// TailStep is one segment of a waterfall, virtual-time ordered.
type TailStep struct {
	Kind    string `json:"kind"`
	AtPs    int64  `json:"at_ps"`
	DurPs   int64  `json:"dur_ps,omitempty"`
	Node    int    `json:"node,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// TailWaterfall is one concrete request's full causal story.
type TailWaterfall struct {
	RequestID string `json:"request_id"`
	// Rank is the request's 1-based slowness rank among the cell's
	// completions (1 = slowest).
	Rank       int            `json:"rank"`
	LatencyMs  float64        `json:"latency_ms"`
	Components TailComponents `json:"components"`
	Steps      []TailStep     `json:"steps"`
}

// TailQuantile names the exact request at a latency quantile and
// attributes its latency.
type TailQuantile struct {
	Q          string         `json:"q"`
	LatencyMs  float64        `json:"latency_ms"`
	RequestID  string         `json:"request_id"`
	Components TailComponents `json:"components"`
}

// TailExemplarRef is one histogram-bucket exemplar: the link from the
// metrics layer back to a traced request. Every referenced ID resolves
// to a waterfall in the same row (Invariants checks).
type TailExemplarRef struct {
	BucketNs  int64  `json:"bucket_ns"` // bucket upper bound, -1 = +Inf
	RequestID string `json:"request_id"`
	ValueNs   int64  `json:"value_ns"`
}

// TailRow is one runtime's storm cell, attributed, plus the calm
// baseline and the storm tax (paired quantile deltas).
type TailRow struct {
	Runtime       string  `json:"runtime"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	HorizonNs     int64   `json:"horizon_ns"`
	StormStartNs  int64   `json:"storm_start_ns"`
	StormEndNs    int64   `json:"storm_end_ns"`

	Arrived      int `json:"arrived"`
	Completed    int `json:"completed"`
	Rejected     int `json:"rejected"`
	Evicted      int `json:"evicted"`
	WarmRestores int `json:"warm_restores"`
	ColdRedos    int `json:"cold_redos"`

	// Quantiles attributes the exact p50/p99/p999 requests; Totals
	// aggregates components over every completed request (the same
	// conservation law holds on the sums).
	Quantiles []TailQuantile `json:"quantiles"`
	Totals    TailComponents `json:"totals"`

	Exemplars  []TailExemplarRef `json:"exemplars"`
	Waterfalls []TailWaterfall   `json:"waterfalls"`

	// The calm baseline (same seed, no storm) and the storm tax.
	CalmP50Ms      float64 `json:"calm_p50_ms"`
	CalmP99Ms      float64 `json:"calm_p99_ms"`
	CalmP999Ms     float64 `json:"calm_p999_ms"`
	StormTaxP50Ms  float64 `json:"storm_tax_p50_ms"`
	StormTaxP99Ms  float64 `json:"storm_tax_p99_ms"`
	StormTaxP999Ms float64 `json:"storm_tax_p999_ms"`
}

// TailReport is the whole experiment (the committed BENCH_tail
// artifact).
type TailReport struct {
	FleetShape
	Sched       string             `json:"sched"`
	Calibration []FleetCalibration `json:"calibration"`
	Rows        []TailRow          `json:"rows"`
}

// tailCell is one (runtime, storm|calm) simulation's raw outcome.
type tailCell struct {
	res  *fleet.Result
	rec  *trace.RequestRecorder
	ex   []metrics.Exemplar
	cfg  fleet.Config
	rate float64
}

// runTailCell executes one cell: the storm scenario with a request
// recorder and an exemplar-enabled probe attached, or its calm
// baseline. The storm takes a quarter of the nodes down — harsher than
// the fleet experiment, so redo segments dominate the far tail visibly.
func runTailCell(shape FleetShape, ri int, name string, costs fleet.RuntimeCosts, storm bool) (*tailCell, error) {
	rate := tailLoad * shape.capacity(costs)
	horizon := shape.horizon(tailArrivalsPerCell, rate)
	// Storm and calm share the seed: identical arrivals and demands, so
	// the quantile delta isolates the storm.
	seed := faults.Child(shape.Seed, ri)
	cfg := shape.cell(costs, seed, des.PoissonArrivals(seed, rate, horizon), horizon, fleet.Spread{})
	// Only the storm cell is attributed: tailRow reads just the calm
	// baseline's result, so the calm cell runs unobserved.
	var rec *trace.RequestRecorder
	var probe *telemetry.FleetProbe
	if storm {
		shape.storm(&cfg, shape.Nodes/4, horizon/2, horizon/8)
		rec = trace.NewRequestRecorder()
		cfg.Requests = rec
		probe = telemetry.NewFleetProbe(metrics.NewRegistry(), nil, nil, metrics.L("runtime", name))
		probe.EnableExemplars()
		cfg.Observe = probe
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("tail: %s: %w", name, err)
	}
	cell := &tailCell{res: res, rec: rec, cfg: cfg, rate: rate}
	if probe != nil {
		cell.ex = probe.LatencyExemplars()
	}
	return cell, nil
}

// tailPair is one completed request as the extractor sees it.
type tailPair struct {
	id  trace.RequestID
	lat clock.Time
	// seen is the request's first-seen (arrival) order: the
	// deterministic tiebreak among equal latencies.
	seen int
}

// tailRow extracts one runtime's attributed row from its storm and
// calm cells. Every completed request's components are
// conservation-checked here, not just the reported ones.
func tailRow(name string, storm, calm *tailCell) (TailRow, error) {
	res := storm.res
	ms := func(t clock.Time) float64 { return float64(t) / float64(clock.Millisecond) }
	row := TailRow{
		Runtime: name, OfferedPerSec: storm.rate,
		HorizonNs:    int64(storm.cfg.Horizon / clock.Nanosecond),
		StormStartNs: int64(storm.cfg.EvictAt / clock.Nanosecond),
		StormEndNs:   int64((storm.cfg.EvictAt + storm.cfg.DownFor) / clock.Nanosecond),
		Arrived:      res.Arrived, Completed: res.Completed, Rejected: res.Rejected,
		Evicted: res.Evicted, WarmRestores: res.WarmRestores, ColdRedos: res.ColdRedos,
	}

	// Walk every traced request: conservation-check all terminals and
	// collect the completed ones. comps is indexed by first-seen order.
	var pairs []tailPair
	comps := make([]TailComponents, storm.rec.Len())
	err := storm.rec.Each(func(seen int, id trace.RequestID, segs []trace.Segment) error {
		if last := segs[len(segs)-1]; !last.Terminal() {
			return nil // in flight at the horizon
		}
		c, err := tailComponents(segs)
		if err != nil {
			return fmt.Errorf("tail: %s: %w", name, err)
		}
		if segs[len(segs)-1].Kind != trace.SegComplete {
			return nil // rejected: zero-latency terminal, nothing to rank
		}
		comps[seen] = c
		pairs = append(pairs, tailPair{id: id, lat: clock.Time(c.TotalPs), seen: seen})
		row.Totals.QueuePs += c.QueuePs
		row.Totals.BootPs += c.BootPs
		row.Totals.WarmRestorePs += c.WarmRestorePs
		row.Totals.ServicePs += c.ServicePs
		row.Totals.StormRedoPs += c.StormRedoPs
		row.Totals.TotalPs += c.TotalPs
		row.Totals.Placements += c.Placements
		row.Totals.Evictions += c.Evictions
		return nil
	})
	if err != nil {
		return row, err
	}
	if len(pairs) != res.Completed {
		return row, fmt.Errorf("tail: %s: traced %d completions, result has %d",
			name, len(pairs), res.Completed)
	}
	// Slowest first; arrival order breaks latency ties deterministically.
	// A request's 1-based slowness rank is its index here plus one.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lat != pairs[j].lat {
			return pairs[i].lat > pairs[j].lat
		}
		return pairs[i].seen < pairs[j].seen
	})

	// Quantiles: the same ceil-rank order statistic Result.Quantile
	// publishes, here resolved to the concrete request paying it.
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}} {
		idx := int(q.q*float64(len(pairs))+0.999999) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(pairs) {
			idx = len(pairs) - 1
		}
		p := pairs[len(pairs)-1-idx] // pairs is sorted descending
		if want := res.Quantile(q.q); p.lat != want {
			return row, fmt.Errorf("tail: %s: %s request latency %v disagrees with the result quantile %v",
				name, q.name, p.lat, want)
		}
		row.Quantiles = append(row.Quantiles, TailQuantile{
			Q: q.name, LatencyMs: ms(p.lat), RequestID: p.id.String(),
			Components: comps[p.seen],
		})
	}

	// Waterfalls: the top-K slowest plus every bucket exemplar — the
	// metrics layer's links must all resolve (Invariants checks).
	want := map[trace.RequestID]bool{}
	for i := 0; i < tailTopK && i < len(pairs); i++ {
		want[pairs[i].id] = true
	}
	for _, e := range storm.ex {
		id := trace.RequestID(e.ID)
		want[id] = true
		row.Exemplars = append(row.Exemplars, TailExemplarRef{
			BucketNs: e.BucketNs, RequestID: id.String(),
			ValueNs: int64(e.Value) / 1000,
		})
	}
	for i, p := range pairs {
		if !want[p.id] {
			continue
		}
		wf := TailWaterfall{
			RequestID: p.id.String(), Rank: i + 1,
			LatencyMs: ms(p.lat), Components: comps[p.seen],
		}
		for _, s := range storm.rec.Segments(p.id) {
			wf.Steps = append(wf.Steps, TailStep{
				Kind: s.Kind, AtPs: int64(s.At), DurPs: int64(s.Dur),
				Node: s.Node, Outcome: s.Outcome,
			})
		}
		row.Waterfalls = append(row.Waterfalls, wf)
	}

	// The paired baseline: same arrivals, no storm.
	row.CalmP50Ms = ms(calm.res.Quantile(0.5))
	row.CalmP99Ms = ms(calm.res.Quantile(0.99))
	row.CalmP999Ms = ms(calm.res.Quantile(0.999))
	row.StormTaxP50Ms = ms(res.Quantile(0.5)) - row.CalmP50Ms
	row.StormTaxP99Ms = ms(res.Quantile(0.99)) - row.CalmP99Ms
	row.StormTaxP999Ms = ms(res.Quantile(0.999)) - row.CalmP999Ms
	return row, nil
}

// RunTail executes the tail experiment. Deterministic: the same opts
// produce the same report, byte for byte, for any Parallel.
func RunTail(o TailOpts) (*TailReport, error) {
	shape := tailFleet.at(o.Scale, o.Nodes)
	costs, cal, err := fleetCalibrateAll("tail", o.Parallel)
	if err != nil {
		return nil, err
	}

	rep := &TailReport{FleetShape: shape, Sched: fleet.Spread{}.Name(), Calibration: cal}

	// Two cells per runtime — storm (even) and calm baseline (odd) —
	// all independent, one fan-out.
	cells := make([]*tailCell, 2*len(cal))
	err = RunIndexed(o.Parallel, len(cells), func(ci int) error {
		ri, storm := ci/2, ci%2 == 0
		cell, err := runTailCell(shape, ri, cal[ri].Runtime, costs[ri], storm)
		if err != nil {
			return err
		}
		cells[ci] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri := range cal {
		row, err := tailRow(cal[ri].Runtime, cells[2*ri], cells[2*ri+1])
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteTailJSON writes the report in the exact encoding of the
// committed BENCH_tail artifact.
func WriteTailJSON(rep *TailReport, w io.Writer) error { return WriteJSON(rep, w) }

// tailShare renders a component's share of an aggregate total.
func tailShare(part, total int64) string {
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(total))
}

// WriteTable renders the attribution summary as tables.
func (rep *TailReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("Tail-latency attribution: %d nodes x %d slots, eviction storm at t=horizon/2",
			rep.Nodes, rep.SlotsPerNode),
		"runtime", "done", "p50", "p99", "p999", "queue", "boot", "restore", "service", "redo", "tax p99", "tax p999")
	for _, r := range rep.Rows {
		var p50, p99, p999 float64
		for _, q := range r.Quantiles {
			switch q.Q {
			case "p50":
				p50 = q.LatencyMs
			case "p99":
				p99 = q.LatencyMs
			case "p999":
				p999 = q.LatencyMs
			}
		}
		t.Row(r.Runtime, itoa(r.Completed),
			fmt.Sprintf("%.2fms", p50),
			fmt.Sprintf("%.2fms", p99),
			fmt.Sprintf("%.2fms", p999),
			tailShare(r.Totals.QueuePs, r.Totals.TotalPs),
			tailShare(r.Totals.BootPs, r.Totals.TotalPs),
			tailShare(r.Totals.WarmRestorePs, r.Totals.TotalPs),
			tailShare(r.Totals.ServicePs, r.Totals.TotalPs),
			tailShare(r.Totals.StormRedoPs, r.Totals.TotalPs),
			fmt.Sprintf("%.2fms", r.StormTaxP99Ms),
			fmt.Sprintf("%.2fms", r.StormTaxP999Ms))
	}
	t.Note("component shares aggregate every completed request; per-request they sum")
	t.Note("exactly to the end-to-end latency (conservation law). tax = storm quantile")
	t.Note("minus the calm same-seed baseline. ckitrace -tail BENCH_tail.json -request <id>")
	t.Note("renders any exemplar's waterfall.")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	wt := NewTable("Slowest-request waterfalls (storm cells)",
		"runtime", "request", "rank", "latency", "queue", "redo", "evictions")
	for _, r := range rep.Rows {
		for _, wf := range r.Waterfalls {
			if wf.Rank > tailTopK {
				continue
			}
			wt.Row(r.Runtime, wf.RequestID, itoa(wf.Rank),
				fmt.Sprintf("%.2fms", wf.LatencyMs),
				tailShare(wf.Components.QueuePs, wf.Components.TotalPs),
				tailShare(wf.Components.StormRedoPs, wf.Components.TotalPs),
				itoa(wf.Components.Evictions))
		}
	}
	_, err := wt.WriteTo(w)
	return err
}

// Invariants checks every runtime's attributed row: the storm bit
// (evictions, warm or cold redos), the p50/p99/p999 requests are named,
// monotone and conserve — components sum exactly to the latency, as they
// do per waterfall and in aggregate — the top-K slowest requests have
// waterfalls running arrival to completion, every histogram exemplar
// resolves to one of them, and the paired storm tax is non-negative at
// the far tail.
func (rep *TailReport) Invariants() error {
	if want := len(runtimeSpecs()); len(rep.Rows) != want || len(rep.Calibration) != want {
		return fmt.Errorf("tail: %d rows / %d calibrations, want %d", len(rep.Rows), len(rep.Calibration), want)
	}
	conserves := func(c TailComponents) bool {
		return c.QueuePs+c.BootPs+c.WarmRestorePs+c.ServicePs+c.StormRedoPs == c.TotalPs
	}
	for _, r := range rep.Rows {
		if r.Arrived == 0 || r.Completed == 0 || r.Evicted == 0 || r.WarmRestores+r.ColdRedos == 0 {
			return fmt.Errorf("tail: %s: empty cell or the storm displaced nothing: %d arrived, %d done, %d evicted, %d redone",
				r.Runtime, r.Arrived, r.Completed, r.Evicted, r.WarmRestores+r.ColdRedos)
		}
		if len(r.Quantiles) != 3 {
			return fmt.Errorf("tail: %s: %d quantiles, want p50/p99/p999", r.Runtime, len(r.Quantiles))
		}
		for i, q := range r.Quantiles {
			if !conserves(q.Components) || q.Components.TotalPs == 0 || q.RequestID == "" {
				return fmt.Errorf("tail: %s %s: degenerate or non-conserving quantile %+v", r.Runtime, q.Q, q)
			}
			if i > 0 && r.Quantiles[i-1].LatencyMs > q.LatencyMs {
				return fmt.Errorf("tail: %s: quantiles not monotone at %s", r.Runtime, q.Q)
			}
		}
		if !conserves(r.Totals) || r.Totals.Placements < r.Completed {
			return fmt.Errorf("tail: %s: aggregate components %+v do not conserve over %d completions", r.Runtime, r.Totals, r.Completed)
		}
		waterfalls := map[string]bool{}
		ranks := map[int]bool{}
		for _, wf := range r.Waterfalls {
			steps := wf.Steps
			if !conserves(wf.Components) || len(steps) == 0 ||
				steps[0].Kind != trace.SegArrival || steps[len(steps)-1].Kind != trace.SegComplete {
				return fmt.Errorf("tail: %s %s: malformed waterfall", r.Runtime, wf.RequestID)
			}
			waterfalls[wf.RequestID] = true
			ranks[wf.Rank] = true
		}
		for rank := 1; rank <= tailTopK; rank++ {
			if !ranks[rank] {
				return fmt.Errorf("tail: %s: no waterfall at slowness rank %d", r.Runtime, rank)
			}
		}
		if len(r.Exemplars) == 0 {
			return fmt.Errorf("tail: %s: latency histogram recorded no exemplars", r.Runtime)
		}
		for _, e := range r.Exemplars {
			if !waterfalls[e.RequestID] {
				return fmt.Errorf("tail: %s: exemplar %s has no waterfall", r.Runtime, e.RequestID)
			}
		}
		if r.StormTaxP999Ms < 0 {
			return fmt.Errorf("tail: %s: negative p999 storm tax %v", r.Runtime, r.StormTaxP999Ms)
		}
	}
	return nil
}
