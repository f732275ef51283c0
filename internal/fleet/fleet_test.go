package fleet

import (
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/trace"
)

// testCosts is a hand-picked cost model: 300µs boot, 50µs per request,
// 60µs warm restore — close to what the calibration pass measures for
// the virtualized runtimes.
func testCosts() RuntimeCosts {
	return RuntimeCosts{
		Boot:        300 * clock.Microsecond,
		Service:     50 * clock.Microsecond,
		WarmRestore: 60 * clock.Microsecond,
	}
}

// TestRunDeterminism: the control plane is a pure function of its
// config — two runs of the same config produce deep-equal results,
// eviction storm included.
func TestRunDeterminism(t *testing.T) {
	h := 20 * clock.Millisecond
	config := func(seed uint64) Config {
		return Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			Arrivals: des.PoissonArrivals(11, 15_000, h),
			Horizon:  h, Seed: seed, Sched: Spread{},
			SnapshotAge: 100 * clock.Microsecond,
			EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
		}
	}
	a, err := Run(config(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(config(11))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\nvs\n%+v", a, b)
	}
	c, err := Run(config(12))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Latencies, c.Latencies) {
		t.Fatalf("different seeds produced identical latency streams")
	}
}

// TestUnderloadNoRejects: a fleet driven at half capacity completes
// nearly everything and never pushes back.
func TestUnderloadNoRejects(t *testing.T) {
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, err := SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			// Capacity ~= 16 slots / 500µs mean lifetime = 32k/s.
			Arrivals: des.PoissonArrivals(7, 15_000, h),
			Horizon:  h, Seed: 7, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Arrived == 0 || res.Completed == 0 {
			t.Fatalf("%s: empty run: %+v", name, res)
		}
		if res.Rejected != 0 {
			t.Fatalf("%s: underloaded fleet rejected %d arrivals", name, res.Rejected)
		}
		if res.Quantile(0.5) > res.Quantile(0.99) || res.Quantile(0.99) > res.Quantile(0.999) {
			t.Fatalf("%s: quantiles not monotone: p50 %v p99 %v p999 %v",
				name, res.Quantile(0.5), res.Quantile(0.99), res.Quantile(0.999))
		}
		// Every latency covers at least boot + one request.
		if min := testCosts().Boot + testCosts().Service; res.Quantile(0.5) < min {
			t.Fatalf("%s: p50 %v below the physical floor %v", name, res.Quantile(0.5), min)
		}
	}
}

// TestOverloadBackpressure: at ~3x capacity the admission bound turns
// the excess into rejections instead of unbounded queues, and goodput
// saturates near capacity.
func TestOverloadBackpressure(t *testing.T) {
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, _ := SchedulerByName(name)
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			Arrivals: des.PoissonArrivals(3, 100_000, h),
			Horizon:  h, Seed: 3, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rejected == 0 {
			t.Fatalf("%s: overloaded fleet rejected nothing: backpressure missing", name)
		}
		if res.MaxQueue > 8 {
			t.Fatalf("%s: queue depth %d exceeded the admission bound", name, res.MaxQueue)
		}
		// 16 slots / 500µs mean lifetime ≈ 32k/s ceiling.
		if g := res.Goodput(h); g > 1.2*32_000 {
			t.Fatalf("%s: goodput %v/s exceeds the capacity ceiling", name, g)
		}
	}
}

// TestSchedulerShape: binpack concentrates starts on the low-ID prefix
// leaving the tail idle; spread spills starts across every node.
func TestSchedulerShape(t *testing.T) {
	h := 20 * clock.Millisecond
	run := func(s Scheduler) *Result {
		res, err := Run(Config{
			Nodes: 8, SlotsPerNode: 2, QueueLimit: 8,
			Costs: testCosts(), MeanReqs: 4,
			// ~7 concurrent containers against 16 slots: plenty of
			// spare capacity for placement policy to show.
			Arrivals: des.PoissonArrivals(21, 14_000, h),
			Horizon:  h, Seed: 21, Sched: s,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bp := run(BinPack{})
	sp := run(Spread{})

	if last := bp.Nodes[len(bp.Nodes)-1]; last.Starts != 0 {
		t.Fatalf("binpack used the last node (%d starts) with the prefix unfilled", last.Starts)
	}
	if bp.Nodes[0].Starts <= bp.Nodes[len(bp.Nodes)-1].Starts {
		t.Fatalf("binpack did not concentrate: first %d starts, last %d",
			bp.Nodes[0].Starts, bp.Nodes[len(bp.Nodes)-1].Starts)
	}
	for _, n := range sp.Nodes {
		if n.Starts == 0 {
			t.Fatalf("spread left node %d idle: %+v", n.Node, sp.Nodes)
		}
	}
	// Spread's per-node start counts stay within a tight band.
	lo, hi := sp.Nodes[0].Starts, sp.Nodes[0].Starts
	for _, n := range sp.Nodes {
		if n.Starts < lo {
			lo = n.Starts
		}
		if n.Starts > hi {
			hi = n.Starts
		}
	}
	if hi > 2*lo {
		t.Fatalf("spread imbalanced: node starts range [%d, %d]", lo, hi)
	}
}

// TestEvictionStorm: taking nodes down mid-run displaces their work,
// snapshot-aged containers come back warm, young ones redo cold, and
// the books still balance.
func TestEvictionStorm(t *testing.T) {
	h := 20 * clock.Millisecond
	base := Config{
		Nodes: 4, SlotsPerNode: 2, QueueLimit: 16,
		Costs: testCosts(), MeanReqs: 4,
		Horizon: h, Seed: 9, Sched: Spread{},
		EvictAt: 10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	arrivals := func() des.Source { return des.PoissonArrivals(9, 12_000, h) }

	warm := base
	warm.Arrivals = arrivals()
	warm.SnapshotAge = 50 * clock.Microsecond
	wres, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Evicted == 0 {
		t.Fatalf("eviction storm displaced nothing")
	}
	if wres.WarmRestores == 0 {
		t.Fatalf("no warm restores despite a 50µs snapshot age: %+v", wres)
	}
	crashed := 0
	for _, n := range wres.Nodes {
		if n.Crashed {
			crashed++
			if n.Evicted == 0 {
				t.Fatalf("crashed node %d evicted nothing", n.Node)
			}
		}
	}
	if crashed != 2 {
		t.Fatalf("marked %d nodes crashed, want 2", crashed)
	}

	cold := base
	cold.Arrivals = arrivals()
	cold.SnapshotAge = clock.Time(1) << 40 // older than any run: nothing qualifies
	cres, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if cres.WarmRestores != 0 {
		t.Fatalf("warm restores with an unreachable snapshot age: %+v", cres)
	}
	if cres.ColdRedos == 0 {
		t.Fatalf("no cold redos in the cold configuration: %+v", cres)
	}

	// The storm never breaks completion accounting: a displaced
	// container completes at most once (the poisoned event never fires).
	if wres.Completed > wres.Arrived || cres.Completed > cres.Arrived {
		t.Fatalf("completions exceed arrivals: warm %+v cold %+v", wres, cres)
	}

	// And the undisturbed portion of the run is unchanged: an eviction
	// draws from its own generator, so demands are identical — the
	// no-eviction run completes at least as much.
	quiet := base
	quiet.Arrivals = arrivals()
	quiet.EvictAt = 0
	qres, err := Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if qres.Evicted != 0 || qres.WarmRestores != 0 || qres.ColdRedos != 0 {
		t.Fatalf("quiet run saw evictions: %+v", qres)
	}
	if qres.Completed < wres.Completed {
		t.Fatalf("eviction increased completions: quiet %d vs storm %d", qres.Completed, wres.Completed)
	}
}

// TestFleetScale is the acceptance run: ≥1000 containers over ≥50
// nodes under both schedulers, with an overload segment where the
// fleet visibly pushes back.
func TestFleetScale(t *testing.T) {
	// Capacity: 200 slots / 700µs mean lifetime ≈ 285k/s. Drive half
	// that for 10ms, then ~1.75x for 10ms.
	segs := []des.RateSegment{
		{RatePerSec: 150_000, Dur: 10 * clock.Millisecond},
		{RatePerSec: 500_000, Dur: 10 * clock.Millisecond},
	}
	h := 20 * clock.Millisecond
	for _, name := range SchedulerNames() {
		sched, _ := SchedulerByName(name)
		res, err := Run(Config{
			Nodes: 50, SlotsPerNode: 4, QueueLimit: 16,
			Costs: testCosts(), MeanReqs: 8,
			Arrivals: des.PiecewiseArrivals(1, segs),
			Horizon:  h, Seed: 1, Sched: sched,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Arrived < 1000 {
			t.Fatalf("%s: only %d arrivals, want >= 1000", name, res.Arrived)
		}
		if res.Completed < 1000 {
			t.Fatalf("%s: only %d completions, want >= 1000", name, res.Completed)
		}
		if res.Rejected == 0 {
			t.Fatalf("%s: the overload segment produced no rejections", name)
		}
		if len(res.Nodes) != 50 {
			t.Fatalf("%s: %d node stats, want 50", name, len(res.Nodes))
		}
		if res.Quantile(0.999) < res.Quantile(0.99) {
			t.Fatalf("%s: p999 %v below p99 %v", name, res.Quantile(0.999), res.Quantile(0.99))
		}
	}
}

// TestSchedulerRegistry: the -sched vocabulary resolves and unknown
// names fail loudly.
func TestSchedulerRegistry(t *testing.T) {
	names := SchedulerNames()
	if !reflect.DeepEqual(names, []string{"binpack", "spread"}) {
		t.Fatalf("scheduler registry = %v", names)
	}
	for _, n := range names {
		s, err := SchedulerByName(n)
		if err != nil || s.Name() != n {
			t.Fatalf("SchedulerByName(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := SchedulerByName("random"); err == nil {
		t.Fatalf("unknown scheduler accepted")
	}
}

// TestConfigValidation: impossible configs error instead of running.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, SlotsPerNode: 1, Costs: testCosts(), Sched: Spread{}},
		{Nodes: 1, SlotsPerNode: 0, Costs: testCosts(), Sched: Spread{}},
		{Nodes: 1, SlotsPerNode: 1, Costs: testCosts()},
		{Nodes: 1, SlotsPerNode: 1, Sched: Spread{}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// recordingObserver is a pure test observer: it counts every hook.
type recordingObserver struct {
	arrivals, completed, rejected int
	zeroIDs                       int
	evicted                       map[EvictOutcome]int
	scrapes                       int
	lastView                      []Pressure
}

func (o *recordingObserver) Arrival(clock.Time) { o.arrivals++ }
func (o *recordingObserver) Completed(_ clock.Time, node int, id trace.RequestID, lat clock.Time) {
	o.completed++
	if id == 0 {
		o.zeroIDs++
	}
}
func (o *recordingObserver) Rejected(clock.Time) { o.rejected++ }
func (o *recordingObserver) Evicted(_ clock.Time, _ int, outcome EvictOutcome) {
	if o.evicted == nil {
		o.evicted = map[EvictOutcome]int{}
	}
	o.evicted[outcome]++
}
func (o *recordingObserver) Scrape(_ clock.Time, view []Pressure) {
	o.scrapes++
	o.lastView = append(o.lastView[:0], view...)
}

// TestObserverPurity: attaching an observer (with scrapes) changes the
// Result not at all, and the hooks see exactly the counts the Result
// reports.
func TestObserverPurity(t *testing.T) {
	h := 20 * clock.Millisecond
	cfg := Config{
		Nodes: 8, SlotsPerNode: 2, QueueLimit: 4,
		Costs: testCosts(), MeanReqs: 4,
		// Overloaded so rejections happen, storm so evictions happen.
		Arrivals: des.PoissonArrivals(23, 60_000, h),
		Horizon:  h, Seed: 23, Sched: Spread{},
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	cfg.Arrivals = des.PoissonArrivals(23, 60_000, h)
	cfg.Observe = obs
	cfg.ScrapeEvery = 100 * clock.Microsecond
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer changed the result:\n%+v\nvs\n%+v", plain, observed)
	}
	if obs.zeroIDs != 0 {
		t.Fatalf("%d completions carried the reserved zero request ID", obs.zeroIDs)
	}
	if obs.arrivals != observed.Arrived || obs.completed != observed.Completed ||
		obs.rejected != observed.Rejected {
		t.Fatalf("hooks saw %d/%d/%d arrivals/completions/rejections, result has %d/%d/%d",
			obs.arrivals, obs.completed, obs.rejected,
			observed.Arrived, observed.Completed, observed.Rejected)
	}
	warm, cold, requeued := obs.evicted[EvictWarm], obs.evicted[EvictCold], obs.evicted[EvictRequeued]
	if warm != observed.WarmRestores || cold != observed.ColdRedos ||
		warm+cold+requeued != observed.Evicted {
		t.Fatalf("eviction outcomes %d/%d/%d disagree with result %d/%d/%d evicted",
			warm, cold, requeued, observed.WarmRestores, observed.ColdRedos, observed.Evicted)
	}
	// One scrape per interval across the horizon, horizon tick included.
	if want := int(h / (100 * clock.Microsecond)); obs.scrapes != want {
		t.Fatalf("%d scrapes, want %d", obs.scrapes, want)
	}
	if len(obs.lastView) != cfg.Nodes {
		t.Fatalf("scrape view covers %d nodes, want %d", len(obs.lastView), cfg.Nodes)
	}
}

// TestRequestTracePurity: attaching a request recorder changes the
// Result not at all, every terminated request's segments obey the
// conservation law, and the recorded completion latencies are exactly
// the Result's latency sample.
func TestRequestTracePurity(t *testing.T) {
	h := 20 * clock.Millisecond
	cfg := Config{
		Nodes: 8, SlotsPerNode: 2, QueueLimit: 4,
		Costs: testCosts(), MeanReqs: 4,
		// Overloaded so rejections happen, storm so every eviction
		// path (warm, cold, requeue) shows up in the traces.
		Arrivals: des.PoissonArrivals(23, 60_000, h),
		Horizon:  h, Seed: 23, Sched: Spread{},
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     10 * clock.Millisecond, EvictNodes: 2, DownFor: 2 * clock.Millisecond,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRequestRecorder()
	cfg.Arrivals = des.PoissonArrivals(23, 60_000, h)
	cfg.Requests = rec
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("request recorder changed the result:\n%+v\nvs\n%+v", plain, traced)
	}
	if rec.Len() != traced.Arrived {
		t.Fatalf("traced %d requests, %d arrived", rec.Len(), traced.Arrived)
	}
	var completes, rejects int
	var lats []clock.Time
	for _, id := range rec.Requests() {
		segs := rec.Segments(id)
		term, one := segs[len(segs)-1], true
		if !term.Terminal() {
			continue // still queued or running at the horizon
		}
		if _, one = rec.TerminalOf(id); !one {
			t.Fatalf("request %s has multiple terminals", id)
		}
		lat, err := trace.Conserve(segs)
		if err != nil {
			t.Fatalf("conservation: %v\nsegments: %+v", err, segs)
		}
		switch term.Kind {
		case trace.SegComplete:
			completes++
			lats = append(lats, lat)
		case trace.SegReject:
			rejects++
		}
	}
	if completes != traced.Completed || rejects != traced.Rejected {
		t.Fatalf("terminals %d complete / %d reject, result %d / %d",
			completes, rejects, traced.Completed, traced.Rejected)
	}
	// The conserved latencies are the Result's sample, value for value.
	want := append([]clock.Time(nil), traced.Latencies...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if !reflect.DeepEqual(lats, want) {
		t.Fatalf("traced latencies disagree with the result sample")
	}
	if traced.WarmRestores == 0 || traced.ColdRedos == 0 {
		t.Fatalf("scenario lost its storm coverage: %+v", traced)
	}
}

// TestGenerationCancellation: a displaced instance whose poisoned
// completion event fires after re-placement must terminate exactly
// once, at the re-placed completion — the stale event emits nothing.
func TestGenerationCancellation(t *testing.T) {
	h := 20 * clock.Millisecond
	for seed := uint64(0); seed < 64; seed++ {
		rec := trace.NewRequestRecorder()
		res, err := Run(Config{
			Nodes: 2, SlotsPerNode: 1, QueueLimit: 4,
			Costs: testCosts(), MeanReqs: 4,
			// ID 0: exercises the minting fallback.
			Arrivals: des.Slice(des.Arrival{At: 0, Seq: 0}),
			Horizon:  h, Seed: seed, Sched: BinPack{},
			// Mid-boot eviction, snapshot age out of reach: cold redo.
			SnapshotAge: clock.Time(1) << 40,
			EvictAt:     100 * clock.Microsecond, EvictNodes: 1, DownFor: h,
			Requests: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evicted == 0 {
			continue // the storm picked the idle node; try another seed
		}
		// The stale finish (boot+demand after the original start) fires
		// before the re-placed one (it started 100µs later): the books
		// must still show exactly one completion...
		if res.Completed != 1 || res.ColdRedos != 1 {
			t.Fatalf("seed %d: completed %d, cold redos %d, want 1/1: %+v",
				seed, res.Completed, res.ColdRedos, res)
		}
		id := rec.Requests()[0]
		segs := rec.Segments(id)
		// ...and the trace exactly one terminal segment.
		term, one := rec.TerminalOf(id)
		if !one || term.Kind != trace.SegComplete {
			t.Fatalf("seed %d: terminal = %+v (unique=%v)\nsegments: %+v", seed, term, one, segs)
		}
		lat, err := trace.Conserve(segs)
		if err != nil {
			t.Fatalf("seed %d: conservation: %v\nsegments: %+v", seed, err, segs)
		}
		if lat != res.Latencies[0] {
			t.Fatalf("seed %d: conserved latency %v, result %v", seed, lat, res.Latencies[0])
		}
		// The 100µs of pre-eviction boot shows up as storm tax.
		var redo clock.Time
		for _, s := range segs {
			if s.Kind == trace.SegStormRedo {
				redo += s.Dur
			}
		}
		if redo != 100*clock.Microsecond {
			t.Fatalf("seed %d: storm redo %v, want 100µs\nsegments: %+v", seed, redo, segs)
		}
		return
	}
	t.Fatal("no seed displaced the running instance in 64 tries")
}

// TestQuantileBoundaries pins Quantile's ceil-rank index semantics on
// small and large sample counts — the p999 extraction the fleet tables
// publish must pick the right order statistic, not round off the end.
func TestQuantileBoundaries(t *testing.T) {
	mk := func(n int) *Result {
		r := &Result{}
		// Latencies 1, 2, ..., n (given in reverse to exercise the sort).
		for i := n; i >= 1; i-- {
			r.Latencies = append(r.Latencies, clock.Time(i))
		}
		return r
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want clock.Time
	}{
		// One sample: every quantile is that sample.
		{1, 0.5, 1}, {1, 0.99, 1}, {1, 0.999, 1}, {1, 1, 1},
		// Two samples: the median is the 1st order statistic
		// (ceil(0.5*2) = 1), the tail quantiles the 2nd.
		{2, 0.5, 1}, {2, 0.99, 2}, {2, 0.999, 2},
		{3, 0.5, 2}, {3, 0.999, 3},
		{5, 0.5, 3}, {5, 0.99, 5},
		// 1000 samples: p99 = ceil(990), p999 = ceil(999) — distinct
		// order statistics, not both clamped to the max.
		{1000, 0.99, 990}, {1000, 0.999, 999}, {1000, 1, 1000},
		{100, 0.999, 100}, {101, 0.999, 101},
	} {
		if got := mk(tc.n).Quantile(tc.q); got != tc.want {
			t.Errorf("n=%d q=%g: got %d, want %d", tc.n, tc.q, int64(got), int64(tc.want))
		}
	}
	var empty Result
	if empty.Quantile(0.99) != 0 {
		t.Errorf("empty result quantile != 0")
	}
}

// refInstance and refNode are the pointer-based state refRun keeps.
type refInstance struct {
	id                               trace.RequestID
	arrivedAt, enqueuedAt, startedAt clock.Time
	boot, demand                     clock.Time
	bootKind                         string
	reqs, gen                        int
}

type refNode struct {
	id, slots, queueLimit int
	running, queue        []*refInstance
	down                  bool
	stat                  NodeStat
}

func (n *refNode) pressure() Pressure {
	return Pressure{Node: n.id, Slots: n.slots, Running: len(n.running),
		Queued: len(n.queue), QueueLimit: n.queueLimit, Down: n.down}
}

// refPlace is placement by scan, as each scheduler placed before the
// rank index: binpack takes the first node with a free slot, then the
// first admittable one; spread takes the node with the most free slots
// (ties: shortest queue, then lowest ID), then the shortest admittable
// queue.
func refPlace(s Scheduler, view []Pressure) (int, bool) {
	switch s.(type) {
	case BinPack:
		for _, p := range view {
			if !p.Down && p.Free() > 0 {
				return p.Node, true
			}
		}
		for _, p := range view {
			if p.Admittable() {
				return p.Node, true
			}
		}
		return 0, false
	case Spread:
		best, bestOK := 0, false
		var bestP Pressure
		for _, p := range view {
			if p.Down || p.Free() <= 0 {
				continue
			}
			if !bestOK || p.Free() > bestP.Free() ||
				(p.Free() == bestP.Free() && p.Queued < bestP.Queued) {
				best, bestP, bestOK = p.Node, p, true
			}
		}
		if bestOK {
			return best, true
		}
		for _, p := range view {
			if !p.Admittable() {
				continue
			}
			if !bestOK || p.Queued < bestP.Queued {
				best, bestP, bestOK = p.Node, p, true
			}
		}
		return best, bestOK
	}
	panic("refPlace: no scan for scheduler " + s.Name())
}

// refRun is the closure-per-event Run that the typed event core
// replaced: the arrival stream is read up front and every arrival,
// completion, storm and scrape is a closure on a des.Sim, one instance
// is allocated per arrival, and refPlace scans a pressure view rebuilt
// before every placement. It stays here as the oracle Run must match.
// It takes a validated config (Run's defaults already applied) and a
// sorted stream.
func refRun(cfg Config) (*Result, error) {
	arrivalBoot, arrivalBootKind := cfg.Costs.Boot, trace.SegBoot
	if cfg.ForkBoots {
		arrivalBoot, arrivalBootKind = cfg.Costs.ForkBoot, trace.SegForkBoot
	}
	s := &des.Sim{}
	res := &Result{}
	nodes := make([]*refNode, cfg.Nodes)
	for i := range nodes {
		nodes[i] = &refNode{id: i + 1, slots: cfg.SlotsPerNode, queueLimit: cfg.QueueLimit}
		nodes[i].stat.Node = i + 1
	}
	demandRng := des.NewRand(cfg.Seed)
	evictRng := des.NewRand(cfg.Seed ^ 0xe51c7e51c7)
	view := make([]Pressure, cfg.Nodes)
	refreshView := func() []Pressure {
		for i, n := range nodes {
			view[i] = n.pressure()
		}
		return view
	}
	rec := cfg.Requests
	emitTimed := func(id trace.RequestID, kind string, at, dur clock.Time, node int) {
		if dur > 0 {
			rec.Emit(id, kind, at, dur, node, "")
		}
	}

	var start func(n *refNode, inst *refInstance, now clock.Time)
	var place func(inst *refInstance, now clock.Time)
	finish := func(n *refNode, inst *refInstance, gen int) func(now clock.Time) {
		return func(now clock.Time) {
			if inst.gen != gen {
				return
			}
			for i, r := range n.running {
				if r == inst {
					n.running = append(n.running[:i], n.running[i+1:]...)
					break
				}
			}
			res.Completed++
			res.Latencies = append(res.Latencies, now-inst.arrivedAt)
			emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, n.id)
			emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, now-(inst.startedAt+inst.boot), n.id)
			rec.Emit(inst.id, trace.SegComplete, now, 0, n.id, "")
			if cfg.Observe != nil {
				cfg.Observe.Completed(now, n.id, inst.id, now-inst.arrivedAt)
			}
			if len(n.queue) > 0 {
				next := n.queue[0]
				n.queue = n.queue[1:]
				res.TotalQueueWait += now - next.enqueuedAt
				emitTimed(next.id, trace.SegQueue, next.enqueuedAt, now-next.enqueuedAt, n.id)
				start(n, next, now)
			}
		}
	}
	start = func(n *refNode, inst *refInstance, now clock.Time) {
		inst.startedAt = now
		n.running = append(n.running, inst)
		n.stat.Starts++
		n.stat.Requests += inst.reqs
		s.After(inst.boot+inst.demand, finish(n, inst, inst.gen))
	}
	place = func(inst *refInstance, now clock.Time) {
		id, ok := refPlace(cfg.Sched, refreshView())
		if !ok {
			res.Rejected++
			rec.Emit(inst.id, trace.SegReject, now, 0, 0, "")
			if cfg.Observe != nil {
				cfg.Observe.Rejected(now)
			}
			return
		}
		n := nodes[id-1]
		if len(n.running) < n.slots {
			rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "started")
			start(n, inst, now)
			return
		}
		rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "queued")
		inst.enqueuedAt = now
		n.queue = append(n.queue, inst)
		n.stat.MaxQueue = max(n.stat.MaxQueue, len(n.queue))
		res.MaxQueue = max(res.MaxQueue, len(n.queue))
	}

	for a, ok := cfg.Arrivals.Next(); ok && a.At < cfg.Horizon; a, ok = cfg.Arrivals.Next() {
		reqs := min(1+int(demandRng.ExpFloat64()*float64(cfg.MeanReqs)), 8*cfg.MeanReqs)
		id := a.ID
		if id == 0 {
			id = trace.MintRequestID(cfg.Seed, a.Seq)
		}
		inst := &refInstance{id: id, arrivedAt: a.At, boot: arrivalBoot,
			demand: clock.Time(reqs) * cfg.Costs.Service, reqs: reqs, bootKind: arrivalBootKind}
		s.At(a.At, func(now clock.Time) {
			res.Arrived++
			rec.Emit(inst.id, trace.SegArrival, now, 0, 0, "")
			if cfg.Observe != nil {
				cfg.Observe.Arrival(now)
			}
			place(inst, now)
		})
	}

	if cfg.EvictAt > 0 && cfg.EvictNodes > 0 {
		var victims []int
		taken := map[int]bool{}
		for len(victims) < cfg.EvictNodes && len(victims) < cfg.Nodes {
			id := 1 + int(evictRng.Uint64()%uint64(cfg.Nodes))
			if !taken[id] {
				taken[id] = true
				victims = append(victims, id)
			}
		}
		sort.Ints(victims)
		s.At(cfg.EvictAt, func(now clock.Time) {
			for _, id := range victims {
				n := nodes[id-1]
				n.down = true
				n.stat.Crashed = true
				displaced := append(append([]*refInstance(nil), n.running...), n.queue...)
				running := len(n.running)
				n.running, n.queue = nil, nil
				for i, inst := range displaced {
					n.stat.Evicted++
					res.Evicted++
					outcome := EvictRequeued
					if i < running {
						elapsed := now - inst.startedAt
						ran := max(elapsed-inst.boot, 0)
						if elapsed >= cfg.SnapshotAge && cfg.Costs.WarmRestore > 0 {
							res.WarmRestores++
							outcome = EvictWarm
							if elapsed < inst.boot {
								emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
							} else {
								emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, id)
								preserved := ran
								if ran >= inst.demand {
									preserved = max(inst.demand-cfg.Costs.Service, 0)
								}
								emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, preserved, id)
								emitTimed(inst.id, trace.SegStormRedo, inst.startedAt+inst.boot+preserved, ran-preserved, id)
							}
							inst.boot, inst.bootKind = cfg.Costs.WarmRestore, trace.SegWarmRestore
							if ran < inst.demand {
								inst.demand -= ran
							} else {
								inst.demand = cfg.Costs.Service
							}
						} else {
							res.ColdRedos++
							outcome = EvictCold
							emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
							inst.boot, inst.bootKind = arrivalBoot, arrivalBootKind
							inst.demand = clock.Time(inst.reqs) * cfg.Costs.Service
						}
						inst.gen++
					} else {
						emitTimed(inst.id, trace.SegQueue, inst.enqueuedAt, now-inst.enqueuedAt, id)
					}
					rec.Emit(inst.id, trace.SegEvict, now, 0, id, outcome.String())
					if cfg.Observe != nil {
						cfg.Observe.Evicted(now, id, outcome)
					}
					place(inst, now)
				}
			}
		})
		if cfg.DownFor > 0 {
			s.At(cfg.EvictAt+cfg.DownFor, func(clock.Time) {
				for _, id := range victims {
					nodes[id-1].down = false
				}
			})
		}
	}
	if cfg.Observe != nil && cfg.ScrapeEvery > 0 {
		for t := cfg.ScrapeEvery; t <= cfg.Horizon; t += cfg.ScrapeEvery {
			s.At(t, func(now clock.Time) { cfg.Observe.Scrape(now, refreshView()) })
		}
	}
	s.Run(cfg.Horizon)

	for _, n := range nodes {
		res.QueuedAtHorizon += len(n.queue)
		res.RunningAtHorizon += len(n.running)
		res.Nodes = append(res.Nodes, n.stat)
	}
	return res, res.Conserve()
}

// call is one observer callback; view is a copy of a scrape's view.
type call struct {
	hook    string
	now     clock.Time
	node    int
	id      trace.RequestID
	lat     clock.Time
	outcome EvictOutcome
	view    []Pressure
}

// callLog is an Observer that records every callback in order.
type callLog struct{ calls []call }

func (l *callLog) Arrival(now clock.Time) { l.calls = append(l.calls, call{hook: "arrival", now: now}) }
func (l *callLog) Completed(now clock.Time, node int, id trace.RequestID, lat clock.Time) {
	l.calls = append(l.calls, call{hook: "completed", now: now, node: node, id: id, lat: lat})
}
func (l *callLog) Rejected(now clock.Time) {
	l.calls = append(l.calls, call{hook: "rejected", now: now})
}
func (l *callLog) Evicted(now clock.Time, node int, outcome EvictOutcome) {
	l.calls = append(l.calls, call{hook: "evicted", now: now, node: node, outcome: outcome})
}
func (l *callLog) Scrape(now clock.Time, view []Pressure) {
	l.calls = append(l.calls, call{hook: "scrape", now: now, view: slices.Clone(view)})
}

// randomConfig draws a fleet config from seed; the same seed draws the
// same config with fresh observers and a fresh arrival source. Every
// time in it (arrivals, costs, storm, scrapes, horizon) is a multiple
// of one 10µs tick and the arrivals crowd a short window, so arrivals
// share timestamps with each other and land exactly on completions, the
// storm and scrapes. One config in four uses a Poisson stream instead.
// The observer and the recorder are each attached three times in four.
// Most fleets are small; one in eight has 65–130 nodes of 4 slots,
// queue limits of 12–20 and twenty times the traffic, so the rank index
// spans more than one word of nodes and of ranks (at least 5·13 = 65),
// and spread fleets fill up often enough to place past rank 64.
func randomConfig(seed uint64) Config {
	r := des.NewRand(seed)
	pick := func(lo, hi int) int { return lo + int(r.Uint64()%uint64(hi-lo+1)) }
	const tick = 10 * clock.Microsecond
	ticks := func(lo, hi int) clock.Time { return clock.Time(pick(lo, hi)) * tick }
	nodes, slots, queueLimit, traffic := pick(1, 12), pick(1, 4), pick(1, 6), 1
	if pick(0, 7) == 0 {
		nodes, slots, queueLimit, traffic = pick(65, 130), 4, pick(12, 20), 20
	}
	cfg := Config{
		Nodes: nodes, SlotsPerNode: slots, QueueLimit: queueLimit,
		Costs: RuntimeCosts{
			Boot: ticks(0, 3), Service: ticks(1, 3),
			WarmRestore: ticks(0, 2), ForkBoot: ticks(1, 3),
		},
		MeanReqs:    pick(1, 4),
		Seed:        seed,
		Sched:       []Scheduler{BinPack{}, Spread{}}[pick(0, 1)],
		SnapshotAge: ticks(0, 6),
		ForkBoots:   pick(0, 1) == 1,
	}
	span := pick(1, 60)
	cfg.Horizon = ticks(span/2, span+20)
	if pick(0, 3) == 0 {
		cfg.Arrivals = des.PoissonArrivals(seed, float64(traffic*pick(1, 400))*1e3, cfg.Horizon)
	} else {
		ks := make([]int, pick(0, traffic*150))
		for i := range ks {
			ks[i] = pick(0, span)
		}
		slices.Sort(ks)
		arrivals := make([]des.Arrival, len(ks))
		for i, k := range ks {
			arrivals[i] = des.Arrival{At: clock.Time(k) * tick, Seq: i}
		}
		cfg.Arrivals = des.Slice(arrivals...)
	}
	if pick(0, 2) > 0 {
		cfg.EvictAt = ticks(1, span)
		cfg.EvictNodes = pick(1, cfg.Nodes+1)
		if pick(0, 1) == 1 {
			cfg.DownFor = ticks(1, span)
		}
	}
	if pick(0, 3) > 0 {
		cfg.Observe = &callLog{}
		cfg.ScrapeEvery = ticks(1, 8)
	}
	if pick(0, 3) > 0 {
		cfg.Requests = trace.NewRequestRecorder()
	}
	return cfg
}

// TestRunMatchesReference: over random configs, Run agrees with the
// closure-per-event refRun on the Result (Latencies order and Nodes
// included), on the sequence of observer callbacks and on every
// request's segments; and every run conserves arrivals and, per
// request, latency, with exactly one terminal segment for every request
// that completed or was rejected. The generator must also hit the tie
// cases the merged arrival stream has to order: an arrival at the time
// of a completion, of the storm and of a scrape; and reach the rank
// index's second words: a start on a node past ID 64, and a placement
// whose every admittable node ranks 64 or more.
func TestRunMatchesReference(t *testing.T) {
	var onCompletion, onStorm, onScrape, wideNodes, wideRanks bool
	same := func(seed uint64) bool {
		cfg := randomConfig(seed)
		got, err := Run(cfg)
		if err != nil {
			t.Logf("seed %d: Run: %v", seed, err)
			return false
		}
		ref := randomConfig(seed)
		want, err := refRun(ref)
		if err != nil {
			t.Logf("seed %d: refRun: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: results differ:\n%+v\nvs reference\n%+v", seed, got, want)
			return false
		}
		for _, n := range got.Nodes[min(64, len(got.Nodes)):] {
			wideNodes = wideNodes || n.Starts > 0
		}
		// A spread node ranks at least SlotsPerNode·(QueueLimit+1) once
		// its slots are full, so a queued start means every admittable
		// node ranked that high.
		_, spread := cfg.Sched.(Spread)
		wideRanks = wideRanks || (spread && got.MaxQueue > 0 && cfg.SlotsPerNode*(cfg.QueueLimit+1) >= 64)
		if log, ok := cfg.Observe.(*callLog); ok {
			if refLog := ref.Observe.(*callLog); !reflect.DeepEqual(log.calls, refLog.calls) {
				t.Logf("seed %d: observer callbacks differ", seed)
				return false
			}
			arrivals := map[clock.Time]bool{}
			for _, c := range log.calls {
				switch c.hook {
				case "arrival":
					arrivals[c.now] = true
				case "completed":
					onCompletion = onCompletion || arrivals[c.now]
				case "evicted":
					onStorm = onStorm || arrivals[c.now]
				case "scrape":
					onScrape = onScrape || arrivals[c.now]
				}
			}
		}
		rec := cfg.Requests
		if rec == nil {
			return true
		}
		ids := rec.Requests()
		if !slices.Equal(ids, ref.Requests.Requests()) || len(ids) != got.Arrived {
			t.Logf("seed %d: traced requests differ from the reference or the arrivals", seed)
			return false
		}
		for _, id := range ids {
			segs := rec.Segments(id)
			if !reflect.DeepEqual(segs, ref.Requests.Segments(id)) {
				t.Logf("seed %d: request %s segments differ", seed, id)
				return false
			}
			if !segs[len(segs)-1].Terminal() {
				continue // queued or running at the horizon
			}
			if _, one := rec.TerminalOf(id); !one {
				t.Logf("seed %d: request %s has more than one terminal", seed, id)
				return false
			}
			if _, err := trace.Conserve(segs); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if !onCompletion || !onStorm || !onScrape {
		t.Fatalf("generator missed a tie: arrival on a completion %v, on the storm %v, on a scrape %v",
			onCompletion, onStorm, onScrape)
	}
	if !wideNodes || !wideRanks {
		t.Fatalf("generator missed the index's second words: a start past node 64 %v, a placement past rank 64 %v",
			wideNodes, wideRanks)
	}
}

// TestRunRejectsUnsortedArrivals: the stream below the horizon must be
// sorted by At and non-negative, and Run reports the first arrival that
// is not, also after earlier ones were placed; what lies at or past
// the horizon is never read.
func TestRunRejectsUnsortedArrivals(t *testing.T) {
	us := func(n, seq int) des.Arrival { return des.Arrival{At: clock.Time(n) * clock.Microsecond, Seq: seq} }
	for _, tc := range []struct {
		name     string
		arrivals []des.Arrival
		horizon  clock.Time
		err      string // "" when the run must succeed
	}{
		{"out of order", []des.Arrival{us(200, 0), us(100, 1)}, clock.Millisecond,
			"fleet: arrival 1 at 100.00µs: arrivals must be non-negative and sorted by At"},
		{"disorder past the horizon", []des.Arrival{us(200, 0), us(100, 1)}, 150 * clock.Microsecond, ""},
		{"negative", []des.Arrival{us(-5, 0), us(100, 1)}, clock.Millisecond,
			"fleet: arrival 0 at -5000ns: arrivals must be non-negative and sorted by At"},
		{"disorder after placements", []des.Arrival{us(100, 0), us(200, 1), us(300, 2), us(600, 3), us(250, 4)}, clock.Millisecond,
			"fleet: arrival 4 at 250.00µs: arrivals must be non-negative and sorted by At"},
		{"sorted with ties", []des.Arrival{us(100, 0), us(100, 1), us(300, 2)}, clock.Millisecond, ""},
	} {
		cfg := Config{
			Nodes: 2, SlotsPerNode: 1, Costs: testCosts(), Sched: Spread{},
			Horizon: tc.horizon, Arrivals: des.Slice(tc.arrivals...),
		}
		_, err := Run(cfg)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
	}
}

// allocConfig is a fleet of nodes x 4 slots with a storm at half the
// horizon that takes a tenth of the nodes down, driven at about 1.05x
// its ~5.7k/s-per-node capacity for about n streamed Poisson arrivals,
// so node queues fill and drain all run long.
func allocConfig(nodes, n int, sched Scheduler) Config {
	rate := 6_000 * float64(nodes)
	h := clock.Time(float64(n) / rate * float64(clock.Second))
	return Config{
		Nodes: nodes, SlotsPerNode: 4, QueueLimit: 16,
		Costs: testCosts(), MeanReqs: 8,
		Arrivals: des.PoissonArrivals(5, rate, h),
		Horizon:  h, Seed: 5, Sched: sched,
		SnapshotAge: 100 * clock.Microsecond,
		EvictAt:     h / 2, EvictNodes: nodes / 10, DownFor: h / 8,
	}
}

// latencyGrowths is how many allocations appending n latencies one by
// one to a nil slice costs, as Run fills Result.Latencies.
func latencyGrowths(n int) int {
	var lats []clock.Time
	growths := 0
	for i := 0; i < n; i++ {
		if len(lats) == cap(lats) {
			growths++
		}
		lats = append(lats, 0)
	}
	return growths
}

// TestRunAllocs: Run allocates per run, not per arrival or start: its
// instance slab, rank index, node queues and event queue are sized from
// the fleet, and arrivals are streamed. Apart from the growth of
// Result.Latencies, the run's own output, 20k arrivals cost exactly as
// many allocations as 2k, and fewer than 100, under either scheduler.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates inside AllocsPerRun")
	}
	// A GC cycle inside the measured window can add a runtime
	// allocation of its own; with GC off only Run's allocations count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, sched := range []Scheduler{BinPack{}, Spread{}} {
		var fixed [2]float64
		for k, n := range []int{2_000, 20_000} {
			var res *Result
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if res, err = Run(allocConfig(50, n, sched)); err != nil {
					t.Fatal(err)
				}
			})
			fixed[k] = allocs - float64(latencyGrowths(res.Completed))
			t.Logf("%s, %d arrivals: %.0f allocs/run, %.0f besides Latencies", sched.Name(), res.Arrived, allocs, fixed[k])
		}
		if fixed[0] != fixed[1] || fixed[1] >= 100 {
			t.Errorf("%s: %.0f allocs besides Latencies for ~2k arrivals, %.0f for ~20k; want equal and < 100",
				sched.Name(), fixed[0], fixed[1])
		}
	}
}
