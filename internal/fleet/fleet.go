package fleet

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/trace"
)

// RuntimeCosts are the per-runtime machine truths the control plane
// schedules around, measured (not assumed) by booting real containers
// in the calibration pass: what a cold boot costs, what one request
// costs, and what a warm restore from a snapshot costs.
type RuntimeCosts struct {
	Boot        clock.Time
	Service     clock.Time
	WarmRestore clock.Time
	// ForkBoot is the cost of instantiating from a shared snapshot via
	// the fork-from-snapshot fast path (COW page sharing); used when
	// Config.ForkBoots selects the serverless churn arrival mode.
	ForkBoot clock.Time
}

// Config describes one fleet run.
type Config struct {
	// Nodes is the fleet size; SlotsPerNode is each node's concurrent
	// container capacity; QueueLimit bounds each node's start queue
	// (the admission-control knob: a placement that finds every
	// admittable queue full is rejected, which is the backpressure
	// signal under overload).
	Nodes        int
	SlotsPerNode int
	QueueLimit   int
	// Costs is the runtime's calibrated cost model.
	Costs RuntimeCosts
	// MeanReqs is the mean request count per container; per-container
	// demand is an exponential draw around it (seeded, deterministic).
	MeanReqs int
	// Arrivals is the open-loop arrival stream (Poisson, diurnal, or a
	// parsed rate trace), sorted by At; Horizon closes the measurement
	// window. Every des generator emits a sorted stream. Run merges the
	// stream into its event queue instead of scheduling it, so it
	// returns an error when the part below Horizon is unsorted or holds
	// a negative At; arrivals at or past Horizon are ignored.
	Arrivals []des.Arrival
	Horizon  clock.Time
	// Seed drives the demand draws and the eviction choice.
	Seed uint64
	// Sched is the placement policy.
	Sched Scheduler
	// SnapshotAge: a running container older than this has a snapshot
	// and survives eviction warm (remaining demand preserved, restart
	// pays WarmRestore); younger ones restart cold from scratch.
	SnapshotAge clock.Time
	// EvictAt, when > 0, takes EvictNodes nodes down at that time for
	// DownFor — the restart storm: every running and queued container
	// on them re-enters the scheduler at once.
	EvictAt    clock.Time
	EvictNodes int
	DownFor    clock.Time
	// ForkBoots selects the serverless churn arrival mode: every
	// arrival instantiates by forking a node-resident snapshot
	// (Costs.ForkBoot, traced as a fork_boot segment) instead of cold
	// booting. Storm cold-redos re-fork too — losing a forked instance
	// never resurrects the cold-boot cost it avoided.
	ForkBoots bool
	// Observe, when non-nil, sees control-plane events as they happen
	// in virtual time; ScrapeEvery, when > 0, additionally invokes
	// Observe.Scrape with the node pressure view at every multiple of
	// that interval up to the horizon. Pure observation: attaching an
	// observer never changes the Result (a test pins this).
	Observe     Observer
	ScrapeEvery clock.Time
	// Requests, when non-nil, records every request's lifecycle as
	// causal virtual-time segments (arrival, queue, placement, boot or
	// warm restore, service, storm redo, terminal) keyed by the
	// RequestID minted at the arrival source. Like Observe it is pure:
	// attaching a recorder never changes the Result, and a nil recorder
	// costs nothing (a test pins both).
	Requests *trace.RequestRecorder
}

// EvictOutcome classifies how a displaced container instance re-enters
// the fleet during an eviction storm.
type EvictOutcome int

const (
	// EvictWarm: it was running with a snapshot old enough to restore
	// from — progress preserved, WarmRestore boot.
	EvictWarm EvictOutcome = iota
	// EvictCold: it was running but too young to have a snapshot — all
	// progress redone from scratch.
	EvictCold
	// EvictRequeued: it was still queued, so it just re-enters the
	// scheduler with nothing lost.
	EvictRequeued
)

var evictOutcomeNames = [...]string{"warm", "cold", "requeued"}

func (o EvictOutcome) String() string {
	if int(o) < len(evictOutcomeNames) {
		return evictOutcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Observer receives control-plane events as the fleet run executes.
// Implementations must be pure observers: they run on the fleet's
// virtual timeline but may not mutate fleet state or advance any
// clock, so the Result is byte-identical with or without one attached.
// The Pressure slice passed to Scrape is the scheduler's live view:
// never modify it, and copy it to retain. (internal/telemetry.FleetProbe
// is the canonical implementation — fleet deliberately does not import
// it.)
type Observer interface {
	// Arrival: one open-loop arrival entered the system.
	Arrival(now clock.Time)
	// Completed: a container on node finished its demand; latency is
	// arrival to completion; id is the request's tracing identity (for
	// histogram exemplars linking buckets back to concrete traces).
	Completed(now clock.Time, node int, id trace.RequestID, latency clock.Time)
	// Rejected: admission control turned an arrival away.
	Rejected(now clock.Time)
	// Evicted: a storm displaced one container instance from node.
	Evicted(now clock.Time, node int, outcome EvictOutcome)
	// Scrape: the periodic telemetry sample point (every
	// Config.ScrapeEvery of virtual time).
	Scrape(now clock.Time, nodes []Pressure)
}

// NodeStat is one node's control-plane accounting.
type NodeStat struct {
	Node     int  `json:"node"`
	Starts   int  `json:"starts"`
	Requests int  `json:"requests"`
	Evicted  int  `json:"evicted"`
	MaxQueue int  `json:"max_queue"`
	Crashed  bool `json:"crashed,omitempty"`
}

// Result is the fleet run's outcome. Every arrival is exactly one of
// completed, rejected, queued, or running at the horizon — Conserve
// checks the law.
type Result struct {
	Arrived          int
	Completed        int
	Rejected         int
	QueuedAtHorizon  int
	RunningAtHorizon int
	// Evicted counts container instances displaced by a node going
	// down; WarmRestores of them resumed from a snapshot, ColdRedos
	// lost their progress.
	Evicted      int
	WarmRestores int
	ColdRedos    int
	// MaxQueue is the deepest any node's queue got.
	MaxQueue int
	// TotalQueueWait sums time spent queued before starting.
	TotalQueueWait clock.Time
	// Latencies holds one arrival-to-completion latency per completed
	// container, in completion order.
	Latencies []clock.Time
	Nodes     []NodeStat

	sorted []clock.Time
}

// Conserve verifies arrival conservation and returns an error naming
// the leak if the books don't balance.
func (r *Result) Conserve() error {
	got := r.Completed + r.Rejected + r.QueuedAtHorizon + r.RunningAtHorizon
	if got != r.Arrived {
		return fmt.Errorf("fleet: conservation broken: %d arrived, %d accounted (%d completed + %d rejected + %d queued + %d running)",
			r.Arrived, got, r.Completed, r.Rejected, r.QueuedAtHorizon, r.RunningAtHorizon)
	}
	return nil
}

// Quantile returns the q-th latency quantile (0 < q <= 1) over
// completed containers, 0 when nothing completed. Exact: computed from
// the full sorted sample, not an approximation sketch.
func (r *Result) Quantile(q float64) clock.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	if r.sorted == nil {
		r.sorted = slices.Clone(r.Latencies)
		slices.Sort(r.sorted)
	}
	idx := int(q*float64(len(r.sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.sorted) {
		idx = len(r.sorted) - 1
	}
	return r.sorted[idx]
}

// MeanLatency is the mean arrival-to-completion latency.
func (r *Result) MeanLatency() clock.Time {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum clock.Time
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / clock.Time(len(r.Latencies))
}

// Goodput is completions per virtual second over the horizon.
func (r *Result) Goodput(horizon clock.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.Completed) / horizon.Seconds()
}

// Run executes the fleet control-plane simulation: open-loop arrivals
// are placed by the scheduler over the node pressure view, queue on
// their node until a slot frees, run for boot + demand, and complete.
// Everything is a pure function of the config, so the same config
// yields the same Result — byte for byte — regardless of host
// parallelism (the run touches no shared state).
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes <= 0 || cfg.SlotsPerNode <= 0 {
		return nil, fmt.Errorf("fleet: need nodes and slots, got %d x %d", cfg.Nodes, cfg.SlotsPerNode)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("fleet: no scheduler")
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 16
	}
	if cfg.MeanReqs <= 0 {
		cfg.MeanReqs = 8
	}
	if cfg.Costs.Service <= 0 {
		return nil, fmt.Errorf("fleet: non-positive service cost")
	}
	if cfg.ForkBoots && cfg.Costs.ForkBoot <= 0 {
		return nil, fmt.Errorf("fleet: churn mode needs a positive fork-boot cost")
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	r.loop()
	return r.result()
}

// evKind is what a queued control-plane event does.
type evKind uint8

const (
	evFinish    evKind = iota // an instance's completion, stale if its gen moved on
	evStormDown               // the eviction storm takes its victims down
	evStormUp                 // the victims come back
	evScrape                  // a telemetry sample point
)

// event is the pointer-free payload of the control plane's event queue:
// a kind plus, for evFinish, the instance's slab index and the
// generation its completion was scheduled under.
type event struct {
	kind evKind
	inst int32
	gen  int32
}

// run is one Run's state. Arrivals never enter the event queue: they
// are already sorted by time, so loop merges them in, and an arrival
// fires before any queued event at the same time.
type run struct {
	cfg *Config
	rec *trace.RequestRecorder
	res *Result
	q   des.Queue[event]
	// insts holds one instance per arrival below the horizon, in stream
	// order.
	insts []instance
	// nodes[i] is node i+1; view[i] is its Pressure, written back by
	// sync after every change to the node.
	nodes []SimNode
	view  []Pressure
	// arrivalBoot is how a fresh instance (an arrival, or a storm
	// cold-redo) comes up in this run's arrival mode.
	arrivalBoot     clock.Time
	arrivalBootKind string
	// victims are the storm's node IDs; displaced is the storm's scratch
	// list of the instances one victim held.
	victims   []int
	displaced []int32
}

// newRun builds the instance slab, the nodes and the initial event
// queue, drawing every arrival's demand in stream order so the demand
// stream stays independent of placement.
func newRun(cfg Config) (*run, error) {
	n := 0
	for i, a := range cfg.Arrivals {
		if a.At >= cfg.Horizon {
			break
		}
		if a.At < 0 || (i > 0 && a.At < cfg.Arrivals[i-1].At) {
			return nil, fmt.Errorf("fleet: arrival %d at %v: arrivals must be non-negative and sorted by At", i, a.At)
		}
		n++
	}
	r := &run{
		cfg:             &cfg,
		rec:             cfg.Requests,
		res:             &Result{},
		insts:           make([]instance, n),
		nodes:           make([]SimNode, cfg.Nodes),
		view:            make([]Pressure, cfg.Nodes),
		arrivalBoot:     cfg.Costs.Boot,
		arrivalBootKind: trace.SegBoot,
	}
	if cfg.ForkBoots {
		r.arrivalBoot, r.arrivalBootKind = cfg.Costs.ForkBoot, trace.SegForkBoot
	}
	// Node IDs are 1-based, matching container IDs: ID 0 means "no
	// node" everywhere a node label can be absent (spans, metrics).
	per := cfg.SlotsPerNode + cfg.QueueLimit
	backing := make([]int32, cfg.Nodes*per)
	for i := range r.nodes {
		nd := &r.nodes[i]
		*nd = SimNode{id: i + 1, slots: cfg.SlotsPerNode, queueLimit: cfg.QueueLimit}
		b := backing[i*per : (i+1)*per : (i+1)*per]
		nd.running = b[:0:cfg.SlotsPerNode]
		nd.queue = b[cfg.SlotsPerNode:cfg.SlotsPerNode]
		r.sync(nd)
	}

	// The demand stream and the eviction choice draw from separate
	// seeded generators, so adding an eviction never perturbs the
	// per-container demands.
	demandRng := des.NewRand(cfg.Seed)
	for i := range r.insts {
		a := cfg.Arrivals[i]
		reqs := 1 + int(demandRng.ExpFloat64()*float64(cfg.MeanReqs))
		if max := 8 * cfg.MeanReqs; reqs > max {
			reqs = max
		}
		id := a.ID
		if id == 0 {
			// Hand-built arrival streams (tests, closed fixtures) carry
			// no minted ID; derive the same stable identity they would
			// have gotten at the source.
			id = trace.MintRequestID(cfg.Seed, a.Seq)
		}
		r.insts[i] = instance{
			id:        id,
			arrivedAt: a.At,
			boot:      r.arrivalBoot,
			demand:    clock.Time(reqs) * cfg.Costs.Service,
			reqs:      reqs,
			bootKind:  r.arrivalBootKind,
		}
	}

	// Pending at once: the storm's two events, every scrape, a
	// completion per slot, and the stale completions a storm leaves
	// behind (at most one per victim slot).
	scrapes, victims := 0, 0
	if cfg.Observe != nil && cfg.ScrapeEvery > 0 {
		scrapes = max(int(cfg.Horizon/cfg.ScrapeEvery), 0)
	}
	storm := cfg.EvictAt > 0 && cfg.EvictNodes > 0
	if storm {
		victims = min(cfg.EvictNodes, cfg.Nodes)
	}
	r.q.Grow(2 + scrapes + (cfg.Nodes+victims)*cfg.SlotsPerNode)

	// The eviction storm: EvictNodes seeded-chosen nodes go down at
	// EvictAt; every container on them re-enters the scheduler at
	// once. Queued in the order the closure-per-event core scheduled
	// them, so equal-time events keep their order: storm, then scrapes,
	// then completions.
	if storm {
		evictRng := des.NewRand(cfg.Seed ^ 0xe51c7e51c7)
		r.victims = make([]int, 0, victims)
		taken := make(map[int]bool, victims)
		for len(r.victims) < victims {
			id := 1 + int(evictRng.Uint64()%uint64(cfg.Nodes))
			if !taken[id] {
				taken[id] = true
				r.victims = append(r.victims, id)
			}
		}
		sort.Ints(r.victims)
		r.q.At(cfg.EvictAt, event{kind: evStormDown})
		if cfg.DownFor > 0 {
			r.q.At(cfg.EvictAt+cfg.DownFor, event{kind: evStormUp})
		}
	}
	// Telemetry scrape points: at an equal timestamp a scrape samples
	// the state arrivals and the storm left behind; the hooks are pure,
	// so this changes nothing measured.
	if scrapes > 0 {
		for t := cfg.ScrapeEvery; t <= cfg.Horizon; t += cfg.ScrapeEvery {
			r.q.At(t, event{kind: evScrape})
		}
	}
	return r, nil
}

// loop runs the simulation to the horizon, merging the sorted arrival
// stream with the queued events.
func (r *run) loop() {
	next := 0
	for {
		if next < len(r.insts) {
			at, ok := r.q.Peek()
			if a := r.insts[next].arrivedAt; !ok || a <= at {
				r.arrive(int32(next), a)
				next++
				continue
			}
		}
		e, ok := r.q.Next(r.cfg.Horizon)
		if !ok {
			return
		}
		now := r.q.Now()
		switch e.kind {
		case evFinish:
			r.finish(e.inst, e.gen, now)
		case evStormDown:
			r.stormDown(now)
		case evStormUp:
			for _, id := range r.victims {
				n := &r.nodes[id-1]
				n.down = false
				r.sync(n)
			}
		case evScrape:
			r.cfg.Observe.Scrape(now, r.view)
		}
	}
}

// sync writes node n's pressure back into the scheduler's view.
func (r *run) sync(n *SimNode) { r.view[n.id-1] = n.Pressure() }

// emitTimed emits a timed segment (queue, boot, service, redo)
// retrospectively, once its end is known, and skips empty intervals so
// waterfalls stay clean without breaking the tiling the conservation
// law checks. A nil recorder is a valid no-op, so every emission is
// unconditional.
func (r *run) emitTimed(id trace.RequestID, kind string, at, dur clock.Time, node int) {
	if dur > 0 {
		r.rec.Emit(id, kind, at, dur, node, "")
	}
}

// arrive admits arrival i into the system.
func (r *run) arrive(i int32, now clock.Time) {
	r.res.Arrived++
	r.rec.Emit(r.insts[i].id, trace.SegArrival, now, 0, 0, "")
	if r.cfg.Observe != nil {
		r.cfg.Observe.Arrival(now)
	}
	r.place(i, now)
}

// place puts instance i on the node the scheduler picks: running if a
// slot is free, queued otherwise, rejected if no node admits it.
func (r *run) place(i int32, now clock.Time) {
	inst := &r.insts[i]
	id, ok := r.cfg.Sched.Place(r.view)
	if !ok {
		r.res.Rejected++
		r.rec.Emit(inst.id, trace.SegReject, now, 0, 0, "")
		if r.cfg.Observe != nil {
			r.cfg.Observe.Rejected(now)
		}
		return
	}
	n := &r.nodes[id-1]
	if len(n.running) < n.slots {
		r.rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "started")
		r.start(n, i, now)
		return
	}
	r.rec.Emit(inst.id, trace.SegPlacement, now, 0, n.id, "queued")
	inst.enqueuedAt = now
	n.queue = append(n.queue, i)
	r.sync(n)
	if len(n.queue) > n.MaxQueue {
		n.MaxQueue = len(n.queue)
	}
	if len(n.queue) > r.res.MaxQueue {
		r.res.MaxQueue = len(n.queue)
	}
}

// start runs instance i on node n and schedules its completion.
func (r *run) start(n *SimNode, i int32, now clock.Time) {
	inst := &r.insts[i]
	inst.node = n.id
	inst.startedAt = now
	n.running = append(n.running, i)
	r.sync(n)
	n.Starts++
	n.Requests += inst.reqs
	r.q.At(now+inst.boot+inst.demand, event{kind: evFinish, inst: i, gen: inst.gen})
}

// finish completes instance i unless an eviction superseded the
// completion, then starts the head of its node's queue.
func (r *run) finish(i, gen int32, now clock.Time) {
	inst := &r.insts[i]
	if inst.gen != gen {
		return // superseded by an eviction requeue
	}
	n := &r.nodes[inst.node-1]
	n.removeRunning(i)
	r.sync(n)
	r.res.Completed++
	r.res.Latencies = append(r.res.Latencies, now-inst.arrivedAt)
	r.emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, n.id)
	r.emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, now-(inst.startedAt+inst.boot), n.id)
	r.rec.Emit(inst.id, trace.SegComplete, now, 0, n.id, "")
	if r.cfg.Observe != nil {
		r.cfg.Observe.Completed(now, n.id, inst.id, now-inst.arrivedAt)
	}
	if len(n.queue) > 0 {
		next := n.popQueue()
		queued := r.insts[next].enqueuedAt
		r.res.TotalQueueWait += now - queued
		r.emitTimed(r.insts[next].id, trace.SegQueue, queued, now-queued, n.id)
		r.start(n, next, now)
	}
}

// stormDown takes every victim down and re-places what it held.
// Snapshot-aged running containers restore warm (remaining demand
// preserved, WarmRestore boot); young ones redo from scratch; queued
// ones just re-enter the scheduler.
func (r *run) stormDown(now clock.Time) {
	cfg, res := r.cfg, r.res
	for _, id := range r.victims {
		n := &r.nodes[id-1]
		n.down = true
		n.Crashed = true
		r.displaced = append(append(r.displaced[:0], n.running...), n.queue...)
		running := len(n.running)
		n.running = n.running[:0]
		n.queue = n.queue[:0]
		r.sync(n)
		for k, i := range r.displaced {
			inst := &r.insts[i]
			n.Evicted++
			res.Evicted++
			outcome := EvictRequeued
			if k < running {
				// Was running: decide warm vs cold by snapshot age.
				elapsed := now - inst.startedAt
				ran := elapsed - inst.boot
				if ran < 0 {
					ran = 0
				}
				if elapsed >= cfg.SnapshotAge && cfg.Costs.WarmRestore > 0 {
					res.WarmRestores++
					outcome = EvictWarm
					if elapsed < inst.boot {
						// Displaced mid-boot: the partial boot is
						// wasted (the restore replaces it).
						r.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
					} else {
						// The finished boot and the service the
						// snapshot preserves counted toward completion;
						// only work past the preservation point is
						// redone.
						r.emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, id)
						preserved := ran
						if ran >= inst.demand {
							preserved = inst.demand - cfg.Costs.Service // final request redone
							if preserved < 0 {
								preserved = 0
							}
						}
						r.emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, preserved, id)
						r.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt+inst.boot+preserved, ran-preserved, id)
					}
					inst.boot = cfg.Costs.WarmRestore
					inst.bootKind = trace.SegWarmRestore
					if ran < inst.demand {
						inst.demand -= ran
					} else {
						inst.demand = cfg.Costs.Service // final request redone
					}
				} else {
					res.ColdRedos++
					outcome = EvictCold
					// Redone from scratch: everything since the start —
					// boot included — is storm tax.
					r.emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
					inst.boot = r.arrivalBoot
					inst.bootKind = r.arrivalBootKind
					inst.demand = clock.Time(inst.reqs) * cfg.Costs.Service
				}
				inst.gen++ // poison the in-flight completion
			} else {
				r.emitTimed(inst.id, trace.SegQueue, inst.enqueuedAt, now-inst.enqueuedAt, id)
			}
			r.rec.Emit(inst.id, trace.SegEvict, now, 0, id, outcome.String())
			if cfg.Observe != nil {
				cfg.Observe.Evicted(now, id, outcome)
			}
			r.place(i, now)
		}
	}
}

// result tallies what is still queued or running at the horizon and
// checks conservation.
func (r *run) result() (*Result, error) {
	res := r.res
	res.Nodes = make([]NodeStat, 0, len(r.nodes))
	for i := range r.nodes {
		n := &r.nodes[i]
		res.QueuedAtHorizon += len(n.queue)
		res.RunningAtHorizon += len(n.running)
		res.Nodes = append(res.Nodes, NodeStat{
			Node: n.id, Starts: n.Starts, Requests: n.Requests,
			Evicted: n.Evicted, MaxQueue: n.MaxQueue, Crashed: n.Crashed,
		})
	}
	if err := res.Conserve(); err != nil {
		return nil, err
	}
	return res, nil
}
