package fleet

import (
	"fmt"
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
	// parsed rate trace); Horizon closes the measurement window.
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
// The Pressure slice passed to Scrape is reused between calls; copy it
// to retain. (internal/telemetry.FleetProbe is the canonical
// implementation — fleet deliberately does not import it.)
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
		r.sorted = append([]clock.Time(nil), r.Latencies...)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
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
	// arrivalBoot is how a fresh instance (an arrival, or a storm
	// cold-redo) comes up in this run's arrival mode.
	arrivalBoot, arrivalBootKind := cfg.Costs.Boot, trace.SegBoot
	if cfg.ForkBoots {
		arrivalBoot, arrivalBootKind = cfg.Costs.ForkBoot, trace.SegForkBoot
	}

	s := &des.Sim{}
	res := &Result{}
	// Node IDs are 1-based, matching container IDs: ID 0 means "no
	// node" everywhere a node label can be absent (spans, metrics).
	nodes := make([]*SimNode, cfg.Nodes)
	for i := range nodes {
		nodes[i] = NewSimNode(i+1, cfg.SlotsPerNode, cfg.QueueLimit)
	}
	// The demand stream and the eviction choice draw from separate
	// seeded generators, so adding an eviction never perturbs the
	// per-container demands.
	demandRng := des.NewRand(cfg.Seed)
	evictRng := des.NewRand(cfg.Seed ^ 0xe51c7e51c7)

	view := make([]Pressure, cfg.Nodes)
	refreshView := func() []Pressure {
		for i, n := range nodes {
			view[i] = n.Pressure()
		}
		return view
	}

	// rec is the request-trace sink; a nil *RequestRecorder is a valid
	// no-op, so every emission below is unconditional. Timed segments
	// (queue, boot, service, redo) are emitted retrospectively once
	// their end is known; emitTimed skips empty intervals so waterfalls
	// stay clean without breaking the tiling the conservation law checks.
	rec := cfg.Requests
	emitTimed := func(id trace.RequestID, kind string, at, dur clock.Time, node int) {
		if dur > 0 {
			rec.Emit(id, kind, at, dur, node, "")
		}
	}

	var start func(n *SimNode, inst *instance, now clock.Time)
	var place func(inst *instance, now clock.Time)

	finish := func(n *SimNode, inst *instance, gen int) func(now clock.Time) {
		return func(now clock.Time) {
			if inst.gen != gen {
				return // superseded by an eviction requeue
			}
			n.removeRunning(inst)
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

	start = func(n *SimNode, inst *instance, now clock.Time) {
		inst.node = n.id
		inst.startedAt = now
		n.running = append(n.running, inst)
		n.Starts++
		n.Requests += inst.reqs
		s.After(inst.boot+inst.demand, finish(n, inst, inst.gen))
	}

	place = func(inst *instance, now clock.Time) {
		id, ok := cfg.Sched.Place(refreshView())
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
		if len(n.queue) > n.MaxQueue {
			n.MaxQueue = len(n.queue)
		}
		if len(n.queue) > res.MaxQueue {
			res.MaxQueue = len(n.queue)
		}
	}

	// At the start every arrival, scrape and storm event is pending;
	// reserve for those plus a completion per slot.
	scrapes := 0
	if cfg.Observe != nil && cfg.ScrapeEvery > 0 {
		scrapes = int(cfg.Horizon / cfg.ScrapeEvery)
	}
	s.Grow(len(cfg.Arrivals) + scrapes + 2 + cfg.Nodes*cfg.SlotsPerNode)

	// Schedule the arrival stream. Demands are drawn in arrival order
	// at generation time, keeping the stream independent of placement.
	for _, a := range cfg.Arrivals {
		if a.At >= cfg.Horizon {
			break
		}
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
		inst := &instance{
			seq:       a.Seq,
			id:        id,
			arrivedAt: a.At,
			boot:      arrivalBoot,
			demand:    clock.Time(reqs) * cfg.Costs.Service,
			reqs:      reqs,
			bootKind:  arrivalBootKind,
		}
		s.At(a.At, func(now clock.Time) {
			res.Arrived++
			rec.Emit(inst.id, trace.SegArrival, now, 0, 0, "")
			if cfg.Observe != nil {
				cfg.Observe.Arrival(now)
			}
			place(inst, now)
		})
	}

	// The eviction storm: EvictNodes seeded-chosen nodes go down at
	// EvictAt; every container on them re-enters the scheduler at
	// once. Snapshot-aged containers restore warm (remaining demand
	// preserved, WarmRestore boot); young ones redo from scratch.
	if cfg.EvictAt > 0 && cfg.EvictNodes > 0 {
		victims := make([]int, 0, cfg.EvictNodes)
		taken := make(map[int]bool, cfg.EvictNodes)
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
				n.Crashed = true
				displaced := append(append([]*instance(nil), n.running...), n.queue...)
				running := len(n.running)
				n.running = n.running[:0]
				n.queue = n.queue[:0]
				for i, inst := range displaced {
					inst.restarts++
					n.Evicted++
					res.Evicted++
					outcome := EvictRequeued
					if i < running {
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
								// Displaced mid-boot: the partial boot
								// is wasted (the restore replaces it).
								emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
							} else {
								// The finished boot and the service the
								// snapshot preserves counted toward
								// completion; only work past the
								// preservation point is redone.
								emitTimed(inst.id, inst.bootKind, inst.startedAt, inst.boot, id)
								preserved := ran
								if ran >= inst.demand {
									preserved = inst.demand - cfg.Costs.Service // final request redone
									if preserved < 0 {
										preserved = 0
									}
								}
								emitTimed(inst.id, trace.SegService, inst.startedAt+inst.boot, preserved, id)
								emitTimed(inst.id, trace.SegStormRedo, inst.startedAt+inst.boot+preserved, ran-preserved, id)
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
							// Redone from scratch: everything since the
							// start — boot included — is storm tax.
							emitTimed(inst.id, trace.SegStormRedo, inst.startedAt, elapsed, id)
							inst.boot = arrivalBoot
							inst.bootKind = arrivalBootKind
							inst.demand = clock.Time(inst.reqs) * cfg.Costs.Service
						}
						inst.gen++ // poison the in-flight completion
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
			s.At(cfg.EvictAt+cfg.DownFor, func(now clock.Time) {
				for _, id := range victims {
					nodes[id-1].down = false
				}
			})
		}
	}

	// Telemetry scrape points. Scheduled after arrivals and the storm,
	// so at an equal timestamp a scrape samples the state those events
	// left behind; the hooks are pure, so this changes nothing measured.
	if cfg.Observe != nil && cfg.ScrapeEvery > 0 {
		for t := cfg.ScrapeEvery; t <= cfg.Horizon; t += cfg.ScrapeEvery {
			s.At(t, func(now clock.Time) {
				cfg.Observe.Scrape(now, refreshView())
			})
		}
	}

	s.Run(cfg.Horizon)

	for _, n := range nodes {
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
