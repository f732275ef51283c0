package fleet

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// The data plane: per-node machine replay. The control-plane DES
// decides who ran where; this file makes one node of that decision
// real — a backends machine hosting the node's container slots under
// the PR-1 supervisor (watchdog, capped backoff, frame reclamation)
// with PR-6 warm restarts (periodic snapshots, checksum-verified
// restore, cold fallback), serving the request volume the control
// plane assigned to the node. Every node is a fully isolated
// simulation on its own virtual clock, so nodes shard across host
// cores (bench/parallel.RunIndexed) and each node's artifacts are
// reduced to a small digest in-cell — the fleet never holds 50
// machines in memory at once.

// NodeWork is one node's replay assignment, derived from the
// control-plane NodeStat.
type NodeWork struct {
	Node int
	// Containers is how many concurrent container slots to boot;
	// Requests is the total request volume the node serves.
	Containers int
	Requests   int
	// Crashes injects that many guest-kernel panics spread across the
	// run — the machine half of the eviction storm, recovered by the
	// supervisor's warm-restart path.
	Crashes int
}

// NodeArtifact is the streamed per-node digest.
type NodeArtifact struct {
	Node       int    `json:"node"`
	Runtime    string `json:"runtime"`
	Containers int    `json:"containers"`
	Requests   int    `json:"requests"`
	// Crashes is how many injected panics the supervisor recovered;
	// warm restores came back from the last good snapshot, cold
	// restarts rebooted from scratch.
	Crashes      int `json:"crashes"`
	WarmRestores int `json:"warm_restores"`
	ColdRestarts int `json:"cold_restarts"`
	// VirtualNs is the node's clock at the end of the replay.
	VirtualNs int64 `json:"virtual_ns"`
	// MetricsFNV fingerprints the node's metrics snapshot (all series
	// carry the node label); Spans counts recorded spans, every one
	// stamped with the node ID.
	MetricsFNV uint64 `json:"metrics_fnv64a"`
	Spans      int    `json:"spans"`
}

// MachineNode wraps a real backends machine as a fleet node: the
// node's container slots are co-resident containers on one shared
// machine, supervised through crashes and restarts.
type MachineNode struct {
	id   int
	Kind backends.Kind
	Cl   *backends.Cluster
	Sup  *backends.Supervisor
}

// ID implements Node.
func (m *MachineNode) ID() int { return m.id }

// Pressure implements Node: a machine node's slots are its booted
// containers, all running (the replay drives them saturated; queueing
// happens in the control plane).
func (m *MachineNode) Pressure() Pressure {
	running := 0
	for _, c := range m.Cl.Containers {
		if !c.K.Died() {
			running++
		}
	}
	return Pressure{
		Node:    m.id,
		Slots:   len(m.Cl.Containers),
		Running: running,
	}
}

// replayRequest is one served request: map a page, touch it, retire
// it, compute — the same shape the SMP experiment's closed loop uses,
// touching the syscall, page-fault, and mediated-PTE paths.
func replayRequest(k *guest.Kernel) error {
	addr, err := k.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	if err := k.TouchRange(addr, mem.PageSize, mmu.Write); err != nil {
		return err
	}
	if err := k.MunmapCall(addr, mem.PageSize); err != nil {
		return err
	}
	k.Compute(clock.FromNanos(800))
	return nil
}

// fnv64a hashes a byte slice (per-node artifact fingerprints).
func fnv64a(data []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// NewMachineNode boots a node: a shared machine with w.Containers
// co-resident containers of the given runtime under a warm-restart
// supervisor (snapshot every healthy round, restore on death,
// checksum-verified with cold fallback).
func NewMachineNode(w NodeWork, kind backends.Kind, opts backends.Options) (*MachineNode, error) {
	cl, err := backends.NewCluster(1 << 16)
	if err != nil {
		return nil, err
	}
	// Fleet containers are small and co-resident: unless the caller
	// sized them, shrink the per-container memory footprint so a node
	// can host several without exhausting its machine.
	if opts.GuestFrames == 0 {
		opts.GuestFrames = 1 << 12
	}
	if opts.SegmentFrames == 0 {
		opts.SegmentFrames = 1 << 11
	}
	n := &MachineNode{id: w.Node, Kind: kind, Cl: cl}
	for i := 0; i < w.Containers; i++ {
		if _, err := cl.Add(kind, opts); err != nil {
			return nil, fmt.Errorf("fleet: node %d: boot container %d: %w", w.Node, i+1, err)
		}
	}
	pol := backends.DefaultRestartPolicy()
	pol.SnapshotInterval = 1
	pol.WarmRestart = true
	n.Sup = backends.NewSupervisor(cl, pol)
	return n, nil
}

// ReplayHooks are optional observation points on a node replay. All of
// it follows the zero-cost observer contract: the zero value changes
// nothing, and the hooks never advance the node's clock, so a hooked
// replay produces the same NodeArtifact as a plain one (pinned by a
// test).
type ReplayHooks struct {
	// Audit, when non-nil, records the node's machine events (the
	// recorder is attached to every container, surviving supervisor
	// restarts).
	Audit *audit.Recorder
	// OnRound, when non-nil, runs after every supervised round — the
	// flight recorder's poll point and the telemetry scrape point for
	// machine replays.
	OnRound func(ReplayRound)
}

// ReplayRound is the state handed to ReplayHooks.OnRound after each
// supervised round. Everything is live (not a copy): read, don't
// mutate.
type ReplayRound struct {
	// Round is the round index within the current supervise attempt
	// (it resets when a stalled attempt re-runs).
	Round int
	Clk   *clock.Clock
	Sup   *backends.Supervisor
	// Recorder is trimmed after every round: it retains only the spans
	// recorded since the previous OnRound, so poll it with a Len cursor
	// (SpansFrom) rather than reading Spans at the end.
	Recorder *trace.SpanRecorder
	Audit    *audit.Recorder
	Metrics  *metrics.Registry
}

// ReplayNode executes one node's assignment on a real machine and
// returns its digest. Deterministic: the node is an isolated
// simulation on its own virtual clock, so the same work yields the
// same artifact bytes on any host scheduling.
func ReplayNode(w NodeWork, kind backends.Kind, opts backends.Options) (*NodeArtifact, error) {
	return ReplayNodeHooked(w, kind, opts, ReplayHooks{})
}

// ReplayNodeHooked is ReplayNode with observation hooks attached.
func ReplayNodeHooked(w NodeWork, kind backends.Kind, opts backends.Options, hooks ReplayHooks) (*NodeArtifact, error) {
	if w.Containers <= 0 {
		w.Containers = 1
	}
	if hooks.Audit != nil {
		opts.Audit = hooks.Audit
	}
	n, err := NewMachineNode(w, kind, opts)
	if err != nil {
		return nil, err
	}
	cl := n.Cl

	// Per-node observers: every span carries the node ID, every metric
	// series the node label, so fleet-wide artifacts fold per node. The
	// supervisor carries each container's observers across restarts.
	reg := metrics.NewRegistry()
	nodeLabel := metrics.NodeLabel(w.Node)
	sr := trace.NewSpanRecorder(cl.M.Clk)
	sr.Node = w.Node
	for _, c := range cl.Containers {
		c.Attach(backends.Observers{
			Spans: sr,
			Flow: metrics.NewFlowMetrics(reg,
				metrics.L("container", metrics.IntStr(c.K.ContainerID)), nodeLabel),
			Audit: hooks.Audit,
		})
	}

	rounds := (w.Requests + w.Containers - 1) / w.Containers
	if rounds < 1 {
		rounds = 1
	}
	if w.Crashes > 0 && rounds < 2 {
		rounds = 2 // crashes fire on non-zero rounds only
	}
	// Spread the injected crashes across the run; each panics the
	// container serving that round and lets the supervisor recover it
	// from the last good snapshot.
	crashEvery := 0
	if w.Crashes > 0 {
		crashEvery = rounds / (w.Crashes + 1)
		if crashEvery < 1 {
			crashEvery = 1
		}
	}
	crashed := 0
	served := 0
	fn := func(round int, c *backends.Container) error {
		if crashEvery > 0 && crashed < w.Crashes &&
			round != 0 && round%crashEvery == 0 && c.K.ContainerID == 1 {
			crashed++
			c.K.Panic("fleet: node eviction drill")
			return guest.EKERNELDIED
		}
		if served >= w.Requests {
			return nil
		}
		if err := replayRequest(c.K); err != nil {
			return err
		}
		served++
		return nil
	}
	// Crashed containers sit out restart backoff, so a round can serve
	// fewer turns than it has slots; keep running supervised rounds
	// until the node's full assignment is served. Rounds run one
	// Supervise call at a time so OnRound fires between them —
	// Supervise's loop carries no cross-round state beyond what the
	// supervisor itself holds, so this is step-for-step identical to
	// one Supervise(rounds) call.
	for attempt := 0; served < w.Requests || crashed < w.Crashes; attempt++ {
		if attempt >= 8 {
			return nil, fmt.Errorf("fleet: node %d replay stalled: served %d/%d, crashed %d/%d",
				w.Node, served, w.Requests, crashed, w.Crashes)
		}
		for r := 0; r < rounds; r++ {
			round := r
			if err := n.Sup.Supervise(1, func(_ int, c *backends.Container) error {
				return fn(round, c)
			}); err != nil {
				return nil, fmt.Errorf("fleet: node %d replay: %w", w.Node, err)
			}
			if hooks.OnRound != nil {
				hooks.OnRound(ReplayRound{
					Round: round, Clk: cl.M.Clk, Sup: n.Sup,
					Recorder: sr, Audit: hooks.Audit, Metrics: reg,
				})
			}
			// Only the span count reaches the digest, and OnRound has
			// polled what it needs: drop the round's spans so a node
			// replays in bounded memory.
			sr.Trim()
		}
	}

	art := &NodeArtifact{
		Node:       w.Node,
		Containers: w.Containers,
		Requests:   served,
		Crashes:    crashed,
		VirtualNs:  int64(cl.M.Clk.Now() / clock.Nanosecond),
		Spans:      sr.Len(),
	}
	for _, c := range cl.Containers {
		art.Runtime = c.Name
		c.CollectMetrics(reg, nodeLabel, metrics.L("container", metrics.IntStr(c.K.ContainerID)))
	}
	for _, h := range n.Sup.Health {
		art.WarmRestores += h.WarmRestores
		art.ColdRestarts += h.ColdRestarts
	}
	snap, err := reg.Snapshot().JSON()
	if err != nil {
		return nil, err
	}
	art.MetricsFNV = fnv64a(snap)
	return art, nil
}
