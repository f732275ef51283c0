package fleet

import (
	"fmt"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The data plane: per-node machine replay. The control-plane DES
// decides who ran where; this file makes one node of that decision
// real — a backends machine hosting the node's container slots under
// the supervisor (watchdog, capped backoff, frame reclamation) with
// warm restarts (periodic snapshots, checksum-verified restore, cold
// fallback), serving the request volume the control
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

// fnv64a hashes a byte slice (per-node artifact fingerprints).
func fnv64a(data []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// bootNode boots a node: a shared machine with w.Containers
// co-resident containers of the given runtime under a warm-restart
// supervisor (snapshot every healthy round, restore on death,
// checksum-verified with cold fallback).
func bootNode(w NodeWork, kind backends.Kind, opts backends.Options) (*backends.Cluster, *backends.Supervisor, error) {
	cl, err := backends.NewCluster(1 << 16)
	if err != nil {
		return nil, nil, err
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
	for i := 0; i < w.Containers; i++ {
		if _, err := cl.Add(kind, opts); err != nil {
			return nil, nil, fmt.Errorf("fleet: node %d: boot container %d: %w", w.Node, i+1, err)
		}
	}
	pol := backends.DefaultRestartPolicy()
	pol.SnapshotInterval = 1
	pol.WarmRestart = true
	return cl, backends.NewSupervisor(cl, pol), nil
}

// ReplayRound is the state ReplayNode hands its onRound callback after
// each supervised round. Everything is live (not a copy): read, don't
// mutate.
type ReplayRound struct {
	// Round is the round index within the current supervise attempt
	// (it resets when a stalled attempt re-runs).
	Round int
	Clk   *clock.Clock
	Sup   *backends.Supervisor
	// Recorder is trimmed after every round: it retains only the spans
	// recorded since the previous onRound, so poll it with a Len cursor
	// (the SpansFrom view, read before the round returns) rather than
	// reading Spans at the end.
	Recorder *trace.SpanRecorder
	Metrics  *metrics.Registry
}

// ReplayNode executes one node's assignment on a real machine and
// returns its digest. opts.Audit, when non-nil, records the node's
// machine events from boot on (the supervisor carries it across
// restarts). onRound, when non-nil, runs after every supervised round —
// the flight recorder's poll point and the telemetry scrape point for
// machine replays. Neither observer advances the node's clock, so an
// observed replay yields the same artifact as a plain one (pinned by a
// test). Deterministic: the node is an isolated simulation on its own
// virtual clock, so the same work yields the same artifact bytes on any
// host scheduling.
func ReplayNode(w NodeWork, kind backends.Kind, opts backends.Options, onRound func(ReplayRound)) (*NodeArtifact, error) {
	if w.Containers <= 0 {
		w.Containers = 1
	}
	cl, sup, err := bootNode(w, kind, opts)
	if err != nil {
		return nil, err
	}

	// Per-node observers: every span carries the node ID, every metric
	// series the node label, so fleet-wide artifacts fold per node.
	// Attach replaces what boot attached, so opts.Audit goes in again.
	// The supervisor carries each container's observers across restarts.
	reg := metrics.NewRegistry()
	nodeLabel := metrics.NodeLabel(w.Node)
	sr := trace.NewSpanRecorder(cl.M.Clk)
	sr.Node = w.Node
	for _, c := range cl.Containers {
		c.Attach(backends.Observers{
			Spans: sr,
			Flow: metrics.NewFlowMetrics(reg,
				metrics.L("container", metrics.IntStr(c.K.ContainerID)), nodeLabel),
			Audit: opts.Audit,
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
		if err := workloads.PageRequest(c.K); err != nil {
			return err
		}
		served++
		return nil
	}
	// Crashed containers sit out restart backoff, so a round can serve
	// fewer turns than it has slots; keep running supervised rounds
	// until the node's full assignment is served. Rounds run one
	// Supervise call at a time so onRound fires between them —
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
			if err := sup.Supervise(1, func(_ int, c *backends.Container) error {
				return fn(round, c)
			}); err != nil {
				return nil, fmt.Errorf("fleet: node %d replay: %w", w.Node, err)
			}
			if onRound != nil {
				onRound(ReplayRound{
					Round: round, Clk: cl.M.Clk, Sup: sup,
					Recorder: sr, Metrics: reg,
				})
			}
			// Only the span count reaches the digest, and onRound has
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
	for _, h := range sup.Health {
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
