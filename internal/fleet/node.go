// Package fleet is the datacenter layer above "machine": an
// orchestrator that places thousands of short-lived secure containers
// across a fleet of simulated nodes on the shared virtual clock,
// driven by an open-loop heavy-traffic arrival model (internal/des)
// instead of the closed loop the single-machine experiments use.
//
// The control plane is split from the data plane the way a container
// daemon splits its scheduler from its runtimes: placement, queueing,
// admission control, and eviction run in one deterministic
// discrete-event simulation over cheap value-style node states
// (SimNode), while per-node machine truth — real guest kernels
// booting, serving, and warm-restarting under the supervisor — is
// replayed one node at a time by ReplayNode. Because every node's
// machine is a fully isolated simulation, replay shards across host
// cores (one node per worker) and streams per-node artifacts instead of
// holding the whole fleet in memory.
package fleet

import (
	"repro/internal/clock"
	"repro/internal/trace"
)

// Pressure is a node's load signal as the scheduler sees it: how many
// container slots exist, how many are running, how deep the start
// queue is, and whether the node is down (evicted, draining). The
// control plane writes a node's entry back after every change to its
// running set, queue or down flag, so schedulers act on current — not
// stale — state without a per-placement rebuild.
type Pressure struct {
	Node       int
	Slots      int
	Running    int
	Queued     int
	QueueLimit int
	Down       bool
}

// Free reports available container slots.
func (p Pressure) Free() int { return p.Slots - p.Running }

// Load is the node's total committed work (running + queued).
func (p Pressure) Load() int { return p.Running + p.Queued }

// Admittable reports whether the node can accept one more container
// (a free slot, or queue headroom under the admission bound).
func (p Pressure) Admittable() bool {
	if p.Down {
		return false
	}
	return p.Running < p.Slots || p.Queued < p.QueueLimit
}

// instance is one live container's control-plane state, from arrival
// to completion or rejection. A run keeps them in one recycled slab;
// nodes and events refer to an instance by its slot index.
type instance struct {
	// id is the request's causal-tracing identity, minted at the DES
	// arrival source and carried unchanged across evictions.
	id trace.RequestID
	// arrivedAt is the original arrival time; latency is measured from
	// here even across evictions and restarts.
	arrivedAt clock.Time
	// enqueuedAt is when the instance last entered a node queue.
	enqueuedAt clock.Time
	// startedAt is when it last began running (boot included).
	startedAt clock.Time
	// boot is the start cost to pay (cold boot, or warm restore after
	// an eviction); demand is the remaining run time after boot.
	// bootKind names boot for the request trace (trace.SegBoot or
	// trace.SegWarmRestore).
	boot     clock.Time
	demand   clock.Time
	bootKind string
	// reqs is the request count backing demand (the replay work list).
	reqs int
	// node is the node it last started on.
	node int
	// gen invalidates the in-flight completion event after an
	// eviction (the DES queue has no cancellation): the event carries
	// gen at start and fires only if it still matches. It is never
	// reset when the slot is reused, so no stale completion can match
	// a later occupant.
	gen int32
}

// SimNode is the control plane's value-style node: slot and queue
// accounting only, no machine behind it. It is deliberately cheap —
// a 50-node fleet is 50 of these, not 50 machines — so the placement
// DES can run far larger fleets than the replay stage ever boots.
type SimNode struct {
	id         int
	slots      int
	queueLimit int
	// running and queue hold instance indices. Both live in a fixed
	// backing (at most slots and queueLimit long), and the queue pops
	// by shifting in place, so neither ever reallocates.
	running []int32
	queue   []int32
	down    bool

	// Stats accumulated for the per-node report.
	Starts   int
	Requests int
	Evicted  int
	MaxQueue int
	Crashed  bool
}

// Pressure is the node's load signal as the scheduler sees it.
func (n *SimNode) Pressure() Pressure {
	return Pressure{
		Node:       n.id,
		Slots:      n.slots,
		Running:    len(n.running),
		Queued:     len(n.queue),
		QueueLimit: n.queueLimit,
		Down:       n.down,
	}
}

// removeRunning drops instance inst from the running set.
func (n *SimNode) removeRunning(inst int32) {
	for i, r := range n.running {
		if r == inst {
			n.running = append(n.running[:i], n.running[i+1:]...)
			return
		}
	}
}

// popQueue removes and returns the head of the start queue, shifting
// the rest down in place so the queue keeps its backing.
func (n *SimNode) popQueue() int32 {
	head := n.queue[0]
	n.queue = n.queue[:copy(n.queue, n.queue[1:])]
	return head
}
