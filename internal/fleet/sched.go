package fleet

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Scheduler is a placement policy, stated as a rank: Rank maps one
// node's pressure to a rank, or reports that the node cannot admit a
// container (down, or every slot and queue place taken). A run places
// each container start on the admittable node with the least (rank,
// node ID), and rejects it when no node is admittable (the backpressure
// signal: the arrival is rejected, not queued forever). Rank must be a
// pure function of the one Pressure it is given, returning a rank in
// [0, (Slots+1)·(QueueLimit+1)), so the run can index nodes by rank
// and re-rank only the node that changed.
type Scheduler interface {
	Name() string
	Rank(p Pressure) (rank int, ok bool)
}

// BinPack fills nodes in ID order: the first node with a free slot
// wins, then the first with queue headroom. Packing concentrates load
// so the tail of the fleet idles — high per-node utilization, but a
// deep queue on the packed prefix once slots run out, and a wide
// blast radius when a packed node is evicted.
type BinPack struct{}

// Name implements Scheduler.
func (BinPack) Name() string { return "binpack" }

// Rank implements Scheduler: 0 with a free slot, 1 with only queue
// headroom.
func (BinPack) Rank(p Pressure) (int, bool) {
	if !p.Admittable() {
		return 0, false
	}
	if p.Free() > 0 {
		return 0, true
	}
	return 1, true
}

// Spread balances load: the node with the most free slots wins (ties:
// shortest queue, then lowest ID), falling back to the shortest
// admittable queue. Spreading flattens per-node pressure, keeps queue
// depth — and therefore start-latency tails — low, and confines an
// eviction to 1/N of the fleet's work.
type Spread struct{}

// Name implements Scheduler.
func (Spread) Name() string { return "spread" }

// Rank implements Scheduler: with a free slot, the slots in use and
// then the queue depth order the node; with only queue headroom, the
// node ranks after every node with a free slot, by queue depth.
func (Spread) Rank(p Pressure) (int, bool) {
	if !p.Admittable() {
		return 0, false
	}
	if p.Free() > 0 {
		return (p.Slots-p.Free())*(p.QueueLimit+1) + p.Queued, true
	}
	return p.Slots*(p.QueueLimit+1) + p.Queued, true
}

// schedulers is the registry of named schedulers.
var schedulers = map[string]Scheduler{
	"binpack": BinPack{},
	"spread":  Spread{},
}

// SchedulerNames returns the sorted registry (the -sched flag's
// vocabulary).
func SchedulerNames() []string {
	out := make([]string, 0, len(schedulers))
	for n := range schedulers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SchedulerByName resolves a -sched flag value.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedulers[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("fleet: unknown scheduler %q (have %s)",
		name, strings.Join(SchedulerNames(), ", "))
}

// rankIndex files every admittable node under its scheduler rank, so a
// placement finds the least (rank, node) without scanning the fleet:
// one bitset of node indices per rank, and a bitmap of the ranks that
// hold at least one node. Both are sized once from the rank bound, and
// a node moves only when its own pressure changes.
type rankIndex struct {
	words int      // words per node bitset
	nodes []uint64 // rank r's bitset is nodes[r*words : (r+1)*words]
	ranks []uint64 // bit r is set while rank r holds a node
	count []int32  // nodes per rank
	of    []int32  // each node's rank, -1 while it is not admittable
}

func newRankIndex(nodes, ranks int) rankIndex {
	words := (nodes + 63) / 64
	bitsets := make([]uint64, ranks*words+(ranks+63)/64)
	counts := make([]int32, ranks+nodes)
	x := rankIndex{
		words: words,
		nodes: bitsets[:ranks*words],
		ranks: bitsets[ranks*words:],
		count: counts[:ranks],
		of:    counts[ranks:],
	}
	for i := range x.of {
		x.of[i] = -1
	}
	return x
}

// set files node under rank, or takes it out of the index for rank -1.
func (x *rankIndex) set(node, rank int) {
	old := int(x.of[node])
	if old == rank {
		return
	}
	w, bit := node/64, uint64(1)<<(node%64)
	if old >= 0 {
		x.nodes[old*x.words+w] &^= bit
		if x.count[old]--; x.count[old] == 0 {
			x.ranks[old/64] &^= 1 << (old % 64)
		}
	}
	if rank >= 0 {
		x.nodes[rank*x.words+w] |= bit
		if x.count[rank]++; x.count[rank] == 1 {
			x.ranks[rank/64] |= 1 << (rank % 64)
		}
	}
	x.of[node] = int32(rank)
}

// least returns the lowest node of the lowest nonempty rank, false when
// no node is filed: O(ranks/64 + nodes/64).
func (x *rankIndex) least() (int, bool) {
	for i, w := range x.ranks {
		if w == 0 {
			continue
		}
		r := i*64 + bits.TrailingZeros64(w)
		for j, b := range x.nodes[r*x.words : (r+1)*x.words] {
			if b != 0 {
				return j*64 + bits.TrailingZeros64(b), true
			}
		}
	}
	return 0, false
}
