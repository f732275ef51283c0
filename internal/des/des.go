// Package des is a small deterministic discrete-event simulator used to
// turn per-request service times (measured on the container simulator)
// into closed-loop throughput curves — the memtier-style experiment of
// Fig. 16, where N clients each keep one request outstanding against a
// server with a fixed worker count.
package des

import (
	"slices"

	"repro/internal/clock"
)

// event is one scheduled occurrence carrying a payload v.
type event[T any] struct {
	at  clock.Time
	seq uint64 // tie-breaker: same-time events fire in scheduling order
	v   T
}

// Queue is the simulation core: a binary min-heap of value events
// ordered by (at, seq), plus the current time. seq is assigned in
// scheduling order, so the fire order is a total order that does not
// depend on the heap's internal layout. Values, not pointers, so a
// scheduled event costs no allocation beyond amortized slice growth,
// and a pointer-free payload T keeps the heap out of the collector's
// sight. The zero Queue is empty at time 0.
type Queue[T any] struct {
	now  clock.Time
	seq  uint64
	heap []event[T]
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Now returns the time of the last event Next delivered (or the horizon
// it stopped at).
func (q *Queue[T]) Now() clock.Time { return q.now }

// Grow reserves room for n more pending events, with slices.Grow
// semantics (a negative n panics): a caller that knows how many events
// it is about to schedule pays for one allocation instead of repeated
// doubling.
func (q *Queue[T]) Grow(n int) { q.heap = slices.Grow(q.heap, n) }

// At schedules v at absolute time t, clamped to now.
func (q *Queue[T]) At(t clock.Time, v T) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.heap = append(q.heap, event[T]{at: t, seq: q.seq, v: v})
	for i := len(q.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

// Peek reports the time of the earliest pending event, false when none
// is pending. A caller merging an external time-sorted stream (arrivals)
// delivers its own item first whenever that item is not later.
func (q *Queue[T]) Peek() (clock.Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Next pops the earliest event. If it lies past horizon it is dropped,
// now becomes horizon, and Next reports false; an empty queue reports
// false with now unchanged. Otherwise now advances to the event's time.
func (q *Queue[T]) Next(horizon clock.Time) (T, bool) {
	var zero T
	n := len(q.heap) - 1
	if n < 0 {
		return zero, false
	}
	top := q.heap[0]
	q.heap[0] = q.heap[n]
	q.heap[n] = event[T]{} // release the payload for the collector
	q.heap = q.heap[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			break
		}
		q.heap[i], q.heap[c] = q.heap[c], q.heap[i]
		i = c
	}
	if top.at > horizon {
		q.now = horizon
		return zero, false
	}
	q.now = top.at
	return top.v, true
}

// Sim is a discrete-event simulation run whose events are closures.
type Sim struct {
	ev Queue[func(now clock.Time)]
}

// Now returns the current simulation time.
func (s *Sim) Now() clock.Time { return s.ev.now }

// At schedules fire at absolute time t (clamped to now).
func (s *Sim) At(t clock.Time, fire func(now clock.Time)) { s.ev.At(t, fire) }

// After schedules fire after delay d.
func (s *Sim) After(d clock.Time, fire func(now clock.Time)) { s.ev.At(s.ev.now+d, fire) }

// Run processes events until the horizon (or the queue drains).
func (s *Sim) Run(horizon clock.Time) {
	for {
		fire, ok := s.ev.Next(horizon)
		if !ok {
			return
		}
		fire(s.ev.now)
	}
}

// ServiceModel yields the per-request service time as a function of the
// instantaneous backlog (coalescing makes loaded servers cheaper per
// request — the virtio suppression effect).
type ServiceModel func(backlog int) clock.Time

// ClosedLoop describes one Fig. 16-style experiment.
type ClosedLoop struct {
	// Clients each keep one request outstanding.
	Clients int
	// Workers is the server's concurrency (memcached: several threads;
	// redis: one).
	Workers int
	// RTT is the client↔server network round-trip plus client think
	// time.
	RTT clock.Time
	// Service maps backlog depth to per-request service time.
	Service ServiceModel
	// Horizon is the measured interval.
	Horizon clock.Time
}

// loopEvent is the payload of the closed-loop models' events: a client
// sending its next request (done false), or the completion of a request
// that arrived at arrived and, in SMPLoop, ran on core.
type loopEvent struct {
	arrived clock.Time
	core    int
	done    bool
}

// fifo is a FIFO of arrival times on a ring buffer. It doubles when full
// and never shrinks, so its memory is bounded by the peak backlog — at
// most the client count in a closed loop — however long the run.
type fifo struct {
	buf  []clock.Time
	head int
	n    int
}

func (q *fifo) push(t clock.Time) {
	if q.n == len(q.buf) {
		grown := make([]clock.Time, max(2*len(q.buf), 8))
		copy(grown, q.buf[q.head:])
		copy(grown[len(q.buf)-q.head:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = t
	q.n++
}

func (q *fifo) pop() clock.Time {
	t := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return t
}

// loopEvents returns an event queue sized for a closed loop: each client
// has at most one event pending (its next send or its request's
// completion), so the queue never grows.
func loopEvents(clients int) *Queue[loopEvent] {
	return &Queue[loopEvent]{heap: make([]event[loopEvent], 0, clients)}
}

// Throughput runs the closed loop and returns completed requests per
// (virtual) second and the mean response latency.
func (cl ClosedLoop) Throughput() (opsPerSec float64, meanLatency clock.Time) {
	ev := loopEvents(cl.Clients)
	queue := fifo{buf: make([]clock.Time, cl.Clients)}
	var (
		busy      int
		completed int
		totalLat  clock.Time
	)
	// Prime: all clients send at t≈0 (staggered for determinism).
	for i := 0; i < cl.Clients; i++ {
		ev.At(clock.Time(i)*clock.Microsecond/8, loopEvent{})
	}
	for {
		e, ok := ev.Next(cl.Horizon)
		if !ok {
			break
		}
		now := ev.now
		if e.done {
			busy--
			completed++
			totalLat += now - e.arrived
			// The client receives the response and, after RTT, sends
			// the next request.
			ev.At(now+cl.RTT, loopEvent{})
		} else {
			queue.push(now)
		}
		for busy < cl.Workers && queue.n > 0 {
			arrived := queue.pop()
			busy++
			// Backlog includes the request being served.
			ev.At(now+cl.Service(queue.n+1), loopEvent{arrived: arrived, done: true})
		}
	}
	if completed == 0 {
		return 0, 0
	}
	return float64(completed) / cl.Horizon.Seconds(), totalLat / clock.Time(completed)
}

// SMPLoop is the multi-vCPU variant of ClosedLoop: the server spreads
// requests over VCPUs cores, and every completed request triggers TLB
// maintenance with probability 1/ShootdownEvery — the initiating vCPU
// stalls for ShootdownStall while every sibling loses RemoteStall to
// the flush-IPI handler. That contention term is what bends the
// scaling curve as the vCPU count grows: runtimes with expensive
// shootdowns flatten out first.
type SMPLoop struct {
	// Clients each keep one request outstanding.
	Clients int
	// VCPUs is the server's core count; each core serves one request at
	// a time.
	VCPUs int
	// RTT is the client↔server round trip plus think time.
	RTT clock.Time
	// Service is the per-request service time. Dispatch is eager, so a
	// request never sees a backlog other than itself.
	Service clock.Time
	// ShootdownEvery triggers one TLB shootdown every this many
	// completions (0 disables — the pure scaling baseline).
	ShootdownEvery int
	// ShootdownStall is the initiator-side latency per shootdown;
	// RemoteStall is what each sibling core loses to the IPI handler.
	ShootdownStall clock.Time
	RemoteStall    clock.Time
	// Horizon is the measured interval.
	Horizon clock.Time
	// Observe, when non-nil, is called once per completed request with
	// its response latency (arrival to completion). A pure observation
	// hook: it cannot influence the simulation, so attaching it changes
	// no result.
	Observe func(latency clock.Time)
}

// Throughput runs the loop and returns completed requests per virtual
// second, the mean response latency, and the shootdown count.
func (sl SMPLoop) Throughput() (opsPerSec float64, meanLatency clock.Time, shootdowns int) {
	ev := loopEvents(sl.Clients)
	nextFree := make([]clock.Time, sl.VCPUs)
	var (
		completed int
		totalLat  clock.Time
	)
	for i := 0; i < sl.Clients; i++ {
		ev.At(clock.Time(i)*clock.Microsecond/8, loopEvent{})
	}
	for {
		e, ok := ev.Next(sl.Horizon)
		if !ok {
			break
		}
		now := ev.now
		if !e.done {
			// Dispatch is eager: a request is bound to a core the moment
			// it arrives, so the only backlog it sees is itself. The
			// earliest-free core serves it, lowest ID on ties
			// (deterministic).
			v := 0
			for i := 1; i < len(nextFree); i++ {
				if nextFree[i] < nextFree[v] {
					v = i
				}
			}
			done := max(now, nextFree[v]) + sl.Service
			nextFree[v] = done
			ev.At(done, loopEvent{arrived: now, core: v, done: true})
			continue
		}
		completed++
		totalLat += now - e.arrived
		if sl.Observe != nil {
			sl.Observe(now - e.arrived)
		}
		if sl.ShootdownEvery > 0 && completed%sl.ShootdownEvery == 0 {
			shootdowns++
			nextFree[e.core] += sl.ShootdownStall
			for i := range nextFree {
				if i == e.core {
					continue
				}
				if nextFree[i] < now {
					nextFree[i] = now
				}
				nextFree[i] += sl.RemoteStall
			}
		}
		ev.At(now+sl.RTT, loopEvent{})
	}
	if completed == 0 {
		return 0, 0, shootdowns
	}
	return float64(completed) / sl.Horizon.Seconds(), totalLat / clock.Time(completed), shootdowns
}
