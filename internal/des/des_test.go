package des

import (
	"container/heap"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestEventOrdering(t *testing.T) {
	s := &Sim{}
	var order []int
	s.After(30*clock.Microsecond, func(clock.Time) { order = append(order, 3) })
	s.After(10*clock.Microsecond, func(clock.Time) { order = append(order, 1) })
	s.After(20*clock.Microsecond, func(clock.Time) { order = append(order, 2) })
	// Same-time events fire in scheduling order.
	s.After(20*clock.Microsecond, func(clock.Time) { order = append(order, 4) })
	s.Run(clock.Second)
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHorizonStopsRun(t *testing.T) {
	s := &Sim{}
	fired := false
	s.After(2*clock.Second, func(clock.Time) { fired = true })
	s.Run(clock.Second)
	if fired {
		t.Error("event past horizon fired")
	}
	if s.Now() != clock.Second {
		t.Errorf("Now = %v, want horizon", s.Now())
	}
}

func TestCascadedEvents(t *testing.T) {
	s := &Sim{}
	count := 0
	var tick func(now clock.Time)
	tick = func(now clock.Time) {
		count++
		if count < 10 {
			s.After(clock.Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.Run(clock.Second)
	if count != 10 {
		t.Errorf("ticks = %d, want 10", count)
	}
}

func TestClosedLoopSaturation(t *testing.T) {
	// Fixed 10µs service, 1 worker → saturation at 100k ops/s.
	svc := func(int) clock.Time { return 10 * clock.Microsecond }
	run := func(clients int) float64 {
		ops, _ := ClosedLoop{
			Clients: clients,
			Workers: 1,
			RTT:     50 * clock.Microsecond,
			Service: svc,
			Horizon: 50 * clock.Millisecond,
		}.Throughput()
		return ops
	}
	low, mid, high := run(1), run(4), run(32)
	// Ramp: 1 client ≈ 1/(RTT+S) ≈ 16.7k.
	if low < 14000 || low > 18000 {
		t.Errorf("1 client = %.0f ops/s, want ~16.7k", low)
	}
	if mid < 3*low {
		t.Errorf("4 clients = %.0f, want ~4× one client (%.0f)", mid, low)
	}
	// Saturation.
	if high < 90000 || high > 105000 {
		t.Errorf("32 clients = %.0f ops/s, want ~100k", high)
	}
	// Monotone non-decreasing (closed loops do not collapse).
	if !(low <= mid && mid <= high+1) {
		t.Errorf("throughput not monotone: %v %v %v", low, mid, high)
	}
}

func TestClosedLoopWorkersScale(t *testing.T) {
	svc := func(int) clock.Time { return 10 * clock.Microsecond }
	tput := func(workers int) float64 {
		ops, _ := ClosedLoop{
			Clients: 64, Workers: workers,
			RTT:     50 * clock.Microsecond,
			Service: svc,
			Horizon: 50 * clock.Millisecond,
		}.Throughput()
		return ops
	}
	if one, four := tput(1), tput(4); four < 3.2*one {
		t.Errorf("4 workers = %.0f, want ~4× one worker (%.0f)", four, one)
	}
}

func TestBacklogCoalescingHelps(t *testing.T) {
	// A service model that amortizes a fixed exit cost across backlog
	// must saturate higher than a flat one.
	flat := func(int) clock.Time { return 20 * clock.Microsecond }
	coalescing := func(backlog int) clock.Time {
		b := backlog
		if b > 16 {
			b = 16
		}
		return 5*clock.Microsecond + 15*clock.Microsecond/clock.Time(b)
	}
	run := func(svc ServiceModel) float64 {
		ops, _ := ClosedLoop{
			Clients: 48, Workers: 1,
			RTT:     30 * clock.Microsecond,
			Service: svc,
			Horizon: 50 * clock.Millisecond,
		}.Throughput()
		return ops
	}
	if f, c := run(flat), run(coalescing); c < 1.5*f {
		t.Errorf("coalescing %.0f vs flat %.0f ops/s, want >1.5×", c, f)
	}
}

func TestLatencyGrowsWithClients(t *testing.T) {
	svc := func(int) clock.Time { return 10 * clock.Microsecond }
	lat := func(clients int) clock.Time {
		_, l := ClosedLoop{
			Clients: clients, Workers: 1,
			RTT:     50 * clock.Microsecond,
			Service: svc,
			Horizon: 50 * clock.Millisecond,
		}.Throughput()
		return l
	}
	if l1, l64 := lat(1), lat(64); l64 < 4*l1 {
		t.Errorf("queueing latency did not grow: %v -> %v", l1, l64)
	}
}

// refSim is the container/heap event core Sim replaced: pointer events
// ordered by (at, seq). It stays here as the oracle Sim must match.
type refSim struct {
	now  clock.Time
	heap refHeap
	seq  int
}

type refEvent struct {
	at   clock.Time
	seq  int
	fire func(now clock.Time)
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (s *refSim) Now() clock.Time { return s.now }

func (s *refSim) At(t clock.Time, fire func(now clock.Time)) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.heap, &refEvent{at: t, seq: s.seq, fire: fire})
}

func (s *refSim) After(d clock.Time, fire func(now clock.Time)) { s.At(s.now+d, fire) }

func (s *refSim) Run(horizon clock.Time) {
	for s.heap.Len() > 0 {
		e := heap.Pop(&s.heap).(*refEvent)
		if e.at > horizon {
			s.now = horizon
			return
		}
		s.now = e.at
		e.fire(s.now)
	}
}

// scheduler is the API Sim and refSim share.
type scheduler interface {
	Now() clock.Time
	At(t clock.Time, fire func(now clock.Time))
	After(d clock.Time, fire func(now clock.Time))
	Run(horizon clock.Time)
}

// fired is one entry of a run log: event id fired at now. id -1 records
// Now() after a Run returns.
type fired struct {
	id  int
	now clock.Time
}

// runSchedule drives s through a random schedule drawn from seed: times
// from a small range (so ties are common), absolute times in the past
// (clamped to now), events that schedule more events when they fire,
// and a horizon cut followed by a second Run that resumes past it.
func runSchedule(s scheduler, seed uint64) []fired {
	r := NewRand(seed)
	var (
		log      []fired
		ids      int
		schedule func(depth int)
	)
	schedule = func(depth int) {
		id := ids
		ids++
		fire := func(now clock.Time) {
			log = append(log, fired{id, now})
			if depth < 3 {
				for n := r.Uint64() % 3; n > 0; n-- {
					schedule(depth + 1)
				}
			}
		}
		t := clock.Time(r.Uint64() % 16)
		switch r.Uint64() % 3 {
		case 0:
			s.At(t, fire)
		case 1:
			s.After(t, fire)
		default:
			s.At(s.Now()-t, fire)
		}
	}
	for i := 0; i < 20; i++ {
		schedule(0)
	}
	horizon := clock.Time(r.Uint64() % 32)
	s.Run(horizon)
	log = append(log, fired{-1, s.Now()})
	s.Run(horizon + 64)
	return append(log, fired{-1, s.Now()})
}

func TestSimMatchesReference(t *testing.T) {
	same := func(seed uint64) bool {
		return slices.Equal(runSchedule(&Sim{}, seed), runSchedule(&refSim{}, seed))
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

var (
	flatService = func(int) clock.Time { return 10 * clock.Microsecond }
	loopClosed  = ClosedLoop{Clients: 64, Workers: 4, RTT: 40 * clock.Microsecond, Service: flatService, Horizon: 20 * clock.Millisecond}
	loopSMP     = SMPLoop{
		Clients: 32, VCPUs: 8, RTT: 20 * clock.Microsecond, Service: flatService,
		ShootdownEvery: 1, ShootdownStall: 2 * clock.Microsecond, RemoteStall: clock.Microsecond,
		Horizon: 20 * clock.Millisecond,
	}
)

// The closed loops allocate their buffers once, sized by the client
// count: nothing per event, so a 100x longer run allocates the same.
func TestLoopAllocs(t *testing.T) {
	allocs := func(h clock.Time) (closed, smp float64) {
		cl, sl := loopClosed, loopSMP
		cl.Horizon, sl.Horizon = h, h
		closed = testing.AllocsPerRun(3, func() { cl.Throughput() })
		smp = testing.AllocsPerRun(3, func() { sl.Throughput() })
		return closed, smp
	}
	shortCL, shortSMP := allocs(5 * clock.Millisecond)
	longCL, longSMP := allocs(500 * clock.Millisecond)
	if shortCL != longCL {
		t.Errorf("ClosedLoop allocs: %v at 5ms, %v at 500ms; want equal", shortCL, longCL)
	}
	if shortSMP != longSMP {
		t.Errorf("SMPLoop allocs: %v at 5ms, %v at 500ms; want equal", shortSMP, longSMP)
	}
}
