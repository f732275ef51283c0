package bench

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/smp"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The wall-clock experiment measures the simulator itself: how fast the
// host executes the hot paths every simulated instruction crosses (TLB
// lookups, audit records, span emission, the shootdown protocol), and
// how much the parallel grid runner buys over sequential execution.
// Unlike every other experiment these numbers are host-dependent — the
// committed BENCH_wallclock artifact is a trajectory snapshot, not a
// byte-reproducible report, which is why it records the host core
// count alongside the measurements and why CI checks its schema rather
// than its bytes.

// WallclockBench is one hot-path micro-benchmark result.
type WallclockBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// WallclockFlush is one point of the flush-vs-capacity regression
// curve: the cost of invalidating a 64-entry PCID out of a TLB of the
// given capacity. The curve must stay flat — flush cost scaling with
// capacity is the O(capacity) scan bug this experiment guards against.
type WallclockFlush struct {
	Capacity   int     `json:"capacity"`
	NsPerFlush float64 `json:"ns_per_flush"`
}

// WallclockSpeedup is the measured wall-clock gain of running one
// experiment's grid cells concurrently instead of sequentially.
type WallclockSpeedup struct {
	Experiment   string  `json:"experiment"`
	Cells        int     `json:"cells"`
	Parallel     int     `json:"parallel"`
	SequentialMs float64 `json:"sequential_ms"`
	ParallelMs   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

// WallclockReport is the committed BENCH_wallclock artifact.
type WallclockReport struct {
	Scale           int                `json:"scale"`
	HostCPUs        int                `json:"host_cpus"`
	GoMaxProcs      int                `json:"gomaxprocs"`
	Benches         []WallclockBench   `json:"benches"`
	FlushByCapacity []WallclockFlush   `json:"flush_by_capacity"`
	Speedups        []WallclockSpeedup `json:"speedups"`
}

// WallclockOpts tunes the measurement effort.
type WallclockOpts struct {
	Scale     int           // experiment scale for the speedup section (min 1)
	Parallel  int           // worker count for the parallel leg (min 2; default 4)
	BenchTime time.Duration // per-micro-benchmark budget (default 100ms)
	Reps      int           // speedup repetitions, best-of (default 3)
	Seeds     int           // chaos sweep width (default 8)
}

func (o *WallclockOpts) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Parallel < 2 {
		o.Parallel = 4
	}
	if o.BenchTime <= 0 {
		o.BenchTime = 100 * time.Millisecond
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	if o.Seeds < 1 {
		o.Seeds = 8
	}
}

// benchInit makes testing.Benchmark usable outside a test binary and
// sets the per-benchmark budget; the returned func restores the
// caller's -test.benchtime, so a `go test -bench` in the same process
// keeps its own. testing.Init is idempotent, so this is safe inside
// `go test` processes too.
var benchInitOnce sync.Once

func benchInit(d time.Duration) (restore func()) {
	benchInitOnce.Do(testing.Init)
	f := flag.Lookup("test.benchtime")
	prev := f.Value.String()
	_ = f.Value.Set(d.String())
	return func() { _ = f.Value.Set(prev) }
}

// wallclockRow is one hot path and the only definition of its measured
// loop. RunWallclock measures every row into the report,
// BenchmarkWallclock runs each as a sub-benchmark (the way to profile
// one layer), and Invariants takes the row names and zero-allocation
// pins from the same table. A body keeps its loop inline: one indirect
// call per op would distort the fastest rows (trace/span_nil is ~5 ns).
type wallclockRow struct {
	name      string
	zeroAlloc bool // Invariants pins allocs_per_op at 0
	bestOf    int  // RunWallclock keeps the fastest of this many runs (0 means 1)
	bench     func(b *testing.B)
}

// arrivalsPerOp is the metric a fleet row reports: the arrivals one run
// streams. RunWallclock divides the row's per-op costs by it.
const arrivalsPerOp = "arrivals/op"

// storeDigests is the page-store row's interned digest count.
const storeDigests = 512

// Sinks keep the mem/read_word and des/* rows' results live.
var (
	wallclockWord uint64
	wallclockOps  float64
)

// wallclockFixtures is what rows share, each built on first use and
// kept for later runs: the booted containers, the serverless snapshot
// and the page store. err is the last row failure: testing.Benchmark
// discards a failed run's log.
type wallclockFixtures struct {
	containers map[runtimeSpec]*backends.Container
	fork       *forkFixture
	store      *snapshot.PageStore
	err        error
}

// forkFixture is the serverless template, checkpointed once, and the
// machine, digest index and page store its COW forks land on.
type forkFixture struct {
	template *backends.Container
	snap     *snapshot.Snapshot
	m        *backends.Machine
	idx      *snapshot.DigestIndex
	store    *snapshot.PageStore
}

// fail stops the running row on err.
func (fx *wallclockFixtures) fail(b *testing.B, err error) {
	fx.err = err
	b.Fatal(err)
}

// container returns the container booted from s.
func (fx *wallclockFixtures) container(b *testing.B, s runtimeSpec) *backends.Container {
	if c := fx.containers[s]; c != nil {
		return c
	}
	c, err := backends.New(s.kind, s.opts)
	if err != nil {
		fx.fail(b, fmt.Errorf("boot %s: %w", backends.Label(s.kind, s.opts), err))
	}
	if fx.containers == nil {
		fx.containers = map[runtimeSpec]*backends.Container{}
	}
	fx.containers[s] = c
	return c
}

// forks returns the serverless template's fork fixture.
func (fx *wallclockFixtures) forks(b *testing.B) *forkFixture {
	if fx.fork != nil {
		return fx.fork
	}
	c, err := backends.New(backends.CKI, backends.Options{TLBEntries: serverlessTLBEntries})
	if err == nil {
		_, err = serverlessInit(c.K, 1)
	}
	var snap *snapshot.Snapshot
	if err == nil {
		snap, err = backends.Checkpoint(c)
	}
	var m *backends.Machine
	if err == nil {
		m, err = backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
	}
	if err != nil {
		fx.fail(b, fmt.Errorf("serverless template: %w", err))
	}
	fx.fork = &forkFixture{template: c, snap: snap, m: m, idx: snapshot.NewDigestIndex(snap), store: snapshot.NewPageStore(m.HostMem)}
	return fx.fork
}

// pageStore returns a page store holding storeDigests interned digests.
func (fx *wallclockFixtures) pageStore(b *testing.B) *snapshot.PageStore {
	if fx.store != nil {
		return fx.store
	}
	ps := snapshot.NewPageStore(mem.New(1 << 12))
	for d := uint64(0); d < storeDigests; d++ {
		if _, err := ps.Intern(d * 0x9e3779b97f4a7c15); err != nil {
			fx.fail(b, fmt.Errorf("pagestore: %w", err))
		}
	}
	fx.store = ps
	return ps
}

// steadyTLB returns a default-capacity TLB filled to eviction steady
// state: its newest DefaultCapacity entries are live.
func steadyTLB() *tlb.TLB {
	tl := tlb.New(tlb.DefaultCapacity)
	for i := 0; i < 2*tlb.DefaultCapacity; i++ {
		tl.Insert(1, uint64(i)<<mem.PageShift, tlb.Entry{PFN: mem.PFN(i)})
	}
	return tl
}

// wallclockRows is the hot-path table, in report order. A body builds
// what only it uses before b.ResetTimer and takes shared state from fx;
// Invariants reads the table with a nil fx and runs no body.
func wallclockRows(fx *wallclockFixtures) []wallclockRow {
	var rows []wallclockRow
	// Per-runtime flows: the trivial syscall and one full grid-cell
	// round (migrate + map/touch/unmap across 2 vCPUs).
	for _, s := range smpSpecs() {
		s2 := s
		s2.opts.NumVCPU = 2
		label := backends.Label(s.kind, s.opts)
		rows = append(rows,
			wallclockRow{name: "getpid_flow/" + label, bench: func(b *testing.B) {
				c := fx.container(b, s)
				c.K.Getpid() // steady state
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.K.Getpid()
				}
			}},
			wallclockRow{name: "smp_cell_round/" + label, bench: func(b *testing.B) {
				c := fx.container(b, s2)
				for i := 0; i < 4; i++ {
					if err := workloads.PageRequest(c.K); err != nil {
						fx.fail(b, err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for v := 0; v < 2; v++ {
						if err := c.MigrateVCPU(v); err != nil {
							fx.fail(b, err)
						}
						if err := workloads.PageRequest(c.K); err != nil {
							fx.fail(b, err)
						}
					}
				}
			}},
		)
	}

	// Request-trace emission, per segment, over six-segment request
	// lifecycles: the log's chunk, header and index growth amortizes
	// to zero allocations per segment.
	lifecycle := [...]string{trace.SegArrival, trace.SegPlacement, trace.SegQueue, trace.SegBoot, trace.SegService, trace.SegComplete}
	// The DES closed loops under Fig. 16 and the smp experiment, one
	// 20 ms horizon per op.
	flatService := func(int) clock.Time { return 10 * clock.Microsecond }
	closedLoop := des.ClosedLoop{Clients: 64, Workers: 4, RTT: 40 * clock.Microsecond, Service: flatService, Horizon: 20 * clock.Millisecond}
	smpLoop := des.SMPLoop{
		Clients: 32, VCPUs: 8, RTT: 20 * clock.Microsecond, Service: 10 * clock.Microsecond,
		ShootdownEvery: 1, ShootdownStall: 2 * clock.Microsecond, RemoteStall: clock.Microsecond,
		Horizon: 20 * clock.Millisecond,
	}
	rows = append(rows,
		// The shootdown protocol alone: a bare 8-vCPU engine, no
		// container, no observers.
		wallclockRow{name: "shootdown/8vcpu", zeroAlloc: true, bench: func(b *testing.B) {
			costs := clock.DefaultCosts()
			m := mem.New(256)
			cpu := hw.NewCPU(0, true)
			unit := mmu.New(m, costs)
			cpu.SetTLBHooks(unit.Hooks())
			e, err := smp.New(new(clock.Clock), costs, m, cpu, unit, 8)
			if err != nil {
				fx.fail(b, err)
			}
			spec := smp.ShootdownSpec{Initiator: 0, Targets: e.Others(0, 8), PCID: 0x101, VA: 0x4000}
			if _, err := e.Shootdown(spec); err != nil { // warm the scratch buffer
				fx.fail(b, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Shootdown(spec); err != nil {
					fx.fail(b, err)
				}
			}
		}},
		// TLB hot paths at default capacity.
		wallclockRow{name: "tlb/lookup_hit", zeroAlloc: true, bench: func(b *testing.B) {
			tl := steadyTLB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Lookup(1, uint64(2*tlb.DefaultCapacity-1-i%1024)<<mem.PageShift)
			}
		}},
		wallclockRow{name: "tlb/insert_evict", zeroAlloc: true, bench: func(b *testing.B) {
			tl := steadyTLB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl.Insert(1, uint64(2*tlb.DefaultCapacity+i)<<mem.PageShift, tlb.Entry{PFN: 1})
			}
		}},
		wallclockRow{name: "tlb/flush_page_reinsert", zeroAlloc: true, bench: func(b *testing.B) {
			tl := steadyTLB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := uint64(2*tlb.DefaultCapacity+i) << mem.PageShift
				tl.Insert(1, va, tlb.Entry{PFN: 1})
				tl.FlushPage(1, va)
			}
		}},
		// Physical-memory word access: every page-table walk step and
		// every KSM entry check is one ReadWord. The 64 frames span every
		// chunk of a host-sized memory.
		wallclockRow{name: "mem/read_word", zeroAlloc: true, bench: func(b *testing.B) {
			pm := mem.New(1 << 16)
			for p := mem.PFN(1); p < 1<<16; p += 1 << 10 {
				pm.WriteWord(p.Addr(), uint64(p))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wallclockWord += pm.ReadWord(mem.PFN(1+(i%64)<<10).Addr() + uint64(i%mem.WordsPerPage)*8)
			}
		}},
		// Audit record emission (reserved recorder) and nil-observer span
		// emission: the two per-event observability costs.
		wallclockRow{name: "audit/record", zeroAlloc: true, bench: func(b *testing.B) {
			r := audit.NewRecorder(new(clock.Clock))
			r.Reserve(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Emit(audit.EvSyscall, 0, 0x101, uint64(i), 0, 0)
			}
		}},
		wallclockRow{name: "trace/span_nil", zeroAlloc: true, bench: func(b *testing.B) {
			var r *trace.SpanRecorder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.End(r.Begin("syscall"))
			}
		}},
		wallclockRow{name: "trace/request_emit", zeroAlloc: true, bench: func(b *testing.B) {
			r := trace.NewRequestRecorder()
			var id trace.RequestID
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(lifecycle) == 0 {
					id = trace.MintRequestID(1, i/len(lifecycle))
				}
				r.Emit(id, lifecycle[i%len(lifecycle)], clock.Time(i), 1, i%16, "")
			}
		}},
		// The fork-from-snapshot host hot paths: steady-state snapshot
		// encode into a reused buffer (the supervisor's per-round
		// checkpoint), one CKI COW fork of the template and its Discard
		// (the digest index built once, as the churn loop builds it), the
		// KSM's per-vCPU top-copy re-verification (run on every remote
		// leg of a CKI shootdown), and per-page digest resolution against
		// the content-addressed page store (one Lookup per restored page).
		wallclockRow{name: "snapshot/encode_to", zeroAlloc: true, bench: func(b *testing.B) {
			snap := fx.forks(b).snap
			buf := make([]byte, 0, snapshot.Size(snap))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = snapshot.EncodeTo(snap, buf[:0])
			}
		}},
		// The supervisor's periodic capture (SnapshotInterval 1, as the
		// fleet replay runs it) of a booted CKI container holding a file
		// and resident pages: one supervised round whose request does
		// nothing, so the round is the probe and the capture into the
		// container's spare snapshot.
		wallclockRow{name: "supervisor/capture", zeroAlloc: true, bench: func(b *testing.B) {
			cl, err := backends.NewCluster(1 << 16)
			var c *backends.Container
			if err == nil {
				c, err = cl.Add(backends.CKI, backends.Options{GuestFrames: 1 << 12, SegmentFrames: 1 << 11})
			}
			if err == nil {
				_, err = serverlessInit(c.K, 1)
			}
			if err != nil {
				fx.fail(b, fmt.Errorf("supervised container: %w", err))
			}
			pol := backends.DefaultRestartPolicy()
			pol.SnapshotInterval = 1
			sup := backends.NewSupervisor(cl, pol)
			idle := func(int, *backends.Container) error { return nil }
			// Two rounds grow both of the container's snapshots.
			if err := sup.Supervise(2, idle); err != nil {
				fx.fail(b, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sup.Supervise(1, idle); err != nil {
					fx.fail(b, err)
				}
			}
			if h := sup.Health[0]; h.SnapshotErrors != 0 {
				fx.fail(b, fmt.Errorf("%d of %d captures refused", h.SnapshotErrors, h.RoundsOK))
			}
		}},
		wallclockRow{name: "fork/cow", bench: func(b *testing.B) {
			f := fx.forks(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := backends.ForkFromSnapshot(f.m, f.snap, f.idx, f.store, 2, guest.RestoreCOW)
				if err == nil {
					err = backends.Discard(f.m, c)
				}
				if err != nil {
					fx.fail(b, err)
				}
			}
		}},
		wallclockRow{name: "ksm/refresh_top_copy", zeroAlloc: true, bench: func(b *testing.B) {
			c := fx.forks(b).template
			ksm, _, _, _ := c.CKIInternals()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ksm.RefreshTopCopy(c.K.Cur.AS.Root, 0); err != nil {
					fx.fail(b, err)
				}
			}
		}},
		wallclockRow{name: "pagestore/lookup", zeroAlloc: true, bench: func(b *testing.B) {
			ps := fx.pageStore(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ps.Lookup(uint64(i%storeDigests) * 0x9e3779b97f4a7c15); !ok {
					fx.fail(b, errors.New("lookup missed an interned digest"))
				}
			}
		}},
		// The flight recorder's poll in steady state: one op records a
		// 64-span, 64-event round and polls it into full rings, as each
		// supervised round of a machine replay does. The audit log only
		// grows, so every 1024 ops the recorders restart and a fresh
		// flight recorder refills its rings, with the timer stopped.
		wallclockRow{name: "telemetry/flight_poll", zeroAlloc: true, bench: func(b *testing.B) {
			const round, block = 64, 1024
			clk := new(clock.Clock)
			sr := trace.NewSpanRecorder(clk)
			ar := audit.NewRecorder(clk)
			record := func(spans, events int) {
				for j := 0; j < spans; j++ {
					sr.EmitAt("syscall", clk.Now(), clock.Nanosecond, j%2, -1)
					clk.Advance(clock.Nanosecond)
				}
				for j := 0; j < events; j++ {
					ar.Emit(audit.EvSyscall, j%2, 0x101, uint64(j), 0, 0)
				}
			}
			var fr *telemetry.FlightRecorder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%block == 0 {
					b.StopTimer()
					sr.Reset()
					ar.Reset()
					ar.Reserve(telemetry.DefaultEventDepth + block*round)
					fr = telemetry.NewFlightRecorder(0, 0)
					record(telemetry.DefaultSpanDepth, telemetry.DefaultEventDepth)
					fr.Poll(sr, ar)
					sr.Trim()
					b.StartTimer()
				}
				record(round, round)
				fr.Poll(sr, ar)
				sr.Trim()
			}
		}},
		// The digest of one replay-sized postmortem bundle (the shape of
		// the slo experiment's watchdog dumps: 18 series of 12 windows,
		// 1400 spans, 1300 audit events).
		wallclockRow{name: "telemetry/bundle_digest", zeroAlloc: true, bench: func(b *testing.B) {
			bundle := &telemetry.Bundle{Reason: "watchdog", AtNs: 11336482, Node: 1, Runtime: "CKI-BM"}
			for i := 0; i < 18; i++ {
				s := &telemetry.Series{Name: "syscall_latency_ns", Kind: "histogram", FirstTick: 10,
					Labels: map[string]string{"container": metrics.IntStr(i), "node": "1"}}
				for t := 0; t < 12; t++ {
					s.Windows = append(s.Windows, telemetry.Window{Tick: 10 + t, AtNs: int64(5670628 + 515420*t),
						Total: float64(22 + 2*t), Count: 2, P50Ns: 512, P99Ns: 1024.5})
				}
				bundle.Series = append(bundle.Series, s)
			}
			for i := 0; i < 1400; i++ {
				bundle.Spans = append(bundle.Spans, trace.Span{ID: 9000 + i, Parent: 9000 + i - i%4 - 1,
					Phase: "gate_call", At: clock.Time(i) * 7 * clock.Microsecond, Dur: 700 * clock.Nanosecond,
					VCPU: i % 2, PID: 1 + i%3, Node: 1})
			}
			for i := 0; i < 1300; i++ {
				bundle.Events = append(bundle.Events, telemetry.BundleEvent{AtPs: int64(i) * 7_000_000,
					Kind: "syscall", VCPU: i % 2, Detail: "nr=39 reason=pte-update"})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bundleDigest(bundle); err != nil {
					fx.fail(b, err)
				}
			}
		}},
		// One steady-state Store.Scrape of a fleet-probe registry (the slo
		// cell's 20 nodes and store depth), taken after every series'
		// window ring has filled.
		wallclockRow{name: "telemetry/scrape", zeroAlloc: true, bench: func(b *testing.B) {
			reg := metrics.NewRegistry()
			store := telemetry.NewStore(clock.Microsecond, sloTicks+sloBundleRadius)
			probe := telemetry.NewFleetProbe(reg, store, nil, metrics.L("runtime", "CKI-BM"))
			nodes := make([]fleet.Pressure, sloFleet.Nodes)
			for i := range nodes {
				nodes[i] = fleet.Pressure{Node: i + 1, Running: i % 4, Queued: i % 3}
			}
			now := clock.Time(0)
			tick := func() {
				now += clock.Microsecond
				probe.Arrival(now)
				probe.Completed(now, 1, trace.RequestID(now), clock.Time(now%(64*clock.Microsecond)))
			}
			for i := 0; i <= store.Depth; i++ {
				tick()
				probe.Scrape(now, nodes)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
				store.Scrape(reg, now)
			}
		}},
		wallclockRow{name: "des/closed_loop", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wallclockOps, _ = closedLoop.Throughput()
			}
		}},
		wallclockRow{name: "des/smp_loop", bench: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wallclockOps, _, _ = smpLoop.Throughput()
			}
		}},
		// One 256-byte tmpfs journal append; the journal is truncated
		// every 4096 records (1 MiB), as a commit does.
		wallclockRow{name: "guest/file_append", bench: func(b *testing.B) {
			k := fx.container(b, runtimeSpec{backends.RunC, backends.Options{}}).K
			fd, err := k.Open("/journal", true)
			if err != nil {
				fx.fail(b, err)
			}
			rec := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := uint64(i%4096) * 256
				if off == 0 {
					if err := k.Ftruncate(fd, 0); err != nil {
						fx.fail(b, err)
					}
				}
				if _, err := k.Pwrite(fd, rec, off); err != nil {
					fx.fail(b, err)
				}
			}
		}},
	)

	// Fleet control-plane cost per arrival at two fleet sizes: a spread
	// run of ~20k streamed Poisson arrivals at 1.05x capacity on nodes x
	// 4 slots, with a tenth of the nodes evicted at half the horizon.
	// One run lasts only milliseconds, so the row is the best of seven:
	// one run slowed by a loaded host cannot set either point of the
	// flatness gate in Invariants.
	for _, nodes := range []int{50, 1000} {
		rows = append(rows, wallclockRow{name: fmt.Sprintf("fleet/arrival/%dnodes", nodes), bestOf: 7, bench: func(b *testing.B) {
			shape := FleetShape{Scale: 1, Nodes: nodes, SlotsPerNode: 4, QueueLimit: 16, MeanReqs: 8}
			costs := fleet.RuntimeCosts{Boot: 300 * clock.Microsecond, Service: 50 * clock.Microsecond, WarmRestore: 60 * clock.Microsecond}
			rate := 1.05 * shape.capacity(costs)
			h := shape.horizon(20_000, rate)
			arrived := 0 // the same in every run
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := shape.cell(costs, FleetSeed, des.PoissonArrivals(FleetSeed, rate, h), h, fleet.Spread{})
				shape.storm(&cfg, nodes/10, h/2, h/8)
				res, err := fleet.Run(cfg)
				if err != nil {
					fx.fail(b, err)
				}
				arrived = res.Arrived
			}
			if arrived == 0 {
				fx.fail(b, errors.New("no arrivals"))
			}
			b.ReportMetric(float64(arrived), arrivalsPerOp)
		}})
	}
	return rows
}

// measure runs row's benchmark, keeping the fastest of row.bestOf runs,
// and turns a fleet row's per-run costs into per-arrival ones.
func (fx *wallclockFixtures) measure(row wallclockRow) (WallclockBench, error) {
	var best WallclockBench
	var r testing.BenchmarkResult
	for try := 0; try < max(row.bestOf, 1); try++ {
		if r = testing.Benchmark(row.bench); r.N == 0 {
			return best, fmt.Errorf("wallclock: %s: %v", row.name, fx.err)
		}
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); try == 0 || ns < best.NsPerOp {
			best = WallclockBench{Name: row.name, NsPerOp: ns, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
		}
	}
	if arrivals := r.Extra[arrivalsPerOp]; arrivals > 0 {
		best.NsPerOp /= arrivals
		best.AllocsPerOp /= int64(arrivals)
		best.BytesPerOp /= int64(arrivals)
	}
	return best, nil
}

// speedup times run sequentially and fanned out to opts.Parallel
// workers, each leg the best of opts.Reps (minimum wall time, the
// standard way to strip scheduler noise from a throughput measurement).
func speedup(exp string, cells int, opts WallclockOpts, run func(parallel int) error) (WallclockSpeedup, error) {
	var legs [2]time.Duration
	for l, parallel := range []int{1, opts.Parallel} {
		for r := 0; r < opts.Reps; r++ {
			start := time.Now()
			if err := run(parallel); err != nil {
				return WallclockSpeedup{}, err
			}
			if d := time.Since(start); r == 0 || d < legs[l] {
				legs[l] = d
			}
		}
	}
	return WallclockSpeedup{
		Experiment:   exp,
		Cells:        cells,
		Parallel:     opts.Parallel,
		SequentialMs: float64(legs[0].Microseconds()) / 1000,
		ParallelMs:   float64(legs[1].Microseconds()) / 1000,
		Speedup:      float64(legs[0]) / float64(legs[1]),
	}, nil
}

// RunWallclock measures the hot-path table, the flush curve and the
// parallel-runner speedup.
func RunWallclock(opts WallclockOpts) (*WallclockReport, error) {
	opts.defaults()
	defer benchInit(opts.BenchTime)()
	rep := &WallclockReport{
		Scale:      opts.Scale,
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fx := new(wallclockFixtures)
	for _, row := range wallclockRows(fx) {
		e, err := fx.measure(row)
		if err != nil {
			return nil, err
		}
		rep.Benches = append(rep.Benches, e)
	}

	// Flush-vs-capacity curve: invalidate a 64-entry PCID against a
	// nearly-full background at increasing capacities. Each point is
	// the best of opts.Reps benchmarks, so one run slowed by other load
	// on the host cannot bend the curve.
	for _, capacity := range []int{2048, 16384, 65536} {
		e, err := fx.measure(wallclockRow{name: fmt.Sprintf("tlb/flush_pcid_cap%d", capacity), bestOf: opts.Reps, bench: func(b *testing.B) {
			big := tlb.New(capacity)
			for i := 0; i < capacity-128; i++ {
				big.Insert(1, uint64(i)<<mem.PageShift, tlb.Entry{PFN: mem.PFN(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					big.Insert(9, uint64(j)<<mem.PageShift, tlb.Entry{PFN: 1})
				}
				big.FlushPCID(9)
			}
		}})
		if err != nil {
			return nil, err
		}
		rep.FlushByCapacity = append(rep.FlushByCapacity, WallclockFlush{Capacity: capacity, NsPerFlush: e.NsPerOp})
	}

	// Parallel-runner speedup: the full smp grid and the chaos seed
	// sweep, sequential vs fanned out.
	smpGrid, err := speedup("smp", len(smpSpecs())*len(SMPVCPUCounts), opts, func(parallel int) error {
		_, err := RunSMPParallel(opts.Scale, SMPSeed, parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	chaos, err := speedup("chaos", opts.Seeds, opts, func(parallel int) error {
		_, err := RunChaosSweep(opts.Scale, ChaosSeed, opts.Seeds, parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Speedups = []WallclockSpeedup{smpGrid, chaos}
	return rep, nil
}

// runWallclockArtifact measures at the default effort. A host
// measurement has no byte contract, so the run checks its invariants
// itself.
func runWallclockArtifact(o Options) (Report, error) {
	rep, err := RunWallclock(WallclockOpts{Scale: o.Scale})
	if err != nil {
		return nil, err
	}
	return rep, rep.Invariants()
}

// WriteTable writes the JSON report: a host measurement has no table
// form.
func (rep *WallclockReport) WriteTable(w io.Writer) error { return WriteJSON(rep, w) }

// Invariants checks the report's shape and its regression gates: one
// entry per wallclockRows row and no other, the pinned rows at zero
// allocations per op; TLB flush cost stays flat across a 32x capacity
// step (the old O(capacity) scan cost ~32x, so 4x allows generous
// noise); the fleet's cost per arrival stays flat across a 20x
// fleet-size step (placement by scan cost ~9x, so 2x allows noise);
// both speedup entries are populated; and wherever 4 cores ran a
// 4-worker parallel leg, the smp grid speeds up at least 2x.
func (rep *WallclockReport) Invariants() error {
	if rep.HostCPUs < 1 || rep.GoMaxProcs < 1 {
		return fmt.Errorf("wallclock: host section not populated: %d CPUs, GOMAXPROCS %d", rep.HostCPUs, rep.GoMaxProcs)
	}
	byName := map[string]WallclockBench{}
	for _, e := range rep.Benches {
		if e.NsPerOp <= 0 {
			return fmt.Errorf("wallclock: %s: ns_per_op = %v, want > 0", e.Name, e.NsPerOp)
		}
		byName[e.Name] = e
	}
	rows := wallclockRows(nil)
	for _, row := range rows {
		e, ok := byName[row.name]
		if !ok {
			return fmt.Errorf("wallclock: missing bench entry %q", row.name)
		}
		if row.zeroAlloc && e.AllocsPerOp != 0 {
			return fmt.Errorf("wallclock: %s: allocs_per_op %d; want a zero-allocation entry", row.name, e.AllocsPerOp)
		}
	}
	if len(rep.Benches) != len(rows) {
		return fmt.Errorf("wallclock: %d bench entries, want one per table row (%d)", len(rep.Benches), len(rows))
	}
	if len(rep.FlushByCapacity) != 3 {
		return fmt.Errorf("wallclock: flush curve has %d points, want 3", len(rep.FlushByCapacity))
	}
	if lo, hi := rep.FlushByCapacity[0], rep.FlushByCapacity[2]; hi.NsPerFlush > 4*lo.NsPerFlush {
		return fmt.Errorf("wallclock: flush cost scales with capacity: cap %d = %.0fns vs cap %d = %.0fns",
			lo.Capacity, lo.NsPerFlush, hi.Capacity, hi.NsPerFlush)
	}
	small, large := byName["fleet/arrival/50nodes"], byName["fleet/arrival/1000nodes"]
	if large.NsPerOp > 2*small.NsPerOp {
		return fmt.Errorf("wallclock: fleet cost per arrival scales with the fleet: 50 nodes = %.0fns vs 1000 nodes = %.0fns",
			small.NsPerOp, large.NsPerOp)
	}
	if len(rep.Speedups) != 2 {
		return fmt.Errorf("wallclock: %d speedup entries, want 2 (smp, chaos)", len(rep.Speedups))
	}
	for _, s := range rep.Speedups {
		if s.SequentialMs <= 0 || s.ParallelMs <= 0 || s.Speedup <= 0 {
			return fmt.Errorf("wallclock: speedup entry not populated: %+v", s)
		}
		if s.Experiment == "smp" && rep.HostCPUs >= 4 && s.Parallel >= 4 && s.Speedup < 2 {
			return fmt.Errorf("wallclock: smp grid speedup %.2fx at -parallel %d on %d cores, want >= 2x",
				s.Speedup, s.Parallel, rep.HostCPUs)
		}
	}
	return nil
}
