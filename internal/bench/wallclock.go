package bench

import (
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
// pins the per-benchmark budget. testing.Init is idempotent, so this is
// safe inside `go test` processes too.
var benchInitOnce sync.Once

func benchInit(d time.Duration) {
	benchInitOnce.Do(testing.Init)
	if f := flag.Lookup("test.benchtime"); f != nil {
		_ = f.Value.Set(d.String())
	}
}

// runBench executes one micro-benchmark and folds it into a report row.
func runBench(name string, fn func(b *testing.B)) WallclockBench {
	r := testing.Benchmark(fn)
	return WallclockBench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// wallclockEngine builds a bare n-vCPU SMP engine for the shootdown
// micro-benchmark (no container, no observers — the protocol alone).
func wallclockEngine(n int) (*smp.Engine, error) {
	costs := clock.DefaultCosts()
	m := mem.New(256)
	cpu := hw.NewCPU(0, true)
	unit := mmu.New(m, costs)
	cpu.SetTLBHooks(unit.Hooks())
	return smp.New(new(clock.Clock), costs, m, cpu, unit, n)
}

// measureWall times fn best-of-reps (minimum wall time, the standard
// way to strip scheduler noise from a throughput measurement).
func measureWall(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// fleetArrivalBench measures fleet.Run per arrival on nodes x 4 slots:
// a spread run of ~20k streamed Poisson arrivals at 1.05x capacity, with
// a tenth of the nodes evicted at half the horizon. The row is the best
// of three benchmarks, since one run lasts only milliseconds.
func fleetArrivalBench(nodes int) (WallclockBench, error) {
	shape := FleetShape{Scale: 1, Nodes: nodes, SlotsPerNode: 4, QueueLimit: 16, MeanReqs: 8}
	costs := fleet.RuntimeCosts{Boot: 300 * clock.Microsecond, Service: 50 * clock.Microsecond, WarmRestore: 60 * clock.Microsecond}
	rate := 1.05 * shape.capacity(costs)
	h := shape.horizon(20_000, rate)
	var best WallclockBench
	var runErr error
	arrived := 0 // the same in every run
	for try := 0; try < 3 && runErr == nil; try++ {
		row := runBench(fmt.Sprintf("fleet/arrival/%dnodes", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N && runErr == nil; i++ {
				cfg := shape.cell(costs, FleetSeed, des.PoissonArrivals(FleetSeed, rate, h), h, fleet.Spread{})
				shape.storm(&cfg, nodes/10, h/2, h/8)
				var res *fleet.Result
				res, runErr = fleet.Run(cfg)
				if runErr == nil {
					arrived = res.Arrived
				}
			}
		})
		if try == 0 || row.NsPerOp < best.NsPerOp {
			best = row
		}
	}
	if runErr != nil {
		return best, fmt.Errorf("wallclock: fleet run on %d nodes: %w", nodes, runErr)
	}
	if arrived == 0 {
		return best, fmt.Errorf("wallclock: fleet run on %d nodes: no arrivals", nodes)
	}
	best.NsPerOp /= float64(arrived)
	best.AllocsPerOp /= int64(arrived)
	best.BytesPerOp /= int64(arrived)
	return best, nil
}

// flightPollBench measures the flight recorder's poll in steady state:
// one op records a 64-span, 64-event round and polls it into full
// rings, as each supervised round of a machine replay does. The audit
// log only grows, so every 1024 ops the recorders restart and a fresh
// flight recorder refills its rings, with the timer stopped.
func flightPollBench() WallclockBench {
	return runBench("telemetry/flight_poll", func(b *testing.B) {
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
	})
}

// bundleDigestBench measures the digest of one replay-sized
// postmortem bundle (the shape of the slo experiment's watchdog dumps:
// 18 series of 12 windows, 1400 spans, 1300 audit events).
func bundleDigestBench() (WallclockBench, error) {
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
	var digestErr error
	row := runBench("telemetry/bundle_digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && digestErr == nil; i++ {
			_, digestErr = bundleDigest(bundle)
		}
	})
	if digestErr != nil {
		return row, fmt.Errorf("wallclock: bundle digest: %w", digestErr)
	}
	return row, nil
}

// scrapeBench measures one steady-state Store.Scrape of a fleet-probe
// registry (the slo cell's 20 nodes and store depth), taken after every
// series' window ring has filled.
func scrapeBench() WallclockBench {
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
	return runBench("telemetry/scrape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tick()
			store.Scrape(reg, now)
		}
	})
}

// RunWallclock measures the hot paths and the parallel-runner speedup.
func RunWallclock(opts WallclockOpts) (*WallclockReport, error) {
	opts.defaults()
	benchInit(opts.BenchTime)
	rep := &WallclockReport{
		Scale:      opts.Scale,
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Per-runtime flows: the trivial syscall and one full grid-cell
	// round (migrate + map/touch/unmap across 2 vCPUs).
	for _, s := range smpSpecs() {
		o := s.opts
		c, err := backends.New(s.kind, o)
		if err != nil {
			return nil, fmt.Errorf("wallclock: boot %v: %w", s.kind, err)
		}
		c.K.Getpid() // steady state
		rep.Benches = append(rep.Benches, runBench("getpid_flow/"+c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.K.Getpid()
			}
		}))

		o2 := s.opts
		o2.NumVCPU = 2
		c2, err := backends.New(s.kind, o2)
		if err != nil {
			return nil, fmt.Errorf("wallclock: boot %v x2: %w", s.kind, err)
		}
		for i := 0; i < 4; i++ {
			if err := workloads.PageRequest(c2.K); err != nil {
				return nil, err
			}
		}
		var cellErr error
		rep.Benches = append(rep.Benches, runBench("smp_cell_round/"+c2.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v < 2; v++ {
					if err := c2.MigrateVCPU(v); err != nil {
						cellErr = err
						return
					}
					if err := workloads.PageRequest(c2.K); err != nil {
						cellErr = err
						return
					}
				}
			}
		}))
		if cellErr != nil {
			return nil, fmt.Errorf("wallclock: smp cell %v: %w", s.kind, cellErr)
		}
	}

	// The shootdown protocol, bare.
	e, err := wallclockEngine(8)
	if err != nil {
		return nil, err
	}
	sdSpec := smp.ShootdownSpec{Initiator: 0, Targets: e.Others(0, 8), PCID: 0x101, VA: 0x4000}
	var sdErr error
	rep.Benches = append(rep.Benches, runBench("shootdown/8vcpu", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Shootdown(sdSpec); err != nil {
				sdErr = err
				return
			}
		}
	}))
	if sdErr != nil {
		return nil, fmt.Errorf("wallclock: shootdown: %w", sdErr)
	}

	// TLB hot paths at default capacity.
	tl := tlb.New(tlb.DefaultCapacity)
	for i := 0; i < 2*tlb.DefaultCapacity; i++ {
		tl.Insert(1, uint64(i)<<mem.PageShift, tlb.Entry{PFN: mem.PFN(i)})
	}
	rep.Benches = append(rep.Benches,
		runBench("tlb/lookup_hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl.Lookup(1, uint64(2*tlb.DefaultCapacity-1-i%1024)<<mem.PageShift)
			}
		}),
		runBench("tlb/insert_evict", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl.Insert(1, uint64(2*tlb.DefaultCapacity+i)<<mem.PageShift, tlb.Entry{PFN: 1})
			}
		}),
		runBench("tlb/flush_page_reinsert", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				va := uint64(2*tlb.DefaultCapacity+i) << mem.PageShift
				tl.Insert(1, va, tlb.Entry{PFN: 1})
				tl.FlushPage(1, va)
			}
		}),
	)

	// Physical-memory word access: every page-table walk step and every
	// KSM entry check is one ReadWord. The 64 frames span every chunk of
	// a host-sized memory.
	pm := mem.New(1 << 16)
	for p := mem.PFN(1); p < 1<<16; p += 1 << 10 {
		pm.WriteWord(p.Addr(), uint64(p))
	}
	var word uint64
	rep.Benches = append(rep.Benches, runBench("mem/read_word", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			word += pm.ReadWord(mem.PFN(1+(i%64)<<10).Addr() + uint64(i%mem.WordsPerPage)*8)
		}
	}))

	// Audit record emission (reserved recorder) and nil-observer span
	// emission — the two per-event observability costs.
	rep.Benches = append(rep.Benches,
		runBench("audit/record", func(b *testing.B) {
			r := audit.NewRecorder(new(clock.Clock))
			r.Reserve(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Emit(audit.EvSyscall, 0, 0x101, uint64(i), 0, 0)
			}
		}),
		runBench("trace/span_nil", func(b *testing.B) {
			var r *trace.SpanRecorder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.End(r.Begin("syscall"))
			}
		}),
	)

	// Request-trace emission, per segment, over six-segment request
	// lifecycles: the log's chunk, header and index growth amortizes
	// to zero allocations per segment.
	lifecycle := [...]string{trace.SegArrival, trace.SegPlacement, trace.SegQueue, trace.SegBoot, trace.SegService, trace.SegComplete}
	rep.Benches = append(rep.Benches, runBench("trace/request_emit", func(b *testing.B) {
		r := trace.NewRequestRecorder()
		var id trace.RequestID
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(lifecycle) == 0 {
				id = trace.MintRequestID(1, i/len(lifecycle))
			}
			r.Emit(id, lifecycle[i%len(lifecycle)], clock.Time(i), 1, i%16, "")
		}
	}))

	// The fork-from-snapshot host hot paths: steady-state snapshot
	// encode into a reused buffer (the supervisor's per-round
	// checkpoint), a whole COW fork, and per-page digest resolution
	// against the content-addressed page store (one Lookup per
	// restored page).
	sc, err := backends.New(backends.CKI, backends.Options{TLBEntries: serverlessTLBEntries})
	if err != nil {
		return nil, fmt.Errorf("wallclock: snapshot boot: %w", err)
	}
	if _, err := serverlessInit(sc.K, 1); err != nil {
		return nil, fmt.Errorf("wallclock: snapshot init: %w", err)
	}
	snap, err := backends.Checkpoint(sc)
	if err != nil {
		return nil, fmt.Errorf("wallclock: checkpoint: %w", err)
	}
	encBuf := make([]byte, 0, snapshot.Size(snap))
	rep.Benches = append(rep.Benches, runBench("snapshot/encode_to", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encBuf = snapshot.EncodeTo(snap, encBuf[:0])
		}
	}))
	// One CKI COW fork of the template and its Discard, with the digest
	// index built once outside the loop as the churn loop builds it.
	fm, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
	if err != nil {
		return nil, fmt.Errorf("wallclock: fork machine: %w", err)
	}
	fidx, fstore := snapshot.NewDigestIndex(snap), snapshot.NewPageStore(fm.HostMem)
	var forkErr error
	rep.Benches = append(rep.Benches, runBench("fork/cow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := backends.ForkFromSnapshot(fm, snap, fidx, fstore, 2, backends.ForkCOW)
			if err == nil {
				err = backends.Discard(fm, f)
			}
			if err != nil {
				forkErr = err
				return
			}
		}
	}))
	if forkErr != nil {
		return nil, fmt.Errorf("wallclock: fork: %w", forkErr)
	}
	// The KSM's per-vCPU top-copy re-verification, run on every remote
	// leg of a CKI shootdown.
	ksm, _, _, _ := sc.CKIInternals()
	var refreshErr error
	rep.Benches = append(rep.Benches, runBench("ksm/refresh_top_copy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ksm.RefreshTopCopy(sc.K.Cur.AS.Root, 0); err != nil {
				refreshErr = err
				return
			}
		}
	}))
	if refreshErr != nil {
		return nil, fmt.Errorf("wallclock: refresh top copy: %w", refreshErr)
	}
	ps := snapshot.NewPageStore(mem.New(1 << 12))
	const storeDigests = 512
	for d := uint64(0); d < storeDigests; d++ {
		if _, err := ps.Intern(d * 0x9e3779b97f4a7c15); err != nil {
			return nil, fmt.Errorf("wallclock: pagestore: %w", err)
		}
	}
	psMiss := false
	rep.Benches = append(rep.Benches, runBench("pagestore/lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ps.Lookup(uint64(i%storeDigests) * 0x9e3779b97f4a7c15); !ok {
				psMiss = true
				return
			}
		}
	}))
	if psMiss {
		return nil, fmt.Errorf("wallclock: pagestore lookup missed an interned digest")
	}

	// The telemetry observers' per-round hot paths.
	digest, err := bundleDigestBench()
	if err != nil {
		return nil, err
	}
	rep.Benches = append(rep.Benches, flightPollBench(), digest, scrapeBench())

	// Fleet control-plane cost per arrival at two fleet sizes.
	for _, nodes := range []int{50, 1000} {
		row, err := fleetArrivalBench(nodes)
		if err != nil {
			return nil, err
		}
		rep.Benches = append(rep.Benches, row)
	}

	// Flush-vs-capacity curve: invalidate a 64-entry PCID against a
	// nearly-full background at increasing capacities. Each point is
	// the best of opts.Reps benchmarks, like measureWall, so one run
	// slowed by other load on the host cannot bend the curve.
	for _, cap := range []int{2048, 16384, 65536} {
		cap := cap
		best := 0.0
		for r := 0; r < opts.Reps; r++ {
			res := runBench(fmt.Sprintf("tlb/flush_pcid_cap%d", cap), func(b *testing.B) {
				big := tlb.New(cap)
				for i := 0; i < cap-128; i++ {
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
			})
			if r == 0 || res.NsPerOp < best {
				best = res.NsPerOp
			}
		}
		rep.FlushByCapacity = append(rep.FlushByCapacity, WallclockFlush{
			Capacity:   cap,
			NsPerFlush: best,
		})
	}

	// Parallel-runner speedup: the full smp grid and the chaos seed
	// sweep, sequential vs fanned out.
	seqSMP, err := measureWall(opts.Reps, func() error {
		_, err := RunSMPParallel(opts.Scale, SMPSeed, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	parSMP, err := measureWall(opts.Reps, func() error {
		_, err := RunSMPParallel(opts.Scale, SMPSeed, opts.Parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, WallclockSpeedup{
		Experiment:   "smp",
		Cells:        len(smpSpecs()) * len(SMPVCPUCounts),
		Parallel:     opts.Parallel,
		SequentialMs: float64(seqSMP.Microseconds()) / 1000,
		ParallelMs:   float64(parSMP.Microseconds()) / 1000,
		Speedup:      float64(seqSMP) / float64(parSMP),
	})

	seqChaos, err := measureWall(opts.Reps, func() error {
		_, err := RunChaosSweep(opts.Scale, ChaosSeed, opts.Seeds, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	parChaos, err := measureWall(opts.Reps, func() error {
		_, err := RunChaosSweep(opts.Scale, ChaosSeed, opts.Seeds, opts.Parallel)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Speedups = append(rep.Speedups, WallclockSpeedup{
		Experiment:   "chaos",
		Cells:        opts.Seeds,
		Parallel:     opts.Parallel,
		SequentialMs: float64(seqChaos.Microseconds()) / 1000,
		ParallelMs:   float64(parChaos.Microseconds()) / 1000,
		Speedup:      float64(seqChaos) / float64(parChaos),
	})
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

// Invariants checks the report's shape and its regression gates: every
// hot path is measured, the pinned ones at zero allocations per op; TLB
// flush cost stays flat across a 32x capacity step (the old O(capacity)
// scan cost ~32x, so 4x allows generous noise); the fleet's cost per
// arrival stays flat across a 20x fleet-size step (placement by scan
// cost ~9x, so 2x allows noise); both speedup entries are
// populated; and wherever 4 cores ran a 4-worker parallel leg, the smp
// grid speeds up at least 2x.
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
	for _, name := range []string{"getpid_flow/RunC", "getpid_flow/CKI-BM", "smp_cell_round/RunC", "smp_cell_round/CKI-BM", "fork/cow"} {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("wallclock: missing bench entry %q", name)
		}
	}
	for _, name := range []string{
		"shootdown/8vcpu", "tlb/lookup_hit", "tlb/insert_evict",
		"tlb/flush_page_reinsert", "audit/record", "trace/span_nil",
		"trace/request_emit",
		"snapshot/encode_to", "pagestore/lookup", "mem/read_word",
		"ksm/refresh_top_copy",
		"telemetry/flight_poll", "telemetry/bundle_digest", "telemetry/scrape",
	} {
		e, ok := byName[name]
		if !ok || e.AllocsPerOp != 0 {
			return fmt.Errorf("wallclock: %s: present %v, allocs_per_op %d; want a zero-allocation entry", name, ok, e.AllocsPerOp)
		}
	}
	if len(rep.FlushByCapacity) != 3 {
		return fmt.Errorf("wallclock: flush curve has %d points, want 3", len(rep.FlushByCapacity))
	}
	if lo, hi := rep.FlushByCapacity[0], rep.FlushByCapacity[2]; hi.NsPerFlush > 4*lo.NsPerFlush {
		return fmt.Errorf("wallclock: flush cost scales with capacity: cap %d = %.0fns vs cap %d = %.0fns",
			lo.Capacity, lo.NsPerFlush, hi.Capacity, hi.NsPerFlush)
	}
	small, okSmall := byName["fleet/arrival/50nodes"]
	large, okLarge := byName["fleet/arrival/1000nodes"]
	if !okSmall || !okLarge {
		return fmt.Errorf("wallclock: missing fleet/arrival rows: 50 nodes %v, 1000 nodes %v", okSmall, okLarge)
	}
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
