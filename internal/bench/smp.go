package bench

import (
	"fmt"
	"io"

	"repro/internal/audit"
	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The SMP experiment: every runtime booted at 1/2/4/8 vCPUs on the
// multi-vCPU engine, measuring (a) the end-to-end TLB-shootdown latency
// its unmap path pays — the IPI send through the runtime's native or
// KSM-mediated channel, the remote invalidation, the ack spin — and
// (b) closed-loop throughput when every request retires one mapped
// page, so shootdown cost is the contention term that bends each
// runtime's scaling curve.

// SMPSeed tags the committed BENCH_smp report; the experiment itself is
// fault-free and deterministic by construction.
const SMPSeed = 0x50c1a1

// SMPVCPUCounts are the core counts each runtime is measured at.
var SMPVCPUCounts = []int{1, 2, 4, 8}

// smpServiceReqs is how many requests the 1-vCPU service-time window
// averages over (and how many the breakdown attribution covers).
const smpServiceReqs = 16

// SMPRow is one (runtime, vCPU count) measurement.
type SMPRow struct {
	Runtime     string  `json:"runtime"`
	VCPUs       int     `json:"vcpus"`
	ServiceNs   float64 `json:"service_ns"`
	ShootdownNs float64 `json:"shootdown_latency_ns"`
	Shootdowns  uint64  `json:"shootdowns"`
	IPIsSent    uint64  `json:"ipis_sent"`
	Throughput  float64 `json:"throughput_ops_per_sec"`
	Speedup     float64 `json:"speedup_vs_1vcpu"`
}

// SMPReport is the whole experiment (the -json output).
type SMPReport struct {
	Seed   uint64   `json:"seed"`
	Rounds int      `json:"rounds"`
	Rows   []SMPRow `json:"rows"`
}

// RunSMPParallel executes the SMP experiment with the grid cells fanned
// out to at most parallel goroutines. Deterministic: same scale and
// seed, same report, byte for byte, for any parallel value.
func RunSMPParallel(scale int, seed uint64, parallel int) (*SMPReport, error) {
	return runSMP(scale, seed, nil, parallel)
}

// RunSMPObserved runs the experiment with every observer attached to
// every cell: a span recorder, flow metrics and a machine-event audit
// recorder (attached at boot). The observers are clock-neutral, so the
// profile's report matches RunSMPParallel byte for byte. Each cell
// records into its own recorder and registry, assembled in cell order,
// so the spans, metrics and audit log are byte-identical for any
// parallel value (TLB-config dedup is per-machine, and machines are
// never shared across cells).
func RunSMPObserved(scale int, seed uint64, parallel int) (*SMPProfile, error) {
	prof := &SMPProfile{reg: metrics.NewRegistry(), log: audit.NewRecorder(nil)}
	prof.log.Meta = audit.Meta{Kind: "smp", Seed: seed, Scale: scale}
	rep, err := runSMP(scale, seed, prof, parallel)
	if err != nil {
		return nil, err
	}
	prof.Seed, prof.Rounds, prof.Report = rep.Seed, rep.Rounds, rep
	return prof, nil
}

// RunSMP is the smp artifact experiment: the plain run, or the observed
// one when o names a side output, whose files it then writes.
func RunSMP(o Options) (*SMPReport, error) {
	scale := max(o.Scale, 1)
	if o.TraceOut == "" && o.SpansOut == "" && o.MetricsOut == "" && o.AuditOut == "" {
		return RunSMPParallel(scale, SMPSeed, o.Parallel)
	}
	prof, err := RunSMPObserved(scale, SMPSeed, o.Parallel)
	if err != nil {
		return nil, err
	}
	if err := prof.writeFiles(o); err != nil {
		return nil, err
	}
	return prof.Report, nil
}

// smpSpecs is the runtime axis of the SMP grid.
func smpSpecs() []runtimeSpec {
	return []runtimeSpec{
		{backends.RunC, backends.Options{}},
		{backends.HVM, backends.Options{GuestFrames: 1 << 13}},
		{backends.PVM, backends.Options{GuestFrames: 1 << 13}},
		{backends.CKI, backends.Options{}},
		{backends.GVisor, backends.Options{}},
	}
}

// smpMachine is what one cell's machine stage leaves for the DES stage
// and the assembly once its container is gone.
type smpMachine struct {
	runtime string
	// service is the measured per-request service time (1-vCPU cells
	// only).
	service    clock.Time
	shoot      clock.Time
	shootdowns uint64
	ipis       uint64
	// The cell's observers (observed runs only).
	run *SMPRun
	reg *metrics.Registry
	log *audit.Recorder
}

// runSMP drives the experiment, capturing spans, metrics and machine
// events into prof when it is set. The observers never advance the
// virtual clock, so the returned report is byte-identical with and
// without them.
//
// The grid is executed as independent cells — one (runtime, vCPU
// count) pair each, with its own machine, clock and observers — in two
// RunIndexed stages fanned out to at most parallel goroutines. The
// machine stage runs every cell's container; the DES stage then runs
// every cell's closed loop from its runtime's 1-vCPU service time, and
// the speedup column divides by the 1-vCPU throughput once both stages
// are done. Cell outputs land in per-cell slots and are assembled in
// fixed cell order, so rows, spans, metrics, and audit events come out
// byte-identical to a sequential run regardless of parallel.
func runSMP(scale int, seed uint64, prof *SMPProfile, parallel int) (*SMPReport, error) {
	specs := smpSpecs()
	rounds := 8 * scale
	nVC := len(SMPVCPUCounts)
	nCells := len(specs) * nVC
	machines := make([]smpMachine, nCells)
	err := RunIndexed(parallel, nCells, func(ci int) error {
		s := specs[ci/nVC]
		n := SMPVCPUCounts[ci%nVC]
		m := &machines[ci]
		opts := s.opts
		opts.NumVCPU = n
		if prof != nil {
			m.log = audit.NewRecorder(nil)
			opts.Audit = m.log
		}
		c, err := backends.New(s.kind, opts)
		if err != nil {
			return fmt.Errorf("smp: boot %v x%d: %w", s.kind, n, err)
		}
		m.runtime = c.Name
		var sr *trace.SpanRecorder
		if prof != nil {
			m.reg = metrics.NewRegistry()
			sr = trace.NewSpanRecorder(c.Clk)
			fm := metrics.NewFlowMetrics(m.reg,
				metrics.L("runtime", c.Name), metrics.L("vcpus", itoa(n)))
			c.Attach(backends.Observers{Spans: sr, Flow: fm, Audit: m.log})
			m.run = &SMPRun{Runtime: c.Name, VCPUs: n}
		}
		// Warm the allocator and page tables off the clock reading.
		for i := 0; i < 4; i++ {
			if err := workloads.PageRequest(c.K); err != nil {
				return err
			}
		}
		if n == 1 {
			// Base per-request service time, free of shootdowns.
			start := c.Clk.Now()
			for i := 0; i < smpServiceReqs; i++ {
				if err := workloads.PageRequest(c.K); err != nil {
					return err
				}
			}
			m.service = (c.Clk.Now() - start) / smpServiceReqs
			if m.run != nil {
				m.run.ServiceLoPs = int64(start)
				m.run.ServiceHiPs = int64(c.Clk.Now())
			}
		}
		// Drive the container across all its vCPUs so every unmap
		// broadcasts to warm sibling TLBs.
		for r := 0; r < rounds; r++ {
			for v := 0; v < n; v++ {
				if err := c.MigrateVCPU(v); err != nil {
					return err
				}
				if err := workloads.PageRequest(c.K); err != nil {
					return err
				}
			}
		}
		if e := c.SMPEngine(); e != nil && n > 1 {
			m.shoot = e.Stats.MeanShootdown()
			m.shootdowns = e.Stats.Shootdowns
			m.ipis = e.Stats.IPIsSent
			if m.run != nil {
				m.run.Shootdowns = e.Stats.Shootdowns
				m.run.ShootdownTotalPs = int64(e.Stats.TotalLatency)
			}
		}
		if prof != nil {
			m.run.Spans = sr.Spans()
			c.CollectMetrics(m.reg, metrics.L("vcpus", itoa(n)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The DES stage. SMPVCPUCounts starts at 1, so a runtime's 1-vCPU
	// cell is the first of its nVC.
	rows := make([]SMPRow, nCells)
	err = RunIndexed(parallel, nCells, func(ci int) error {
		m := &machines[ci]
		n := SMPVCPUCounts[ci%nVC]
		service := machines[ci-ci%nVC].service
		// Closed-loop throughput: one shootdown per retired request
		// (each unmaps one resident page); siblings lose roughly the
		// remote handler's share of the measured latency.
		sl := des.SMPLoop{
			Clients: 4 * n,
			VCPUs:   n,
			RTT:     20 * clock.Microsecond,
			Service: func(int) clock.Time { return service },
			Horizon: clock.Time(scale) * 20 * clock.Millisecond,
		}
		if n > 1 {
			sl.ShootdownEvery = 1
			sl.ShootdownStall = m.shoot
			sl.RemoteStall = m.shoot / 2
		}
		if m.reg != nil {
			h := m.reg.Histogram("smp_request_latency_ns",
				"Closed-loop response latency in the DES throughput model.", nil,
				metrics.L("runtime", m.runtime), metrics.L("vcpus", itoa(n)))
			sl.Observe = h.Observe
		}
		ops, _, _ := sl.Throughput()
		rows[ci] = SMPRow{
			Runtime:     m.runtime,
			VCPUs:       n,
			ServiceNs:   float64(service) / float64(clock.Nanosecond),
			ShootdownNs: float64(m.shoot) / float64(clock.Nanosecond),
			Shootdowns:  m.shootdowns,
			IPIsSent:    m.ipis,
			Throughput:  ops,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci := range rows {
		if base := rows[ci-ci%nVC].Throughput; base > 0 {
			rows[ci].Speedup = rows[ci].Throughput / base
		}
	}

	// Assemble per-cell outputs in fixed cell order, reproducing the
	// sequential artifacts byte for byte.
	rep := &SMPReport{Seed: seed, Rounds: rounds, Rows: rows}
	if prof != nil {
		total := 0
		for i := range machines {
			m := &machines[i]
			prof.Runs = append(prof.Runs, m.run)
			prof.reg.Merge(m.reg)
			total += m.log.Len()
		}
		prof.log.Reserve(total)
		for i := range machines {
			prof.log.AppendFrom(machines[i].log)
		}
	}
	return rep, nil
}

// WriteTable renders the report as the scaling table.
func (rep *SMPReport) WriteTable(w io.Writer) error {
	t := NewTable("Multi-core scaling and TLB-shootdown latency (SMP engine)",
		"runtime", "vCPUs", "service/req", "shootdown", "throughput (op/s)", "speedup")
	for _, r := range rep.Rows {
		shoot := "-"
		if r.VCPUs > 1 {
			shoot = fmt.Sprintf("%.0fns", r.ShootdownNs)
		}
		t.Row(r.Runtime, itoa(r.VCPUs), fmt.Sprintf("%.0fns", r.ServiceNs), shoot,
			fmt.Sprintf("%.0f", r.Throughput), fmt.Sprintf("%.2fx", r.Speedup))
	}
	t.Note("every request retires one mapped page, so each one broadcasts a shootdown;")
	t.Note("CKI's KSM-mediated IPI (one gate hypercall) stays near RunC's native cost,")
	t.Note("while HVM pays a VM exit per IPI leg and flattens first")
	_, err := t.WriteTo(w)
	return err
}

// Invariants checks that every (runtime, vCPU count) cell is present in
// grid order, that every multi-vCPU cell actually shot down TLBs at a
// positive latency, and that the 1-vCPU cells are the shootdown-free
// speedup baseline.
func (rep *SMPReport) Invariants() error {
	if want := len(smpSpecs()) * len(SMPVCPUCounts); len(rep.Rows) != want {
		return fmt.Errorf("smp: %d rows, want %d", len(rep.Rows), want)
	}
	for i, r := range rep.Rows {
		if want := SMPVCPUCounts[i%len(SMPVCPUCounts)]; r.VCPUs != want {
			return fmt.Errorf("smp: row %d (%s) has %d vCPUs, want %d", i, r.Runtime, r.VCPUs, want)
		}
		if r.Throughput <= 0 {
			return fmt.Errorf("smp: %s @%d vCPUs: throughput %v", r.Runtime, r.VCPUs, r.Throughput)
		}
		if r.VCPUs == 1 {
			if r.Speedup != 1 || r.Shootdowns != 0 {
				return fmt.Errorf("smp: %s @1 vCPU: speedup %v, %d shootdowns; want 1 and 0",
					r.Runtime, r.Speedup, r.Shootdowns)
			}
			continue
		}
		if r.Shootdowns == 0 || r.IPIsSent == 0 || r.ShootdownNs <= 0 {
			return fmt.Errorf("smp: %s @%d vCPUs: no shootdown traffic (%d shootdowns, %d IPIs, %vns)",
				r.Runtime, r.VCPUs, r.Shootdowns, r.IPIsSent, r.ShootdownNs)
		}
	}
	return nil
}

// WriteSMPReportJSON writes an already-computed report in the exact
// encoding of the committed BENCH_smp artifact.
func WriteSMPReportJSON(rep *SMPReport, w io.Writer) error { return WriteJSON(rep, w) }
