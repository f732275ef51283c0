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
	return runSMP(scale, seed, nil, nil, parallel)
}

// RunSMPAuditedParallel runs the experiment with a machine-event
// recorder attached at boot to every container in the matrix. The
// recorder is clock-neutral, so the report matches RunSMPParallel byte
// for byte. Every cell boots with its own recorder and the per-cell
// logs are concatenated in cell order, so the log spans all (runtime,
// vCPU) configurations in experiment order for any parallel value
// (TLB-config dedup is per-machine, and machines are never shared
// across cells).
func RunSMPAuditedParallel(scale int, seed uint64, rec *audit.Recorder, parallel int) (*SMPReport, error) {
	if rec != nil {
		rec.Meta = audit.Meta{Kind: "smp", Seed: seed, Scale: scale}
	}
	return runSMP(scale, seed, nil, rec, parallel)
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

// runSMP drives the experiment, optionally capturing spans and metrics
// into prof and machine events into rec. The observers never advance
// the virtual clock, so the returned report is byte-identical with and
// without them.
//
// The grid is executed as independent cells — one (runtime, vCPU
// count) pair each, with its own machine, clock, observers, and (when
// auditing) recorder — fanned out to at most parallel goroutines by
// RunIndexed. Cell outputs land in per-cell slots and are assembled in
// fixed cell order afterwards, so rows, spans, metrics, and audit
// events come out byte-identical to a sequential run regardless of
// parallel. The one cross-cell dependency — an n>1 cell needs its
// runtime's 1-vCPU service time and base throughput for the DES stage
// and speedup column — is carried by a per-runtime svcShare; only the
// (cheap) DES stage waits on it, never the machine simulation.
func runSMP(scale int, seed uint64, prof *SMPProfile, rec *audit.Recorder, parallel int) (*SMPReport, error) {
	specs := smpSpecs()
	rounds := 8 * scale
	nVC := len(SMPVCPUCounts)
	nCells := len(specs) * nVC
	rows := make([]SMPRow, nCells)
	var runs []*SMPRun
	var regs []*metrics.Registry
	var recs []*audit.Recorder
	if prof != nil {
		runs = make([]*SMPRun, nCells)
		regs = make([]*metrics.Registry, nCells)
	}
	if rec != nil {
		recs = make([]*audit.Recorder, nCells)
	}
	shares := make([]*svcShare, len(specs))
	for i := range shares {
		shares[i] = newSvcShare()
	}
	err := RunIndexed(parallel, nCells, func(ci int) error {
		s := specs[ci/nVC]
		n := SMPVCPUCounts[ci%nVC]
		share := shares[ci/nVC]
		if n == 1 {
			// If this cell errors out before publishing, release the
			// runtime's dependents with a failure marker (publish is
			// idempotent, so a successful publish below wins).
			defer share.publish(0, 0, false)
		}
		opts := s.opts
		opts.NumVCPU = n
		if rec != nil {
			recs[ci] = audit.NewRecorder(nil)
			opts.Audit = recs[ci]
		}
		c, err := backends.New(s.kind, opts)
		if err != nil {
			return fmt.Errorf("smp: boot %v x%d: %w", s.kind, n, err)
		}
		var sr *trace.SpanRecorder
		var run *SMPRun
		var cellReg *metrics.Registry
		if prof != nil {
			cellReg = metrics.NewRegistry()
			regs[ci] = cellReg
			sr = trace.NewSpanRecorder(c.Clk)
			fm := metrics.NewFlowMetrics(cellReg,
				metrics.L("runtime", c.Name), metrics.L("vcpus", itoa(n)))
			c.Attach(backends.Observers{Spans: sr, Flow: fm, Audit: opts.Audit})
			run = &SMPRun{Runtime: c.Name, VCPUs: n}
			runs[ci] = run
		}
		// Warm the allocator and page tables off the clock reading.
		for i := 0; i < 4; i++ {
			if err := workloads.PageRequest(c.K); err != nil {
				return err
			}
		}
		var service clock.Time
		if n == 1 {
			// Base per-request service time, free of shootdowns.
			start := c.Clk.Now()
			for i := 0; i < smpServiceReqs; i++ {
				if err := workloads.PageRequest(c.K); err != nil {
					return err
				}
			}
			service = (c.Clk.Now() - start) / smpServiceReqs
			if run != nil {
				run.ServiceLoPs = int64(start)
				run.ServiceHiPs = int64(c.Clk.Now())
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
		// Machine simulation is done; from here on only the DES stage
		// remains, which for n>1 needs the 1-vCPU cell's outputs.
		var tput1 float64
		if n > 1 {
			if !share.wait() {
				return fmt.Errorf("smp: %v x%d: 1-vCPU cell failed", s.kind, n)
			}
			service, tput1 = share.service, share.tput1
		}
		row := SMPRow{
			Runtime:   c.Name,
			VCPUs:     n,
			ServiceNs: float64(service) / float64(clock.Nanosecond),
		}
		var shoot clock.Time
		if e := c.SMPEngine(); e != nil && n > 1 {
			shoot = e.Stats.MeanShootdown()
			row.ShootdownNs = float64(shoot) / float64(clock.Nanosecond)
			row.Shootdowns = e.Stats.Shootdowns
			row.IPIsSent = e.Stats.IPIsSent
			if run != nil {
				run.Shootdowns = e.Stats.Shootdowns
				run.ShootdownTotalPs = int64(e.Stats.TotalLatency)
			}
		}
		if prof != nil {
			run.Spans = sr.Spans()
			c.CollectMetrics(cellReg, metrics.L("vcpus", itoa(n)))
		}
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
			sl.ShootdownStall = shoot
			sl.RemoteStall = shoot / 2
		}
		if prof != nil {
			h := cellReg.Histogram("smp_request_latency_ns",
				"Closed-loop response latency in the DES throughput model.", nil,
				metrics.L("runtime", c.Name), metrics.L("vcpus", itoa(n)))
			sl.Observe = h.Observe
		}
		ops, _, _ := sl.Throughput()
		row.Throughput = ops
		if n == 1 {
			tput1 = ops
			share.publish(service, ops, true)
		}
		if tput1 > 0 {
			row.Speedup = ops / tput1
		}
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Assemble per-cell outputs in fixed cell order, reproducing the
	// sequential artifacts byte for byte.
	rep := &SMPReport{Seed: seed, Rounds: rounds, Rows: rows}
	if prof != nil {
		prof.Runs = append(prof.Runs, runs...)
		for _, r := range regs {
			prof.reg.Merge(r)
		}
	}
	if rec != nil {
		total := 0
		for _, r := range recs {
			total += r.Len()
		}
		rec.Reserve(total)
		for _, r := range recs {
			rec.AppendFrom(r)
		}
	}
	return rep, nil
}

// runSMPArtifact runs the experiment under whichever observers the side
// outputs need; the report is byte-identical either way, because the
// observers never advance the virtual clock.
func runSMPArtifact(o Options) (Report, error) {
	switch {
	case o.TraceOut != "" || o.SpansOut != "" || o.MetricsOut != "":
		prof, err := RunSMPProfiledParallel(o.Scale, SMPSeed, o.Parallel)
		if err != nil {
			return nil, err
		}
		return prof.Report, prof.writeFiles(o)
	case o.AuditOut != "":
		rec := audit.NewRecorder(nil)
		rep, err := RunSMPAuditedParallel(o.Scale, SMPSeed, rec, o.Parallel)
		if err != nil {
			return nil, err
		}
		return rep, rec.WriteFile(o.AuditOut)
	}
	return RunSMPParallel(o.Scale, SMPSeed, o.Parallel)
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
