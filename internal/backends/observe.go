package backends

import (
	"repro/internal/audit"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file wires the deterministic observability layer into a booted
// container: one call attaches (or detaches) every observer at every
// instrumented layer, and one call harvests the accumulated counters
// into a metrics registry. All observers are nil-safe no-ops that never
// advance the virtual clock, so observed and unobserved runs take
// byte-identical virtual time.

// Observers is everything that can watch a container. The zero value
// observes nothing.
type Observers struct {
	// Spans records hierarchical flow spans (guest kernel, SMP engine,
	// CKI call gate).
	Spans *trace.SpanRecorder
	// Flow feeds the per-container latency histograms.
	Flow *metrics.FlowMetrics
	// Audit records the machine-event log (CPU, MMU, SMP engine and its
	// vCPUs, guest kernel, CKI call gate).
	Audit *audit.Recorder
}

// Attach wires o into every instrumented layer of the container — the
// CPU, the MMU, the SMP engine and each of its vCPUs, the guest kernel
// and (for CKI) the call gate — replacing what was attached before;
// Attach(Observers{}) detaches. The container remembers o, and a
// supervisor restart attaches it to the replacement. The CPU, MMU and
// engine are machine-wide: on a shared machine they report to the most
// recent attachment.
//
// The audit recorder's clock is repointed at this machine, so one
// recorder can follow sequentially driven machines. NewOnMachine
// attaches Options.Audit before the boot register writes and again once
// the guest kernel exists, so a boot-attached log replays to the exact
// live machine state.
func (c *Container) Attach(o Observers) {
	c.obs = o
	if rec := o.Spans; rec != nil {
		rec.Runtime = c.Name
		rec.Container = c.K.ContainerID
		rec.VCPUFn = func() int { return c.vcpu }
		rec.PIDFn = func() int {
			if c.K.Cur != nil {
				return c.K.Cur.PID
			}
			return 0
		}
	}
	if o.Audit != nil {
		o.Audit.Clk = c.Clk
	}
	c.CPU.Audit = o.Audit
	c.MMU.Audit = o.Audit
	o.Audit.EmitTLBConfig(c.MMU.TLB, c.vcpu)
	if c.smp != nil {
		c.smp.Rec, c.smp.Flow, c.smp.Audit = o.Spans, o.Flow, o.Audit
		for _, v := range c.smp.VCPUs {
			v.CPU.Audit = o.Audit
			v.MMU.Audit = o.Audit
			o.Audit.EmitTLBConfig(v.MMU.TLB, v.ID)
		}
	}
	if c.K != nil {
		c.K.Spans, c.K.Met, c.K.Audit = o.Spans, o.Flow, o.Audit
	}
	if b, ok := c.pv.(*ckiPV); ok {
		b.gate.Rec, b.gate.Audit = o.Spans, o.Audit
	}
}

// auditVMExit and auditVMEntry bracket one world switch of a
// virtualized runtime in the audit log (reason codes in audit's
// VMExit* constants).
func (c *Container) auditVMExit(reason uint64) {
	c.obs.Audit.Emit(audit.EvVMExit, c.vcpu, c.CPU.PCID(), reason, 0, 0)
}

func (c *Container) auditVMEntry(reason uint64) {
	c.obs.Audit.Emit(audit.EvVMEntry, c.vcpu, c.CPU.PCID(), reason, 0, 0)
}

// CollectMetrics harvests the container's accumulated counters — guest
// kernel stats, per-PCID TLB behaviour, privileged-instruction mix and
// (when present) SMP shootdown stats — into reg as labelled series. A
// runtime label is always attached; extra labels (e.g. the vCPU count
// of a bench configuration) distinguish multiple collections of the
// same runtime. Counters carry running totals, so collect each
// (container, label set) at most once per registry. Iteration orders
// are deterministic: the TLB rows come back sorted by PCID and vCPUs
// are walked by index.
func (c *Container) CollectMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	if reg == nil {
		return
	}
	lab := func(more ...metrics.Label) []metrics.Label {
		out := append([]metrics.Label{metrics.L("runtime", c.Name)}, extra...)
		return append(out, more...)
	}
	st := c.K.Stats
	for _, row := range []struct {
		name, help string
		v          uint64
	}{
		{"guest_syscalls_total", "Syscalls served by the guest kernel.", st.Syscalls},
		{"guest_pagefaults_total", "Demand page faults handled.", st.PageFaults},
		{"guest_protfaults_total", "Protection faults handled (COW + SIGSEGV).", st.ProtFaults},
		{"guest_hypercalls_total", "Guest-to-host hypercalls issued.", st.Hypercalls},
		{"guest_ctx_switches_total", "Guest scheduler context switches.", st.CtxSwitches},
		{"guest_timer_ticks_total", "Virtual timer ticks delivered.", st.TimerTicks},
		{"guest_pte_writes_total", "Mediated PTE writes.", st.PTEWrites},
		{"guest_injected_faults_total", "Fault-plan firings observed.", st.InjectedFaults},
		{"guest_panics_total", "Guest kernel panics (0 or 1 per boot).", st.Panics},
		{"guest_tlb_shootdowns_total", "Cross-vCPU shootdowns emitted.", st.TLBShootdowns},
		{"guest_vcpu_migrations_total", "Container moves across vCPUs.", st.VCPUMigrations},
	} {
		reg.Counter(row.name, row.help, lab()...).Add(row.v)
	}

	for _, ps := range c.MMU.TLB.PCIDStats() {
		pl := metrics.L("pcid", metrics.IntStr(int(ps.PCID)))
		reg.Counter("tlb_hits_total", "TLB hits by PCID.", lab(pl)...).Add(ps.Hits)
		reg.Counter("tlb_misses_total", "TLB misses by PCID.", lab(pl)...).Add(ps.Misses)
		if tot := ps.Hits + ps.Misses; tot > 0 {
			reg.Gauge("tlb_hit_ratio", "TLB hit ratio by PCID.", lab(pl)...).
				Set(float64(ps.Hits) / float64(tot))
		}
	}

	collectOps := func(vcpu int, ops opCounts) {
		vl := metrics.L("vcpu", metrics.IntStr(vcpu))
		for _, r := range ops.rows() {
			reg.Counter("cpu_ops_total", "Privileged instructions retired.",
				lab(vl, metrics.L("op", r.name))...).Add(r.n)
		}
	}
	if c.smp != nil {
		for _, v := range c.smp.VCPUs {
			collectOps(v.ID, opCounts(v.CPU.Ops))
			vl := metrics.L("vcpu", metrics.IntStr(v.ID))
			reg.Counter("smp_shootdown_ipis_total", "Shootdown IPIs serviced.", lab(vl)...).Add(v.Stats.ShootdownIPIs)
			reg.Counter("smp_acks_total", "Shootdown acks written.", lab(vl)...).Add(v.Stats.AcksSent)
			reg.Counter("smp_migrations_in_total", "Migrations onto this vCPU.", lab(vl)...).Add(v.Stats.MigrationsIn)
		}
		es := c.smp.Stats
		reg.Counter("smp_shootdowns_total", "End-to-end shootdown runs.", lab()...).Add(es.Shootdowns)
		reg.Counter("smp_ipis_sent_total", "Shootdown IPIs sent.", lab()...).Add(es.IPIsSent)
		reg.Counter("smp_ipis_lost_total", "Shootdown IPIs lost to injection.", lab()...).Add(es.LostIPIs)
		reg.Counter("smp_resends_total", "Shootdown IPI resends.", lab()...).Add(es.Resends)
		reg.Counter("smp_hung_initiators_total", "Shootdowns that timed out.", lab()...).Add(es.HungInitiators)
	} else {
		collectOps(0, opCounts(c.CPU.Ops))
	}
}

// opRow is one privileged-instruction counter row.
type opRow struct {
	name string
	n    uint64
}

// opCounts adapts hw.OpCounts to a deterministic row order.
type opCounts struct {
	WriteCR3, Invlpg, Invpcid, WriteICR, Syscall, Sysret, Swapgs, Wrpkru, Wrpkrs, Iret uint64
}

func (o opCounts) rows() []opRow {
	return []opRow{
		{"invlpg", o.Invlpg},
		{"invpcid", o.Invpcid},
		{"iret", o.Iret},
		{"swapgs", o.Swapgs},
		{"syscall", o.Syscall},
		{"sysret", o.Sysret},
		{"write_cr3", o.WriteCR3},
		{"write_icr", o.WriteICR},
		{"wrpkrs", o.Wrpkrs},
		{"wrpkru", o.Wrpkru},
	}
}
