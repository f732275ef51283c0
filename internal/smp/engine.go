// Package smp is the deterministic multi-vCPU execution engine. Each
// vCPU is one hw.CPU with its own PCID-tagged TLB (an mmu.Unit over the
// shared physical memory) and its own pending-IPI queue; a per-vCPU
// runqueue scheduler (sched.go) places guest processes.
//
// The engine's centerpiece is the TLB-shootdown protocol every mediated
// PTE downgrade must run on a multi-vCPU container: the initiator posts
// VectorIPI to every sibling vCPU, each remote invalidates the stale
// translation (invlpg / invpcid) and writes the shared ack mask, and the
// initiator spins — with clock-accounted wait — until the mask is full.
// Under CKI the IPI is KSM-mediated (HcSendIPI through the switcher; a
// guest writing the ICR directly faults) and the remote handler also
// refreshes that vCPU's top-level PTP copy; RunC/HVM/PVM pay their
// native broadcast costs. Runtimes parameterize those differences
// through ShootdownSpec.
//
// Everything runs on one goroutine against the shared virtual clock:
// "parallelism" is modelled by charging the initiator the maximum of the
// remote latencies, exactly as a spinning initiator experiences it.
package smp

import (
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/interrupt"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// MaxSendAttempts bounds the lost-IPI recovery loop: after this many
// timed-out re-sends the initiator is declared hung (the supervisor's
// watchdog then reaps it).
const MaxSendAttempts = 3

// ErrShootdownHung reports an initiator that never collected all acks.
var ErrShootdownHung = errors.New("smp: shootdown initiator hung waiting for acks")

// VCPUStats counts per-vCPU events.
type VCPUStats struct {
	// ShootdownIPIs is how many shootdown IPIs this vCPU serviced.
	ShootdownIPIs uint64
	// AcksSent counts ack-mask writes (== serviced IPIs unless hung).
	AcksSent uint64
	// MigrationsIn counts container migrations onto this vCPU.
	MigrationsIn uint64
	// Scheduled counts tasks the scheduler placed on this vCPU.
	Scheduled uint64
}

// VCPU is one virtual CPU of the engine: private register state,
// private TLB, private pending-interrupt queue.
type VCPU struct {
	ID  int
	CPU *hw.CPU
	MMU *mmu.Unit
	// IPI is the vCPU's pending-IPI queue (posted, not yet serviced).
	IPI   *interrupt.Controller
	Stats VCPUStats
}

// Stats counts engine-wide shootdown events.
type Stats struct {
	Shootdowns     uint64
	IPIsSent       uint64
	LostIPIs       uint64
	DelayedAcks    uint64
	Resends        uint64
	HungInitiators uint64
	// TotalLatency accumulates end-to-end shootdown time (initiator
	// perspective), so TotalLatency/Shootdowns is the mean.
	TotalLatency clock.Time
}

// MeanShootdown returns the mean end-to-end shootdown latency.
func (s *Stats) MeanShootdown() clock.Time {
	if s.Shootdowns == 0 {
		return 0
	}
	return s.TotalLatency / clock.Time(s.Shootdowns)
}

// Engine owns the machine's vCPUs. vCPU 0 wraps the CPU and MMU the
// single-core machine already had, so single-vCPU behaviour (and every
// existing experiment) is bit-identical with the engine attached.
type Engine struct {
	Clk   *clock.Clock
	Costs *clock.Costs
	VCPUs []*VCPU
	Sched *Scheduler
	Stats Stats

	// Rec, when non-nil, records shootdown-protocol spans (initiator
	// legs inline, remote service as async spans). Nil-safe; never
	// advances the clock.
	Rec *trace.SpanRecorder
	// Audit, when non-nil, records IPI and shootdown-protocol events
	// into the machine audit log. Nil-safe; never advances the clock.
	Audit *audit.Recorder
	// Flow, when non-nil, observes per-shootdown initiator latency.
	Flow *metrics.FlowMetrics

	// unackedBuf is the reused target scratch buffer for Shootdown; the
	// engine runs on one goroutine, so a single buffer keeps the
	// protocol's steady-state hot path allocation-free.
	unackedBuf []int
	// nativePage and nativeAll are the native remote service flows of a
	// page and a whole-PCID shootdown, interned at New.
	nativePage, nativeAll []PhaseCost
}

// phase charges d to the shared clock under a named span (plain
// Advance when no recorder is attached).
func (e *Engine) phase(name string, d clock.Time) {
	if e.Rec == nil {
		e.Clk.Advance(d)
		return
	}
	id := e.Rec.Begin(name)
	e.Clk.Advance(d)
	e.Rec.End(id)
}

// New builds an engine with n vCPUs over the shared physical memory.
// cpu0/mmu0 become vCPU 0; the remaining vCPUs get fresh CPUs (same PKS
// extension setting) and private TLBs. Every vCPU's ICR is wired to the
// engine so a WriteICR on any core posts into the target's queue.
func New(clk *clock.Clock, costs *clock.Costs, m *mem.PhysMem, cpu0 *hw.CPU, mmu0 *mmu.Unit, n int) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("smp: need at least 1 vCPU, got %d", n)
	}
	e := &Engine{Clk: clk, Costs: costs, Sched: NewScheduler(n)}
	e.nativePage = nativeRemote("invlpg", costs.Invlpg, costs)
	e.nativeAll = nativeRemote("tlb_flush", costs.TLBFlush, costs)
	for i := 0; i < n; i++ {
		cpu, unit := cpu0, mmu0
		if i > 0 {
			cpu = hw.NewCPU(i, cpu0.PKSExt)
			unit = mmu.New(m, costs)
			cpu.SetTLBHooks(unit.Hooks())
		}
		cpu.SetIPIHook(e.Post)
		e.VCPUs = append(e.VCPUs, &VCPU{ID: i, CPU: cpu, MMU: unit, IPI: interrupt.New()})
	}
	return e, nil
}

// NumVCPU returns the vCPU count.
func (e *Engine) NumVCPU() int { return len(e.VCPUs) }

// Post delivers an IPI into the target vCPU's pending queue. Costs are
// the sender's business (ICR write or hypercall fan-out).
func (e *Engine) Post(target, vector int) {
	if target < 0 || target >= len(e.VCPUs) {
		return
	}
	e.Audit.Emit(audit.EvIPISend, target, 0, uint64(vector), 0, 0)
	e.VCPUs[target].IPI.Post(vector)
}

// Others returns the vCPU IDs [0, n) excluding initiator — the target
// set of a broadcast shootdown from a container spanning n vCPUs.
func (e *Engine) Others(initiator, n int) []int {
	return e.OthersInto(nil, initiator, n)
}

// OthersInto appends the broadcast target set to dst (callers reuse a
// per-container buffer so the per-shootdown path does not allocate).
func (e *Engine) OthersInto(dst []int, initiator, n int) []int {
	if n > len(e.VCPUs) {
		n = len(e.VCPUs)
	}
	for i := 0; i < n; i++ {
		if i != initiator {
			dst = append(dst, i)
		}
	}
	return dst
}

// FlushAllTLBs scrubs every vCPU TLB of entries matching pred (see
// tlb.FlushIf); the supervisor uses it when recycling a container.
func (e *Engine) FlushAllTLBs(pred func(pcid uint16) bool) {
	for _, v := range e.VCPUs {
		v.MMU.TLB.FlushIf(pred)
	}
}

// PhaseCost names one primitive leg of a remote shootdown service
// (interrupt delivery, invalidation, ack write, return).
type PhaseCost struct {
	Name string
	Cost clock.Time
}

// ShootdownSpec parameterizes one TLB shootdown with the initiating
// runtime's native costs.
type ShootdownSpec struct {
	// Initiator is the sending vCPU; Targets the remotes to invalidate.
	Initiator int
	Targets   []int
	// PCID/VA name the stale translation. All flushes the whole PCID
	// (an invpcid-class shootdown) instead of one page.
	PCID uint16
	VA   uint64
	All  bool
	// Send posts the IPIs for the given targets and charges the
	// runtime's native send cost (ICR writes, a VM exit per target, or
	// one mediated HcSendIPI). nil means bare ICR writes by the
	// initiating CPU at IPISend each.
	Send func(targets []int) error
	// RemotePhases is the target-side service flow (deliver,
	// invalidate, ack, return), one named primitive per phase; each
	// remote is charged its sum and recorded with one async child span
	// per phase. nil means the native interrupt flow: interrupt_deliver,
	// invlpg (tlb_flush when All), ipi_ack, iret.
	RemotePhases []PhaseCost
	// RemoteFlush, when non-nil, performs runtime-specific invalidation
	// on the target beyond the engine-TLB flush (HVM's private vTLBs,
	// CKI's per-vCPU top-PTP copy refresh).
	RemoteFlush func(v *VCPU) error
	// Inj, when non-nil, is consulted per target per attempt at the
	// faults.IPILost and faults.AckDelay sites.
	Inj faults.Injector
}

// Shootdown runs the protocol and returns the initiator-observed
// latency. The flow per attempt: send to every unacked target, service
// each delivered IPI (flush + ack), then spin until the slowest ack
// lands. Lost IPIs are re-sent after ShootdownTimeout, at most
// MaxSendAttempts times; a still-incomplete ack mask returns
// ErrShootdownHung with the clock already charged — the caller decides
// whether that wedges the guest for the watchdog.
func (e *Engine) Shootdown(spec ShootdownSpec) (clock.Time, error) {
	start := e.Clk.Now()
	root := e.Rec.Begin("shootdown")
	unacked := e.unackedBuf[:0]
	for _, t := range spec.Targets {
		if t >= 0 && t < len(e.VCPUs) && t != spec.Initiator {
			unacked = append(unacked, t)
		}
	}
	e.unackedBuf = unacked
	phases := spec.RemotePhases
	if phases == nil {
		phases = e.nativePage
		if spec.All {
			phases = e.nativeAll
		}
	}
	var service clock.Time
	for _, p := range phases {
		service += p.Cost
	}
	for attempt := 0; len(unacked) > 0 && attempt < MaxSendAttempts; attempt++ {
		if attempt > 0 {
			// The ack mask is still short: the initiator's spin loop hits
			// its timeout and re-sends to the silent targets.
			e.phase("shootdown_timeout", e.Costs.ShootdownTimeout)
			e.Stats.Resends++
		}
		if spec.Send != nil {
			if err := spec.Send(unacked); err != nil {
				return e.finish(root, start, spec, unacked)
			}
		} else {
			for range unacked {
				e.phase("ipi_send", e.Costs.IPISend)
			}
			for _, t := range unacked {
				e.Post(t, hw.VectorIPI)
			}
		}
		e.Stats.IPIsSent += uint64(len(unacked))
		sendDone := e.Clk.Now()

		var maxLat clock.Time
		still := unacked[:0]
		for _, t := range unacked {
			v := e.VCPUs[t]
			if spec.Inj != nil && spec.Inj.Fire(faults.IPILost) {
				// The IPI is lost in flight: consume the posted vector (if
				// the send path managed to post one) without servicing it.
				v.IPI.TakeVector(hw.VectorIPI)
				e.Stats.LostIPIs++
				still = append(still, t)
				continue
			}
			if !v.IPI.TakeVector(hw.VectorIPI) {
				// The send path itself failed to post (dropped hypercall).
				e.Stats.LostIPIs++
				still = append(still, t)
				continue
			}
			if err := e.serviceRemote(v, spec); err != nil {
				return e.finish(root, start, spec, unacked)
			}
			lat := service
			delayed := false
			if spec.Inj != nil && spec.Inj.Fire(faults.AckDelay) {
				lat += e.Costs.ShootdownAckDelay
				e.Stats.DelayedAcks++
				delayed = true
			}
			e.emitRemote(phases, t, sendDone, lat, delayed, root)
			e.Audit.Emit(audit.EvIPIAck, t, spec.PCID, uint64(lat), b2u(delayed), 0)
			if lat > maxLat {
				maxLat = lat
			}
		}
		// still filtered unacked in place (writes trail reads), so the
		// surviving prefix is the next attempt's target set — no copy.
		unacked = still
		// The remotes ran concurrently; the spinning initiator waits for
		// the slowest ack plus one final poll of the mask.
		e.phase("ack_spin", maxLat+e.Costs.ShootdownPoll)
	}
	return e.finish(root, start, spec, unacked)
}

// emitRemote records one target's service as an async span at its true
// wall placement (concurrent with the initiator's ack spin), with the
// service flow's phases as async children.
func (e *Engine) emitRemote(phases []PhaseCost, target int, at, lat clock.Time, delayed bool, parent int) {
	if e.Rec == nil {
		return
	}
	rs := e.Rec.EmitAt("shootdown_remote", at, lat, target, parent)
	cursor := at
	for _, p := range phases {
		e.Rec.EmitAt(p.Name, cursor, p.Cost, target, rs)
		cursor += p.Cost
	}
	if delayed {
		e.Rec.EmitAt("ack_delay", cursor, e.Costs.ShootdownAckDelay, target, rs)
	}
}

// serviceRemote performs the target-side invalidation: the engine-TLB
// flush every runtime needs, plus the runtime's extra work.
func (e *Engine) serviceRemote(v *VCPU, spec ShootdownSpec) error {
	if spec.All {
		v.MMU.TLB.FlushPCID(spec.PCID)
		e.Audit.Emit(audit.EvTLBFlushPCID, v.ID, spec.PCID, uint64(spec.PCID), 0, 0)
	} else {
		v.MMU.TLB.FlushPage(spec.PCID, spec.VA)
		e.Audit.Emit(audit.EvTLBFlushPage, v.ID, spec.PCID, spec.VA, 0, 0)
	}
	v.Stats.ShootdownIPIs++
	v.Stats.AcksSent++
	if spec.RemoteFlush != nil {
		return spec.RemoteFlush(v)
	}
	return nil
}

// nativeRemote is the native remote service flow around one
// invalidation: interrupt delivery, the invalidation, the ack write and
// the return.
func nativeRemote(inval string, cost clock.Time, c *clock.Costs) []PhaseCost {
	return []PhaseCost{
		{Name: "interrupt_deliver", Cost: c.InterruptDeliver},
		{Name: inval, Cost: cost},
		{Name: "ipi_ack", Cost: c.IPIAck},
		{Name: "iret", Cost: c.Iret},
	}
}

func (e *Engine) finish(span int, start clock.Time, spec ShootdownSpec, unacked []int) (clock.Time, error) {
	e.Rec.End(span)
	e.Stats.Shootdowns++
	lat := e.Clk.Now() - start
	e.Stats.TotalLatency += lat
	e.Flow.ObserveShootdown(lat)
	e.Audit.Emit(audit.EvShootdown, spec.Initiator, spec.PCID, uint64(lat), uint64(len(unacked)), 0)
	if len(unacked) > 0 {
		e.Stats.HungInitiators++
		return lat, ErrShootdownHung
	}
	return lat, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
