// Package audit implements the machine-level audit log: a compact,
// append-only record of what the simulated hardware actually did —
// control-register and MSR writes, mediated page-table updates with
// old→new values, faults, interrupt deliveries, IPI send/ack, VM
// entry/exit, KSM gate transitions, TLB fills and flushes — each event
// stamped with virtual time, vCPU, and PCID.
//
// The Recorder follows the same zero-cost observer contract as
// trace.SpanRecorder: a nil *Recorder is a valid no-op, and recording
// never advances the virtual clock, so attaching a recorder changes no
// measured time and the log bytes are identical across runs of the same
// seeded workload. On top of the log, replay.go reconstructs machine
// state at any virtual timestamp and diverge.go pinpoints the first
// event where two runs differ.
package audit

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/tlb"
)

// Kind identifies one machine-event type. The numeric values are the
// on-disk encoding; append new kinds at the end and never renumber.
type Kind uint8

const (
	evInvalid Kind = iota
	// Control-register and MSR state.
	EvWriteCR0  // A=new value
	EvWriteCR3  // A=new root PFN, B=new PCID, C=old root<<16|old PCID
	EvWriteCR4  // A=new value
	EvWriteMSR  // A=MSR index, B=new value, C=old value
	EvWritePKRS // A=new value, B=old value, C=cause (PKRSCause*)
	EvWritePKRU // A=new value, B=old value
	EvWriteICR  // A=target vCPU, B=vector
	// Privilege transitions and faults.
	EvSyscall   // guest syscall instruction retired
	EvSysret    // A=wantIF, B=forced-on flag
	EvFault     // A=hw.FaultKind, B=address, C=PackFaultFlags
	EvInterrupt // A=vector, B=delivery class (IntClass*), C=error code
	EvIret      // A=vector returned from, B=saved IF
	// Mediated page-table updates.
	EvPTEWrite  // A=PackPTESlot, B=old PTE, C=new PTE (readback)
	EvPTPRetire // A=retired table frame PFN
	// SMP and virtualization transitions.
	EvIPISend   // VCPU=target, A=vector
	EvIPIAck    // VCPU=target, A=ack latency ps, B=1 if delayed
	EvShootdown // VCPU=initiator, A=total latency ps, B=unacked targets
	EvVMExit    // A=reason (VMExit*)
	EvVMEntry   // A=reason (VMExit*)
	EvGateEnter // A=gate kind (Gate*), B=call nr or vector
	EvGateExit  // A=gate kind (Gate*), B=call nr or vector
	// Fault injection (chaos runs become explainable).
	EvInjected // A=SiteCode of the fired site
	// TLB movements.
	EvTLBConfig     // A=capacity (one per TLB, at attach)
	EvTLBFill       // A=va, B=PackTLBEntry
	EvTLBFlushPage  // A=va
	EvTLBFlushPCID  // A=pcid
	EvTLBFlushGroup // A=container id (flushes pcid>>8 == id everywhere)
	EvTLBFlushAll   // A=1 if global entries survive
)

var kindNames = [...]string{
	evInvalid:       "invalid",
	EvWriteCR0:      "cr0_write",
	EvWriteCR3:      "cr3_write",
	EvWriteCR4:      "cr4_write",
	EvWriteMSR:      "msr_write",
	EvWritePKRS:     "pkrs_write",
	EvWritePKRU:     "pkru_write",
	EvWriteICR:      "icr_write",
	EvSyscall:       "syscall",
	EvSysret:        "sysret",
	EvFault:         "fault",
	EvInterrupt:     "interrupt",
	EvIret:          "iret",
	EvPTEWrite:      "pte_write",
	EvPTPRetire:     "ptp_retire",
	EvIPISend:       "ipi_send",
	EvIPIAck:        "ipi_ack",
	EvShootdown:     "shootdown",
	EvVMExit:        "vm_exit",
	EvVMEntry:       "vm_entry",
	EvGateEnter:     "gate_enter",
	EvGateExit:      "gate_exit",
	EvInjected:      "fault_injected",
	EvTLBConfig:     "tlb_config",
	EvTLBFill:       "tlb_fill",
	EvTLBFlushPage:  "tlb_flush_page",
	EvTLBFlushPCID:  "tlb_flush_pcid",
	EvTLBFlushGroup: "tlb_flush_group",
	EvTLBFlushAll:   "tlb_flush_all",
}

// NumKinds is the number of defined event kinds (including invalid).
const NumKinds = len(kindNames)

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName resolves an event-kind name ("cr3_write"); 0 if unknown.
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return evInvalid
}

// Causes for EvWritePKRS (the C operand): who changed the register.
const (
	PKRSCauseWrpkrs   uint64 = 1 // the wrpkrs instruction
	PKRSCauseWrmsr    uint64 = 2 // a wrmsr to IA32_PKRS
	PKRSCauseIntClear uint64 = 3 // hardware clear on interrupt delivery
	PKRSCauseIretRest uint64 = 4 // hardware restore from the iret frame
)

// Delivery classes for EvInterrupt (the B operand).
const (
	IntClassHW        uint64 = 1 // hardware interrupt (IDT gate)
	IntClassException uint64 = 2 // exception delivery
	IntClassSoft      uint64 = 3 // software int N
)

// Gate kinds for EvGateEnter/EvGateExit (the A operand).
const (
	GateKSMCall   uint64 = 1 // pkcall into a KSM service
	GateHypercall uint64 = 2 // switcher world-switch hypercall
	GateInterrupt uint64 = 3 // interrupt funneled through the KSM gate
)

// Reasons for EvVMExit/EvVMEntry (the A operand).
const (
	VMExitHypercall    uint64 = 1
	VMExitEPTViolation uint64 = 2
	VMExitFault        uint64 = 3
	VMExitTimer        uint64 = 4
	VMExitVirtio       uint64 = 5
	VMExitIPI          uint64 = 6
	VMExitSyscall      uint64 = 7
	VMExitPTE          uint64 = 8
)

var vmReasonNames = map[uint64]string{
	VMExitHypercall:    "hypercall",
	VMExitEPTViolation: "ept-violation",
	VMExitFault:        "fault",
	VMExitTimer:        "timer",
	VMExitVirtio:       "virtio",
	VMExitIPI:          "ipi",
	VMExitSyscall:      "syscall",
	VMExitPTE:          "pte-update",
}

// VMReasonName renders a VM exit/entry reason code.
func VMReasonName(code uint64) string {
	if n, ok := vmReasonNames[code]; ok {
		return n
	}
	return fmt.Sprintf("reason(%d)", code)
}

// faultNames mirrors hw.FaultKind.String(). The audit package sits
// below internal/hw in the import graph (hw emits into it), so it
// cannot reference the hw constants; a pinning test in
// internal/backends asserts the two tables never drift.
var faultNames = [...]string{
	"#GP",
	"#GP(pks-blocked)",
	"#PF(not-mapped)",
	"#PF(protection)",
	"#PF(pkey-user)",
	"#PF(pkey-supervisor)",
	"gate-abuse",
	"triple-fault",
}

// FaultName renders a recorded hw.FaultKind operand.
func FaultName(kind uint64) string {
	if kind < uint64(len(faultNames)) {
		return faultNames[kind]
	}
	return fmt.Sprintf("fault(%d)", kind)
}

// siteOrder gives every faults.Site a stable numeric code for the
// binary log (site strings stay in internal/faults; codes here).
var siteOrder = [...]faults.Site{
	1:  faults.FrameAlloc,
	2:  faults.HostAlloc,
	3:  faults.PTEWrite,
	4:  faults.KernelPF,
	5:  faults.DoubleFault,
	6:  faults.VirtioKick,
	7:  faults.IRQDrop,
	8:  faults.StuckCLI,
	9:  faults.Hypercall,
	10: faults.IPILost,
	11: faults.AckDelay,
	12: faults.SnapshotTorn,
}

// SiteCode maps an injection site to its stable log code (0 = unknown).
func SiteCode(s faults.Site) uint64 {
	for i, v := range siteOrder {
		if i > 0 && v == s {
			return uint64(i)
		}
	}
	return 0
}

// SiteName renders a recorded injection-site code.
func SiteName(code uint64) string {
	if code > 0 && code < uint64(len(siteOrder)) {
		return string(siteOrder[code])
	}
	return fmt.Sprintf("site(%d)", code)
}

// Event is one machine event. The struct is comparable so the
// divergence finder can use plain equality.
type Event struct {
	At   clock.Time
	Kind Kind
	VCPU uint8
	PCID uint16
	A    uint64
	B    uint64
	C    uint64
}

// String renders the event for humans (ckireplay -grep).
func (e Event) String() string {
	return fmt.Sprintf("%14dps vcpu%d pcid=%#04x %-15s %s",
		int64(e.At), e.VCPU, e.PCID, e.Kind, e.Detail())
}

// Detail renders the kind-specific operands.
func (e Event) Detail() string {
	switch e.Kind {
	case EvWriteCR0, EvWriteCR4, EvWritePKRU:
		return fmt.Sprintf("new=%#x old=%#x", e.A, e.B)
	case EvWriteCR3:
		return fmt.Sprintf("root=%#x pcid=%#x old_root=%#x old_pcid=%#x",
			e.A, e.B, e.C>>16, e.C&0xffff)
	case EvWriteMSR:
		return fmt.Sprintf("msr=%#x new=%#x old=%#x", e.A, e.B, e.C)
	case EvWritePKRS:
		cause := [...]string{0: "?", 1: "wrpkrs", 2: "wrmsr", 3: "interrupt-clear", 4: "iret-restore"}
		c := "?"
		if e.C < uint64(len(cause)) {
			c = cause[e.C]
		}
		return fmt.Sprintf("new=%#x old=%#x cause=%s", e.A, e.B, c)
	case EvWriteICR:
		return fmt.Sprintf("target=vcpu%d vector=%d", e.A, e.B)
	case EvSysret:
		return fmt.Sprintf("want_if=%d forced=%d", e.A, e.B)
	case EvFault:
		return fmt.Sprintf("%s addr=%#x write=%d kernel=%d",
			FaultName(e.A), e.B, e.C&1, (e.C>>1)&1)
	case EvInterrupt:
		class := [...]string{0: "?", 1: "hw", 2: "exception", 3: "soft"}
		c := "?"
		if e.B < uint64(len(class)) {
			c = class[e.B]
		}
		return fmt.Sprintf("vector=%d class=%s err=%#x", e.A, c, e.C)
	case EvIret:
		return fmt.Sprintf("vector=%d saved_if=%d", e.A, e.B)
	case EvPTEWrite:
		ptp, idx, level := UnpackPTESlot(e.A)
		return fmt.Sprintf("L%d ptp=%#x[%d] old=%#x new=%#x", level, ptp, idx, e.B, e.C)
	case EvPTPRetire:
		return fmt.Sprintf("ptp=%#x", e.A)
	case EvIPISend:
		return fmt.Sprintf("vector=%d", e.A)
	case EvIPIAck:
		return fmt.Sprintf("latency=%dps delayed=%d", e.A, e.B)
	case EvShootdown:
		return fmt.Sprintf("latency=%dps unacked=%d", e.A, e.B)
	case EvVMExit, EvVMEntry:
		return fmt.Sprintf("reason=%s", VMReasonName(e.A))
	case EvGateEnter, EvGateExit:
		gate := [...]string{0: "?", 1: "ksm_call", 2: "hypercall", 3: "interrupt"}
		g := "?"
		if e.A < uint64(len(gate)) {
			g = gate[e.A]
		}
		return fmt.Sprintf("gate=%s nr=%d", g, e.B)
	case EvInjected:
		return fmt.Sprintf("site=%s", SiteName(e.A))
	case EvTLBConfig:
		return fmt.Sprintf("capacity=%d", e.A)
	case EvTLBFill:
		pfn, w, u, nx, g, huge, pkey := UnpackTLBEntry(e.B)
		return fmt.Sprintf("va=%#x pfn=%#x w=%t u=%t nx=%t g=%t huge=%t pkey=%d",
			e.A, pfn, w, u, nx, g, huge, pkey)
	case EvTLBFlushPage:
		return fmt.Sprintf("va=%#x", e.A)
	case EvTLBFlushPCID:
		return fmt.Sprintf("pcid=%#x", e.A)
	case EvTLBFlushGroup:
		return fmt.Sprintf("container=%d", e.A)
	case EvTLBFlushAll:
		return fmt.Sprintf("keep_global=%d", e.A)
	default:
		return fmt.Sprintf("a=%#x b=%#x c=%#x", e.A, e.B, e.C)
	}
}

// PackFaultFlags packs the fault context bits for EvFault's C operand.
func PackFaultFlags(write, kernel bool) uint64 {
	var v uint64
	if write {
		v |= 1
	}
	if kernel {
		v |= 2
	}
	return v
}

// PackPTESlot packs a page-table store location for EvPTEWrite's A
// operand: level in bits 0..3, index (0..511) in bits 4..12, table
// frame PFN from bit 16 up.
func PackPTESlot(ptp uint64, idx, level int) uint64 {
	return ptp<<16 | uint64(idx&0x1ff)<<4 | uint64(level&0xf)
}

// UnpackPTESlot reverses PackPTESlot.
func UnpackPTESlot(v uint64) (ptp uint64, idx, level int) {
	return v >> 16, int(v>>4) & 0x1ff, int(v & 0xf)
}

// PackTLBEntry packs a TLB entry for EvTLBFill's B operand: flag bits
// 0..4, protection key in bits 8..11, PFN from bit 16 up.
func PackTLBEntry(pfn uint64, writable, user, nx, global, huge bool, pkey int) uint64 {
	v := pfn << 16
	if writable {
		v |= 1
	}
	if user {
		v |= 2
	}
	if nx {
		v |= 4
	}
	if global {
		v |= 8
	}
	if huge {
		v |= 16
	}
	v |= uint64(pkey&0xf) << 8
	return v
}

// UnpackTLBEntry reverses PackTLBEntry.
func UnpackTLBEntry(v uint64) (pfn uint64, writable, user, nx, global, huge bool, pkey int) {
	return v >> 16, v&1 != 0, v&2 != 0, v&4 != 0, v&8 != 0, v&16 != 0, int(v>>8) & 0xf
}

// Recorder accumulates machine events. A nil *Recorder is a valid
// no-op, so instrumentation sites need no conditionals; recording
// reads the virtual clock but never advances it.
type Recorder struct {
	// Clk stamps events; the recorder follows the machine it is
	// attached to (Container.Attach repoints it), so one recorder can
	// span several sequentially-driven machines.
	Clk *clock.Clock
	// Meta describes the run for ckireplay -live.
	Meta Meta

	events  []Event
	tlbSeen map[*tlb.TLB]bool

	// encBuf is the reused per-recorder record-encoding buffer;
	// EncodeTo streams every event through it so encoding a record
	// allocates nothing.
	encBuf [recordSize]byte
}

// NewRecorder creates a recorder stamping events from clk (which may be
// nil until the recorder is attached to a machine).
func NewRecorder(clk *clock.Clock) *Recorder {
	return &Recorder{Clk: clk}
}

// Emit appends one event stamped with the current virtual time. Safe on
// a nil receiver; never advances the clock.
func (r *Recorder) Emit(kind Kind, vcpu int, pcid uint16, a, b, c uint64) {
	if r == nil {
		return
	}
	var at clock.Time
	if r.Clk != nil {
		at = r.Clk.Now()
	}
	r.events = append(r.events, Event{
		At: at, Kind: kind, VCPU: uint8(vcpu), PCID: pcid, A: a, B: b, C: c,
	})
}

// EmitTLBConfig records one TLB's capacity, once per TLB instance (the
// replay engine uses it to size and reset its reconstruction).
func (r *Recorder) EmitTLBConfig(t *tlb.TLB, vcpu int) {
	if r == nil || t == nil {
		return
	}
	if r.tlbSeen == nil {
		r.tlbSeen = make(map[*tlb.TLB]bool)
	}
	if r.tlbSeen[t] {
		return
	}
	r.tlbSeen[t] = true
	r.Emit(EvTLBConfig, vcpu, 0, uint64(t.Capacity()), 0, 0)
}

// Reserve ensures room for n more events without reallocating, so a
// steady-state recording loop can run allocation-free (the wall-clock
// benchmarks pin Emit at 0 allocs/op after a Reserve).
func (r *Recorder) Reserve(n int) {
	if r == nil || cap(r.events)-len(r.events) >= n {
		return
	}
	grown := make([]Event, len(r.events), len(r.events)+n)
	copy(grown, r.events)
	r.events = grown
}

// Reset drops all recorded events and TLB dedup state but keeps the
// event buffer's capacity, so a recorder can be reused across runs
// without re-paying the allocation.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.events = r.events[:0]
	for k := range r.tlbSeen {
		delete(r.tlbSeen, k)
	}
}

// AppendFrom appends src's events, in order, onto r. The parallel
// experiment runner records each grid cell into its own recorder and
// then concatenates them in the fixed sequential cell order, so the
// merged log is byte-identical to a single-recorder sequential run.
func (r *Recorder) AppendFrom(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	r.events = append(r.events, src.events...)
}

// Events returns the recorded events in order (a copy).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return append([]Event(nil), r.events...)
}

// View returns the recorded events in order as a read-only view of
// the recorder's buffer, valid until the next Emit, Reset or
// AppendFrom: the copy-free companion to Events, through which the
// telemetry flight recorder polls only what arrived since its last
// visit.
func (r *Recorder) View() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// WrapInjector makes fault injections first-class audit events: the
// returned Injector emits EvInjected whenever the wrapped one fires.
// With a nil recorder or injector the input is returned unchanged.
func WrapInjector(inner faults.Injector, rec *Recorder) faults.Injector {
	if rec == nil || inner == nil {
		return inner
	}
	return &auditedInjector{inner: inner, rec: rec}
}

type auditedInjector struct {
	inner faults.Injector
	rec   *Recorder
}

func (a *auditedInjector) Fire(site faults.Site) bool {
	if !a.inner.Fire(site) {
		return false
	}
	a.rec.Emit(EvInjected, 0, 0, SiteCode(site), 0, 0)
	return true
}
