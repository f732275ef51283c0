package cki

import (
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/host"
	"repro/internal/hw"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// This file implements the context-switching gates of §4.2 (Fig. 8):
// the KSM call gate (fast path), the hypercall gate through the
// switcher (slow path), and the hardware-interrupt gate, including the
// integrity checks that make their abuse fail.

// Gate executes KSM services on behalf of the deprivileged guest
// kernel. One Gate exists per container; it is bound to the vCPU state
// it protects.
type Gate struct {
	KSM   *KSM
	CPU   *hw.CPU
	Clk   *clock.Clock
	Costs *clock.Costs
	// MMU performs the gate's own memory accesses (secure stack,
	// per-vCPU context) under the CPU's *current* rights, which is what
	// mechanically defeats forged entries.
	MMU *mmu.Unit
	// VCPU is the index of the virtual CPU this gate instance serves.
	VCPU int
	// Rec, when non-nil, records per-leg gate spans (nil-safe; never
	// advances the clock).
	Rec *trace.SpanRecorder
	// Audit, when non-nil, records gate enter/exit transitions into the
	// machine audit log. Nil-safe; never advances the clock.
	Audit *audit.Recorder

	// inBatch marks that the vCPU is already inside the KSM (Batch);
	// nested Calls then run their service directly, without re-paying
	// the wrpkrs entry/exit legs they would no-op anyway.
	inBatch bool
}

// gate brackets one gate transition in the audit log; the deferred exit
// event covers error paths and stamps the end-of-gate virtual time.
func (g *Gate) gate(kind, nr uint64) func() {
	g.Audit.Emit(audit.EvGateEnter, g.VCPU, g.CPU.PCID(), kind, nr, 0)
	return func() {
		g.Audit.Emit(audit.EvGateExit, g.VCPU, g.CPU.PCID(), kind, nr, 0)
	}
}

// phase charges d under a named span (plain Advance without a
// recorder, so attribution never changes gate cost).
func (g *Gate) phase(name string, d clock.Time) {
	if g.Rec == nil {
		g.Clk.Advance(d)
		return
	}
	id := g.Rec.Begin(name)
	g.Clk.Advance(d)
	g.Rec.End(id)
}

// touchPerVCPU performs the gate's stack switch: an access to the
// per-vCPU area at its constant virtual address through the live MMU.
// Under a legitimate entry PKRS is zero and the access succeeds; code
// that jumps here with guest rights faults on KeyKSM instead (§4.4).
func (g *Gate) touchPerVCPU() *hw.Fault {
	if g.CPU.CR3() == 0 {
		return nil // container boot: no guest table loaded yet
	}
	_, flt := g.MMU.Access(g.Clk, g.CPU, g.CPU.CR3(), PerVCPUBase, mmu.Write, mmu.Dim1D)
	return flt
}

// Call runs fn inside the KSM: wrpkrs to zero with the post-write check
// of Fig. 8a, secure-stack switch, service, and the reverse transition.
func (g *Gate) Call(fn func() error) error {
	if g.inBatch {
		// Already on the secure stack with PKRS zero: the transition
		// would be a no-op, so the service runs directly. The per-call
		// service costs (verification phases, PTE stores) are still
		// charged by fn itself.
		return fn()
	}
	g.KSM.Stats.GateCalls++
	span := g.Rec.Begin("ksm_call")
	defer g.Rec.End(span)
	defer g.gate(audit.GateKSMCall, 0)()
	// Entry leg: wrpkrs $0 + check.
	g.phase("wrpkrs_leg", g.Costs.WrPKRSLeg)
	if flt := g.CPU.Wrpkrs(0); flt != nil {
		return flt
	}
	if g.CPU.PKRS() != 0 {
		return ErrGateAbuse
	}
	// Stack switch to the per-vCPU secure stack (constant address; the
	// untrusted kernel_gs is never consulted).
	if flt := g.touchPerVCPU(); flt != nil {
		return flt
	}
	err := fn()
	// Exit leg: wrpkrs $PKRS_GUEST + check. An attacker who jumps to
	// this trailing wrpkrs with a chosen register value is caught by
	// the comparison against the gate's constant (Fig. 8a).
	g.phase("wrpkrs_leg", g.Costs.WrPKRSLeg)
	if flt := g.CPU.Wrpkrs(PKRSGuest); flt != nil {
		return flt
	}
	if g.CPU.PKRS() != PKRSGuest {
		return ErrGateAbuse
	}
	return err
}

// Batch runs fn inside a single gate transition: one wrpkrs entry leg,
// one stack switch, one exit leg, however many KSM services fn invokes
// through nested Calls. This is the fork-from-snapshot amortization:
// mapping a forked image's pages issues thousands of mediated PTE
// stores back-to-back, and paying the gate legs once per fork — rather
// than once per store — is what keeps CKI's per-fork kernel cost near
// a single top-PTP copy. Nested Batches coalesce the same way.
func (g *Gate) Batch(fn func() error) error {
	if g.inBatch {
		return fn()
	}
	return g.Call(func() error {
		g.inBatch = true
		defer func() { g.inBatch = false }()
		return fn()
	})
}

// AbuseJumpToExit models the ROP attack of §4.2: the attacker jumps
// directly to the exit wrpkrs with a register value of its choosing,
// hoping to load an arbitrary PKRS. The post-write comparison against
// the gate's immediate aborts unless the value is exactly PKRSGuest —
// which grants nothing.
func (g *Gate) AbuseJumpToExit(attackerPKRS hw.PKReg) error {
	g.Clk.Advance(g.Costs.WrPKRSLeg)
	if flt := g.CPU.Wrpkrs(attackerPKRS); flt != nil {
		return flt
	}
	if g.CPU.PKRS() != PKRSGuest {
		// cmp \pkrs, %rax ; jne abort — the container is killed.
		g.CPU.Wrpkrs(PKRSGuest) // abort path restores the guest view
		return ErrGateAbuse
	}
	return nil
}

// Switcher is the slow-path context switch between a container and the
// host kernel: hypercalls out, virtual interrupts in (§4.2, Fig. 8b).
type Switcher struct {
	Gate *Gate
	Host *host.Kernel
	// HostPCID tags the host's TLB context (0 by convention).
	HostPCID uint16
	// NestedExtra is added per hypercall when the host kernel itself
	// runs inside an L1 VM; it is zero for CKI because exits from a CKI
	// container never reach L0 (§3.3).
	NestedExtra clock.Time

	// forged records a fault taken inside an interrupt gate body (the
	// handler has no error return; real hardware would kill the
	// container at this point).
	forged *hw.Fault
}

// Hypercall performs the full world switch to the host kernel and back:
// two PKS legs, the register file swap both ways, two page-table
// switches, the IBRS barrier on host entry and request decode, 390ns
// before the host's handler (Table 2). All state transitions are
// mechanical: the gate clears PKRS (so the CR3 write is legal), saves
// the guest root, loads the host root, and restores everything on
// return.
func (s *Switcher) Hypercall(nr int, args ...uint64) (uint64, error) {
	g := s.Gate
	g.KSM.Stats.Hypercalls++
	span := g.Rec.Begin("switcher_hypercall")
	defer g.Rec.End(span)
	defer g.gate(audit.GateHypercall, uint64(nr))()
	g.phase("wrpkrs_leg", 2*g.Costs.WrPKRSLeg)
	g.phase("regs_swap", 2*g.Costs.RegsSwap)
	g.phase("pt_switch", 2*g.Costs.PTSwitch)
	g.phase("ibrs", g.Costs.IBRS)
	g.phase("hostcall_dispatch", g.Costs.HostcallDispatch)
	if s.NestedExtra > 0 {
		g.phase("nested_extra", s.NestedExtra)
	}
	if flt := g.CPU.Wrpkrs(0); flt != nil {
		return 0, flt
	}
	if g.CPU.PKRS() != 0 {
		return 0, ErrGateAbuse
	}
	// Save the guest context in the per-vCPU area (reachable only with
	// KSM rights).
	if flt := g.touchPerVCPU(); flt != nil {
		return 0, flt
	}
	guestRoot, guestPCID := g.CPU.CR3(), g.CPU.PCID()
	if flt := g.CPU.WriteCR3(s.Host.Root, s.HostPCID); flt != nil {
		return 0, flt
	}
	ret, err := s.Host.Hypercall(g.Clk, nr, args...)
	if flt := g.CPU.WriteCR3(guestRoot, guestPCID); flt != nil {
		return 0, flt
	}
	if flt := g.CPU.Wrpkrs(PKRSGuest); flt != nil {
		return 0, flt
	}
	if g.CPU.PKRS() != PKRSGuest {
		return 0, ErrGateAbuse
	}
	return ret, err
}

// InstallIDT points the vCPU's IDTR at the KSM's table and registers
// the interrupt gates. It runs at container boot with KSM rights.
func (s *Switcher) InstallIDT(vectors ...int) error {
	g := s.Gate
	saved := g.CPU.PKRS()
	if flt := g.CPU.Wrpkrs(0); flt != nil {
		return flt
	}
	for _, v := range vectors {
		v := v
		g.KSM.IDT.Set(v, hw.IDTEntry{
			UseIST: true, // §4.4: IST defeats interrupt-stack sabotage
			Handler: func(cpu *hw.CPU, f *hw.Frame) {
				s.interruptGateBody(f)
			},
		})
	}
	if flt := g.CPU.Lidt(g.KSM.IDT); flt != nil {
		return flt
	}
	if flt := g.CPU.Wrpkrs(saved); flt != nil {
		return flt
	}
	return nil
}

// interruptGateBody is the gate code an interrupt vectors into. By
// construction it contains no wrpkrs: the hardware extension already
// saved and cleared PKRS during delivery. Its first action — saving the
// interrupted context to the per-vCPU area — faults if the rights are
// still the guest's, which is exactly how a forged jump into the gate
// dies (§4.4).
func (s *Switcher) interruptGateBody(f *hw.Frame) {
	g := s.Gate
	g.phase("interrupt_deliver", g.Costs.InterruptDeliver)
	if flt := g.touchPerVCPU(); flt != nil {
		s.forged = flt
		return
	}
	// exit_to_host: full switch, host IRQ handling, switch back.
	g.phase("regs_swap", 2*g.Costs.RegsSwap)
	g.phase("pt_switch", 2*g.Costs.PTSwitch)
	g.phase("ibrs", g.Costs.IBRS)
	guestRoot, guestPCID := g.CPU.CR3(), g.CPU.PCID()
	if flt := g.CPU.WriteCR3(s.Host.Root, s.HostPCID); flt != nil {
		s.forged = flt
		return
	}
	s.Host.HandleIRQ(g.Clk, f.Vector)
	g.KSM.Stats.IRQs++
	if flt := g.CPU.WriteCR3(guestRoot, guestPCID); flt != nil {
		s.forged = flt
		return
	}
}

// HardwareInterrupt delivers a hardware interrupt to the running guest:
// extended delivery (PKRS save/clear), gate body, host handling, and
// iret with PKRS restore.
func (s *Switcher) HardwareInterrupt(vector int) error {
	g := s.Gate
	s.forged = nil
	defer g.gate(audit.GateInterrupt, uint64(vector))()
	frame, flt := g.CPU.DeliverHW(vector, 0)
	if flt != nil {
		return flt
	}
	g.CPU.RunGate(frame)
	if s.forged != nil {
		return s.forged
	}
	g.phase("iret", g.Costs.Iret)
	if flt := g.CPU.Iret(frame); flt != nil {
		return flt
	}
	return nil
}

// ForgeInterrupt models the attack of §4.4: the guest kernel jumps
// straight to an interrupt gate's entry, PKRS still PKRSGuest because
// no hardware delivery happened. The gate body's first per-vCPU access
// faults on KeyKSM and the forgery is rejected.
func (s *Switcher) ForgeInterrupt(vector int) error {
	g := s.Gate
	s.forged = nil
	entry := g.KSM.IDT.Get(vector)
	if entry.Handler == nil {
		return ErrInterruptForgery
	}
	// Direct jump: no DeliverHW, PKRS untouched.
	entry.Handler(g.CPU, &hw.Frame{Vector: vector, HW: true, SavedPKRS: g.CPU.PKRS()})
	if s.forged != nil {
		return ErrInterruptForgery
	}
	return nil
}
