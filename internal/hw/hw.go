// Package hw models the CPU of the simulated machine: privilege modes,
// control and system registers, the MPK register pair (PKRU/PKRS), and —
// critically — the semantics of every privileged instruction the paper's
// Table 3 classifies, including CKI's three hardware extensions:
//
//  1. the wrpkrs instruction (a non-MSR way to write PKRS, §4.1);
//  2. PKS-gated privileged-instruction blocking: when PKRS is non-zero in
//     kernel mode, destructive privileged instructions raise a fault
//     instead of executing (§4.1), and sysret forces RFLAGS.IF on;
//  3. PKRS save-and-clear on hardware-interrupt delivery, with iret
//     restoring the saved value (§4.4), so interrupt gates need no
//     wrpkrs instruction that could be abused for forgery.
//
// The package is deliberately cost-free: it decides *legality* and
// mutates register state; virtual-time accounting belongs to the runtime
// backends, so no cost is ever charged twice.
package hw

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/mem"
)

// Mode is the CPU privilege mode.
type Mode int

// Privilege modes. The simulator models ring 3 and ring 0; VMX root/
// non-root is a property of the HVM backend, not of the core CPU.
const (
	ModeUser   Mode = iota // ring 3
	ModeKernel             // ring 0
)

func (m Mode) String() string {
	if m == ModeUser {
		return "user"
	}
	return "kernel"
}

// FaultKind classifies a CPU fault.
type FaultKind int

// Fault kinds raised by the simulated CPU and MMU.
const (
	// FaultGP is a general-protection fault (privileged instruction in
	// user mode, malformed state, ...).
	FaultGP FaultKind = iota
	// FaultPKSBlocked is raised by CKI's hardware extension when a
	// deprivileged guest kernel (PKRS != 0) executes a destructive
	// privileged instruction.
	FaultPKSBlocked
	// FaultNotMapped is a page fault on a non-present translation.
	FaultNotMapped
	// FaultProtection is a page fault on a permission violation
	// (write to read-only, user access to supervisor page, NX fetch).
	FaultProtection
	// FaultPKU is a protection-key violation on a user page.
	FaultPKU
	// FaultPKS is a protection-key violation on a supervisor page —
	// the fault a guest kernel takes when touching KSM memory.
	FaultPKS
	// FaultGateAbused is raised by the switch-gate integrity checks
	// (the post-wrpkrs comparison of Fig. 8a, or entering an interrupt
	// gate with a guest PKRS).
	FaultGateAbused
	// FaultTriple models an unrecoverable fault cascade (e.g. interrupt
	// push onto an invalid stack without IST).
	FaultTriple
)

var faultNames = map[FaultKind]string{
	FaultGP:         "#GP",
	FaultPKSBlocked: "#GP(pks-blocked)",
	FaultNotMapped:  "#PF(not-mapped)",
	FaultProtection: "#PF(protection)",
	FaultPKU:        "#PF(pkey-user)",
	FaultPKS:        "#PF(pkey-supervisor)",
	FaultGateAbused: "gate-abuse",
	FaultTriple:     "triple-fault",
}

func (k FaultKind) String() string { return faultNames[k] }

// Fault describes a CPU fault. It implements error so legality checks
// compose with ordinary Go error handling.
type Fault struct {
	Kind  FaultKind
	Addr  uint64 // faulting address for memory faults
	Write bool   // memory faults: was it a write
	Instr string // instruction mnemonic for instruction faults
	Mode  Mode   // mode at the time of the fault
}

func (f *Fault) Error() string {
	if f.Instr != "" {
		return fmt.Sprintf("%v on %s in %v mode", f.Kind, f.Instr, f.Mode)
	}
	return fmt.Sprintf("%v at %#x (write=%v, %v mode)", f.Kind, f.Addr, f.Write, f.Mode)
}

// IsFault reports whether err is a *Fault of the given kind.
func IsFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}

// PKReg is a protection-key rights register (PKRU or PKRS): 16 two-bit
// fields, bit 0 of each = access-disable (AD), bit 1 = write-disable (WD).
type PKReg uint32

// AD reports the access-disable bit for key k.
func (r PKReg) AD(k int) bool { return r>>(2*uint(k))&1 != 0 }

// WD reports the write-disable bit for key k.
func (r PKReg) WD(k int) bool { return r>>(2*uint(k))&2 != 0 }

// With returns r with key k's AD/WD bits replaced.
func (r PKReg) With(k int, ad, wd bool) PKReg {
	r &^= 3 << (2 * uint(k))
	if ad {
		r |= 1 << (2 * uint(k))
	}
	if wd {
		r |= 2 << (2 * uint(k))
	}
	return r
}

// CPU is one simulated logical processor. The zero value is a CPU in
// kernel mode with all protections permissive; callers configure it via
// the register methods. CPU is not safe for concurrent use.
type CPU struct {
	// ID identifies the (v)CPU for per-CPU structures.
	ID int

	mode Mode
	// PKSExt enables CKI's hardware extensions. Off, the CPU behaves
	// like a stock x86 with PKS as a plain MSR-backed feature.
	PKSExt bool

	pkrs PKReg
	pkru PKReg

	cr0, cr4 uint64
	cr3      mem.PFN
	pcid     uint16

	gsBase, kernelGS uint64
	intEnabled       bool

	idt      *IDT
	tlbHooks TLBHooks
	ipiHook  IPIFn

	msr map[uint32]uint64

	// Halted is set by Hlt and cleared by interrupt delivery.
	Halted bool

	// Audit, when non-nil, records every architectural event this CPU
	// retires or raises into the machine audit log. Nil-safe and free
	// of virtual-time cost, like the package itself.
	Audit *audit.Recorder

	// Ops counts successfully retired privileged instructions, feeding
	// the metrics registry's per-vCPU instruction-mix gauges. Plain
	// counters: reading them costs no virtual time.
	Ops OpCounts

	stackValid bool
}

// OpCounts tallies the privileged-instruction mix a vCPU retired.
type OpCounts struct {
	WriteCR3 uint64
	Invlpg   uint64
	Invpcid  uint64
	WriteICR uint64
	Syscall  uint64
	Sysret   uint64
	Swapgs   uint64
	Wrpkru   uint64
	Wrpkrs   uint64
	Iret     uint64
}

// CR0 bits the simulator cares about.
const (
	CR0TS = 1 << 3
	CR0WP = 1 << 16
)

// NewCPU returns a CPU with interrupts enabled, WP set, and the CKI
// hardware extensions switched per pksExt.
func NewCPU(id int, pksExt bool) *CPU {
	return &CPU{
		ID:         id,
		mode:       ModeKernel,
		PKSExt:     pksExt,
		cr0:        CR0WP,
		intEnabled: true,
		msr:        make(map[uint32]uint64),
		stackValid: true,
	}
}

// Mode returns the current privilege mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode forces the privilege mode. This models hardware mode
// transitions performed by trusted trap/return microcode; deprivileged
// software never calls it directly (it goes through Syscall/Sysret/
// interrupt delivery in the runtime flows).
func (c *CPU) SetMode(m Mode) { c.mode = m }

// PKRS returns the supervisor protection-key rights register.
func (c *CPU) PKRS() PKReg { return c.pkrs }

// PKRU returns the user protection-key rights register.
func (c *CPU) PKRU() PKReg { return c.pkru }

// CR3 returns the current page-table root.
func (c *CPU) CR3() mem.PFN { return c.cr3 }

// PCID returns the current process-context ID.
func (c *CPU) PCID() uint16 { return c.pcid }

// IF reports whether maskable interrupts are enabled.
func (c *CPU) IF() bool { return c.intEnabled }

// GSBase and KernelGS expose the gs base pair; SwapGS exchanges them.
func (c *CPU) GSBase() uint64   { return c.gsBase }
func (c *CPU) KernelGS() uint64 { return c.kernelGS }

// guestDeprivileged reports whether the PKS extension currently treats
// the executing kernel-mode code as a deprivileged guest kernel.
func (c *CPU) guestDeprivileged() bool {
	return c.PKSExt && c.mode == ModeKernel && c.pkrs != 0
}

// checkPriv validates a privileged instruction: user mode always takes
// #GP; a PKS-deprivileged guest kernel takes the blocking fault when the
// instruction is in the destructive set.
func (c *CPU) checkPriv(instr string, blockedUnderPKS bool) *Fault {
	if c.mode != ModeKernel {
		return c.raise(&Fault{Kind: FaultGP, Instr: instr, Mode: c.mode})
	}
	if blockedUnderPKS && c.guestDeprivileged() {
		return c.raise(&Fault{Kind: FaultPKSBlocked, Instr: instr, Mode: c.mode})
	}
	return nil
}

// emit records one machine event attributed to this CPU.
func (c *CPU) emit(k audit.Kind, a, b, v uint64) {
	c.Audit.Emit(k, c.ID, c.pcid, a, b, v)
}

// raise funnels every fault the CPU constructs through one audit
// chokepoint, so the log carries each #GP/#PF/triple-fault exactly once.
func (c *CPU) raise(f *Fault) *Fault {
	if f != nil {
		c.emit(audit.EvFault, uint64(f.Kind), f.Addr,
			audit.PackFaultFlags(f.Write, f.Mode == ModeKernel))
	}
	return f
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
