package guest

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// The guest-kernel panic path. A fatal fault (unhandled kernel #PF,
// page-table corruption, double fault) transitions the kernel to the
// died state: the vCPU is parked, the run queue is dropped, and every
// subsequent syscall returns EKERNELDIED instead of touching kernel
// state. What it must NOT do is take anything else down with it — the
// host kernel, the physical allocator, and sibling containers on the
// same machine keep running, which is the paper's Fig. 2 argument for
// per-container kernels (97.3% of container-exploitable kernel CVEs
// are DoS; CKI turns "host panic" into "one dead container").

// Panic transitions the guest kernel to the died state. Idempotent:
// a kernel dies once, later causes are ignored.
func (k *Kernel) Panic(reason string) {
	if k.dead {
		return
	}
	k.dead = true
	k.panicMsg = reason
	k.Stats.Panics++
	// Nothing in this container runs again: drop the run queue and park
	// the vCPU in user mode so the host scheduler regains the core.
	k.runq = nil
	k.CPU.SetMode(hw.ModeUser)
}

// Died reports whether the guest kernel has panicked.
func (k *Kernel) Died() bool { return k.dead }

// PanicReason returns the panic message of a died kernel ("" if alive).
func (k *Kernel) PanicReason() string { return k.panicMsg }

// Fire consults the fault plan at one injection site on behalf of a
// layer outside the guest kernel (the backends virtual-interrupt path
// uses it for faults.IRQDrop), with the same counting and tracing as
// the kernel's own sites.
func (k *Kernel) Fire(site faults.Site) bool { return k.fire(site) }

// fire consults the fault plan at one injection site, counting and
// tracing a firing. Returns false when no injector is attached, the
// kernel is already dead, or the plan does not trigger.
func (k *Kernel) fire(site faults.Site) bool {
	if k.Inj == nil || k.dead || !k.Inj.Fire(site) {
		return false
	}
	k.Stats.InjectedFaults++
	return true
}

// panicDoubleFault models the guest #PF handler faulting again on its
// own frame push. On stock hardware the cascade escalates to a triple
// fault that resets the whole machine; here the escalation is absorbed
// at the container boundary (CKI routes guest-fatal exceptions through
// IST gates to the KSM, §4.4) and only this kernel dies. The shared
// CPU's stack-valid bit is restored afterwards: the machine survives,
// the container does not.
func (k *Kernel) panicDoubleFault() {
	k.CPU.SetStackValid(false)
	_, flt := k.CPU.DeliverException(hw.VectorPageFault, 0, true)
	k.CPU.SetStackValid(true)
	if flt != nil {
		k.Panic(fmt.Sprintf("double fault in #PF handler: %v", flt))
		return
	}
	k.Panic("double fault in #PF handler")
}

// corruptPTEWrite performs one page-table store with a flipped frame
// bit (the PTEWrite injection). Under CKI the KSM usually rejects the
// corrupted entry; everywhere the kernel's write-verify notices the
// mismatch between what it asked for and what its tables now say.
// Either way the kernel can no longer trust its page tables and
// panics — corrupted translations must never be walked.
func (k *Kernel) corruptPTEWrite(as *AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	bad := v ^ (2 << mem.PageShift) // flip one frame-number bit
	err := k.PV.WritePTE(k, as, level, va, ptp, idx, bad)
	if err != nil {
		k.Panic(fmt.Sprintf("page-table corruption at va %#x rejected by monitor: %v", va, err))
	} else {
		k.Panic(fmt.Sprintf("page-table corruption at va %#x: readback mismatch", va))
	}
	return EKERNELDIED
}
