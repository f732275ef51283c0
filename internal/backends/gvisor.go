package backends

import (
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/smp"
)

// gvisorPV models the userspace-kernel design point of §2.4.3 (gVisor):
// each container runs on a private Sentry — a kernel reimplemented as
// an ordinary host process. Application syscalls are intercepted by
// Systrap (binary-rewritten trampolines) and shipped to the Sentry over
// IPC, which is why the paper calls them "much slower than native";
// page faults, by contrast, are handled by the host kernel directly,
// so gVisor avoids shadow-paging and EPT costs entirely.
//
// gVisor is not part of the paper's quantitative evaluation (Table 2 /
// Fig. 12); it exists here to make the design-space comparison of
// Fig. 3 / Table 1 executable (bench.Tab1).
type gvisorPV struct {
	c  *Container
	id int

	// Sentry statistics.
	SystrapRoundTrips uint64

	// sd caches the shootdown spec so EmitShootdown allocates nothing
	// per downgrade; sdK is the kernel of the in-flight call.
	sd  smp.ShootdownSpec
	sdK *guest.Kernel
}

func newGVisorPV(c *Container, id int) (*gvisorPV, error) {
	return &gvisorPV{c: c, id: id}, nil
}

func (b *gvisorPV) Name() string               { return "gVisor" }
func (b *gvisorPV) guestMemory() *mem.PhysMem  { return b.c.HostMem }
func (b *gvisorPV) boot(k *guest.Kernel) error { return nil }

// Sentry software costs (ns).
const (
	sentryWakeNs     = 520 // futex-style wakeup + run-queue hop
	sentryMMNs       = 420 // Sentry mm bookkeeping around a host fault
	sentrySchedNs    = 300 // Sentry task switch
	sentryNetstackNs = 900 // user-space network stack per packet
)

func (b *gvisorPV) SyscallEnter(k *guest.Kernel) {
	// App → Systrap stub → IPC → Sentry.
	b.SystrapRoundTrips++
	c := b.c.Costs
	k.Phase("syscall_trap", c.SyscallTrap)
	k.Phase("mode_switch", c.ModeSwitch)
	k.Phase("pt_switch", c.PTSwitchNoPTI)
	k.Phase("regs_swap", c.RegsSwap)
	k.Phase("sentry_wake", clock.FromNanos(sentryWakeNs))
	k.CPU.SetMode(hw.ModeUser) // the Sentry is a user process
}

func (b *gvisorPV) SyscallExit(k *guest.Kernel) {
	// The return leg swaps the trap entry for a sysret.
	c := b.c.Costs
	k.Phase("mode_switch", c.ModeSwitch)
	k.Phase("pt_switch", c.PTSwitchNoPTI)
	k.Phase("regs_swap", c.RegsSwap)
	k.Phase("sentry_wake", clock.FromNanos(sentryWakeNs))
	k.Phase("sysret_exit", c.SysretExit)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *gvisorPV) FaultEnter(k *guest.Kernel) {
	// The HOST kernel takes the fault; the Sentry is consulted for the
	// memory layout it registered.
	k.Phase("exc_trap", b.c.Costs.ExcTrap)
	k.Phase("sentry_mm", clock.FromNanos(sentryMMNs))
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *gvisorPV) FaultExit(k *guest.Kernel) {
	k.Phase("iret", b.c.Costs.Iret)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *gvisorPV) PFHandlerCost(k *guest.Kernel) clock.Time {
	return b.c.Costs.PFHandlerHost
}

func (b *gvisorPV) AllocFrame(k *guest.Kernel) (mem.PFN, error) {
	return b.c.HostMem.Alloc(k.ContainerID)
}

func (b *gvisorPV) FreeFrame(k *guest.Kernel, pfn mem.PFN) {
	_ = b.c.HostMem.Free(pfn)
}

func (b *gvisorPV) DeclarePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN, level int) error {
	return nil // host-managed tables
}

func (b *gvisorPV) RetirePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN) error {
	return nil
}

func (b *gvisorPV) WritePTE(k *guest.Kernel, as *guest.AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	// The Sentry asks the host to adjust mappings; amortized host-call
	// share per entry on top of the store itself.
	k.Phase("pte_write", b.c.Costs.PTEWrite)
	k.Phase("sentry_hostcall", clock.FromNanos(90))
	pagetable.WriteEntry(b.c.HostMem, ptp, idx, v)
	return nil
}

func (b *gvisorPV) SwitchAS(k *guest.Kernel, as *guest.AddrSpace) error {
	k.Phase("pt_switch", b.c.Costs.PTSwitchNoPTI)
	k.Phase("sentry_sched", clock.FromNanos(sentrySchedNs))
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	return faultErr(k.CPU.WriteCR3(as.Root, as.PCID))
}

func (b *gvisorPV) FlushPage(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	_ = k.CPU.Invlpg(va)
}

func (b *gvisorPV) UserAccess(k *guest.Kernel, as *guest.AddrSpace, va uint64, acc mmu.Access) *hw.Fault {
	_, flt := b.c.MMU.Access(k.Clk, k.CPU, k.CPU.CR3(), va, acc, mmu.Dim1D)
	return flt
}

func (b *gvisorPV) Hypercall(k *guest.Kernel, nr int, args ...uint64) (uint64, error) {
	// Host services are host syscalls from the Sentry.
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
	k.Phase("sysret_exit", b.c.Costs.SysretExit)
	return b.c.Host.Hypercall(k.Clk, nr, args...)
}

func (b *gvisorPV) FileBackedFaultExtra(k *guest.Kernel) clock.Time {
	return clock.FromNanos(260) // Sentry file-region registration
}

// migrationCost: moving a Sentry task costs the host migration plus a
// Sentry reschedule on the destination.
func (b *gvisorPV) migrationCost() clock.Time {
	return b.c.Costs.PTSwitchNoPTI + clock.FromNanos(sentrySchedNs) +
		b.c.Costs.MigrationTLBRefill
}

// EmitShootdown: the Sentry cannot touch the ICR itself — it asks the
// host (membarrier/munmap path), which then broadcasts natively.
func (b *gvisorPV) EmitShootdown(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	if b.sd.Send == nil {
		b.sd = smp.ShootdownSpec{
			Send: func(targets []int) error {
				// One host syscall by the Sentry, then per-target ICR writes
				// executed by the host kernel.
				k := b.sdK
				k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
				k.Phase("sysret_exit", b.c.Costs.SysretExit)
				mode := k.CPU.Mode()
				k.CPU.SetMode(hw.ModeKernel)
				defer k.CPU.SetMode(mode)
				for _, t := range targets {
					k.Phase("ipi_send", b.c.Costs.IPISend)
					if f := k.CPU.WriteICR(t, hw.VectorIPI); f != nil {
						return f
					}
				}
				return nil
			},
		}
	}
	b.sdK = k
	b.sd.PCID, b.sd.VA = as.PCID, va
	b.c.emitShootdown(k, b.sd)
}

func (b *gvisorPV) DeliverVirtIRQ(k *guest.Kernel) {
	// Packet → host IRQ → Sentry wakeup → netstack processing.
	b.c.Host.HandleIRQ(k.Clk, hw.VectorVirtIO)
	k.Phase("sentry_wake", clock.FromNanos(sentryWakeNs))
	k.Phase("sentry_netstack", clock.FromNanos(sentryNetstackNs))
}

func (b *gvisorPV) DeliverTimerIRQ(k *guest.Kernel) {
	// Host tick wakes the Sentry, which reschedules its tasks.
	b.c.Host.HandleIRQ(k.Clk, hw.VectorTimer)
	k.Phase("sentry_wake", clock.FromNanos(sentryWakeNs))
	k.Phase("sentry_sched", clock.FromNanos(sentrySchedNs))
}

func (b *gvisorPV) VirtioKick(k *guest.Kernel) error {
	// TX through the Sentry netstack and a host sendmsg.
	k.Phase("sentry_netstack", clock.FromNanos(sentryNetstackNs))
	k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
	k.Phase("sysret_exit", b.c.Costs.SysretExit)
	_, err := b.c.Host.Hypercall(k.Clk, hostKickNr)
	return err
}

const hostKickNr = 5 // host.HcVirtioKick
