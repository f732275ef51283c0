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

// runcPV is the OS-level container baseline: the "guest kernel" is the
// host kernel itself, so every hook is the native flow plus the
// seccomp/audit filtering RunC applies per syscall.
type runcPV struct {
	c *Container

	// sd caches the shootdown spec (closures capture b, not the call's
	// arguments) so EmitShootdown allocates nothing per downgrade; sdK
	// is the kernel of the in-flight call.
	sd  smp.ShootdownSpec
	sdK *guest.Kernel
}

func newRunCPV(c *Container) *runcPV { return &runcPV{c: c} }

func (b *runcPV) Name() string               { return "RunC" }
func (b *runcPV) guestMemory() *mem.PhysMem  { return b.c.HostMem }
func (b *runcPV) boot(k *guest.Kernel) error { return nil }

func (b *runcPV) SyscallEnter(k *guest.Kernel) {
	k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
	k.Phase("host_syscall_extra", b.c.Costs.HostSyscallExtra)
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *runcPV) SyscallExit(k *guest.Kernel) {
	k.Phase("sysret_exit", b.c.Costs.SysretExit)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *runcPV) FaultEnter(k *guest.Kernel) {
	k.Phase("exc_trap", b.c.Costs.ExcTrap)
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *runcPV) FaultExit(k *guest.Kernel) {
	k.Phase("iret", b.c.Costs.Iret)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *runcPV) PFHandlerCost(k *guest.Kernel) clock.Time {
	return b.c.Costs.PFHandlerHost
}

func (b *runcPV) AllocFrame(k *guest.Kernel) (mem.PFN, error) {
	return b.c.HostMem.Alloc(k.ContainerID)
}

func (b *runcPV) FreeFrame(k *guest.Kernel, pfn mem.PFN) {
	_ = b.c.HostMem.Free(pfn)
}

func (b *runcPV) DeclarePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN, level int) error {
	return nil // the host kernel trusts itself
}

func (b *runcPV) RetirePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN) error {
	return nil
}

func (b *runcPV) WritePTE(k *guest.Kernel, as *guest.AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	k.Phase("pte_write", b.c.Costs.PTEWrite)
	pagetable.WriteEntry(b.c.HostMem, ptp, idx, v)
	return nil
}

func (b *runcPV) SwitchAS(k *guest.Kernel, as *guest.AddrSpace) error {
	// AMD EPYC with PTI off: a bare CR3 write with a PCID tag.
	k.Phase("pt_switch", b.c.Costs.PTSwitchNoPTI)
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	if flt := k.CPU.WriteCR3(as.Root, as.PCID); flt != nil {
		return flt
	}
	return nil
}

func (b *runcPV) FlushPage(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	_ = k.CPU.Invlpg(va)
}

func (b *runcPV) UserAccess(k *guest.Kernel, as *guest.AddrSpace, va uint64, acc mmu.Access) *hw.Fault {
	_, flt := b.c.MMU.Access(k.Clk, k.CPU, k.CPU.CR3(), va, acc, mmu.Dim1D)
	return flt
}

func (b *runcPV) Hypercall(k *guest.Kernel, nr int, args ...uint64) (uint64, error) {
	// OS-level containers have no hypervisor; host services are just
	// syscalls. Model as a direct host-kernel call.
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(hw.ModeUser)
	k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
	k.Phase("sysret_exit", b.c.Costs.SysretExit)
	return b.c.Host.Hypercall(k.Clk, nr, args...)
}

func (b *runcPV) FileBackedFaultExtra(k *guest.Kernel) clock.Time {
	return b.c.Costs.MmapFileExtraRunC
}

// migrationCost: a native task migration is a CR3 load plus the cold
// TLB the task finds on the new core.
func (b *runcPV) migrationCost() clock.Time {
	return b.c.Costs.PTSwitchNoPTI + b.c.Costs.MigrationTLBRefill
}

// EmitShootdown broadcasts a native TLB shootdown: the (host) kernel
// writes the ICR once per target core; each remote runs the ordinary
// flush-IPI handler (deliver, invlpg, ack, iret).
func (b *runcPV) EmitShootdown(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	if b.sd.Send == nil {
		b.sd = smp.ShootdownSpec{
			Send: func(targets []int) error {
				k := b.sdK
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

func (b *runcPV) DeliverVirtIRQ(k *guest.Kernel) {
	// Native IRQ: delivery, host handler, iret.
	k.Phase("interrupt_deliver", b.c.Costs.InterruptDeliver)
	k.Phase("iret", b.c.Costs.Iret)
	b.c.Host.HandleIRQ(k.Clk, hw.VectorVirtIO)
}

func (b *runcPV) DeliverTimerIRQ(k *guest.Kernel) {
	// Native tick: delivery, host handler, iret.
	k.Phase("interrupt_deliver", b.c.Costs.InterruptDeliver)
	k.Phase("iret", b.c.Costs.Iret)
	b.c.Host.HandleIRQ(k.Clk, hw.VectorTimer)
}

func (b *runcPV) VirtioKick(k *guest.Kernel) error {
	// No virtualized I/O: the "kick" is the host driver's doorbell.
	k.Phase("mem_ref", b.c.Costs.MemRef)
	return nil
}
