package backends

import (
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/smp"
)

// pvmPV is the software-based virtualization backend (PVM, SOSP'23).
// The guest kernel is deprivileged to user mode in its own address
// space; syscalls and exceptions bounce through the host, and the guest
// page tables (gVA→gPA) are shadowed by host-maintained tables
// (gVA→hPA) — so every guest PTE update is a hypercall plus shadow
// bookkeeping, and every guest page fault costs six context switches
// plus emulation (§2.4.2, Fig. 10a).
type pvmPV struct {
	c        *Container
	id       int
	guestMem *mem.PhysMem
	// spt maps a guest table root to its shadow root in host memory.
	spt map[mem.PFN]mem.PFN
	// memslot lazily maps gPA frames to hPA frames.
	memslot map[mem.PFN]mem.PFN

	// Stats.
	VMExits    uint64
	ShadowOps  uint64
	Injections uint64

	// sd caches the shootdown spec so EmitShootdown allocates nothing
	// per downgrade; sdK is the kernel of the in-flight call.
	sd  smp.ShootdownSpec
	sdK *guest.Kernel
}

func newPVMPV(c *Container, id int) (*pvmPV, error) {
	return &pvmPV{
		c:        c,
		id:       id,
		guestMem: mem.New(c.Opts.GuestFrames),
		spt:      make(map[mem.PFN]mem.PFN),
		memslot:  make(map[mem.PFN]mem.PFN),
	}, nil
}

func (b *pvmPV) Name() string {
	if b.c.Opts.Nested {
		return "PVM-NST"
	}
	return "PVM-BM"
}

func (b *pvmPV) guestMemory() *mem.PhysMem  { return b.guestMem }
func (b *pvmPV) boot(k *guest.Kernel) error { return nil }

// hostLeg is one host↔guest transition on PVM's exception/hypercall
// paths: mode switch, page-table switch, register swap.
func (b *pvmPV) hostLeg() clock.Time {
	c := b.c.Costs
	return c.ModeSwitch + c.PTSwitch + c.RegsSwap
}

// chargeHostLeg charges one hostLeg phase by phase; n legs at once.
func (b *pvmPV) chargeHostLeg(k *guest.Kernel, n clock.Time) {
	c := b.c.Costs
	k.Phase("mode_switch", n*c.ModeSwitch)
	k.Phase("pt_switch", n*c.PTSwitch)
	k.Phase("regs_swap", n*c.RegsSwap)
}

// chargeHypercall charges the calibrated PVM hypercall: two legs, IBRS
// on host entry, dispatch — 466ns bare-metal, 486ns nested (Table 2).
func (b *pvmPV) chargeHypercall(k *guest.Kernel) {
	c := b.c.Costs
	b.chargeHostLeg(k, 2)
	k.Phase("ibrs", c.IBRS)
	k.Phase("hypercall_dispatch", c.PVMHypercallDispatch)
	if b.c.Opts.Nested {
		k.Phase("nested_extra", c.PVMNSTSwitchExtra)
	}
}

func (b *pvmPV) SyscallEnter(k *guest.Kernel) {
	// user → host (trap) → guest kernel address space → user-mode guest
	// kernel entry. No IBRS: PVM's optimized syscall path (336ns total).
	c := b.c.Costs
	b.VMExits++
	b.c.auditVMExit(audit.VMExitSyscall)
	k.Phase("syscall_trap", c.SyscallTrap)
	k.Phase("syscall_dispatch", c.PVMSyscallDispatch)
	k.Phase("pt_switch", c.PTSwitch)
	k.Phase("mode_switch", c.ModeSwitch)
	b.c.auditVMEntry(audit.VMExitSyscall)
	// The guest kernel executes in user mode under PVM.
	k.CPU.SetMode(hw.ModeUser)
}

func (b *pvmPV) SyscallExit(k *guest.Kernel) {
	c := b.c.Costs
	k.Phase("syscall_trap", c.SyscallTrap)
	k.Phase("pt_switch", c.PTSwitch)
	k.Phase("sysret_exit", c.SysretExit)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *pvmPV) FaultEnter(k *guest.Kernel) {
	// Host intercepts the fault, walks to classify it, emulates, and
	// injects it into the user-mode guest kernel (§2.4.2).
	c := b.c.Costs
	b.VMExits++
	b.Injections++
	b.c.auditVMExit(audit.VMExitFault)
	k.Phase("exc_trap", c.ExcTrap)
	k.Phase("spt_walk", c.SPTWalk)
	k.Phase("spt_instr_emu", c.SPTInstrEmu)
	k.Phase("spt_exc_inject", c.SPTExcInject)
	b.chargeHostLeg(k, 1)
	k.Phase("ibrs", c.IBRS)
	k.Phase("pvm_exc_rt_extra", c.PVMExcRTExtra)
	k.CPU.SetMode(hw.ModeUser)
	b.c.auditVMEntry(audit.VMExitFault)
}

func (b *pvmPV) FaultExit(k *guest.Kernel) {
	c := b.c.Costs
	b.VMExits++
	b.c.auditVMExit(audit.VMExitFault)
	b.chargeHostLeg(k, 1)
	k.Phase("ibrs", c.IBRS)
	k.Phase("pvm_exc_rt_extra", c.PVMExcRTExtra)
	k.Phase("iret", c.Iret)
	k.CPU.SetMode(hw.ModeUser)
	b.c.auditVMEntry(audit.VMExitFault)
}

func (b *pvmPV) PFHandlerCost(k *guest.Kernel) clock.Time {
	return b.c.Costs.PFHandlerGuest + b.c.Costs.PVMPFHandlerExtra
}

func (b *pvmPV) AllocFrame(k *guest.Kernel) (mem.PFN, error) {
	return b.guestMem.Alloc(k.ContainerID)
}

func (b *pvmPV) FreeFrame(k *guest.Kernel, pfn mem.PFN) {
	_ = b.guestMem.Free(pfn)
}

func (b *pvmPV) DeclarePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN, level int) error {
	if level == pagetable.LevelPML4 {
		// The host prepares a shadow root for the new address space.
		root, err := b.c.HostMem.Alloc(b.id)
		if err != nil {
			return err
		}
		b.spt[ptp] = root
	}
	return nil
}

func (b *pvmPV) RetirePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN) error {
	if root, ok := b.spt[ptp]; ok {
		// Tear down the shadow root (shadow interior pages are left to
		// the host allocator; a real host reclaims them asynchronously).
		delete(b.spt, ptp)
		_ = b.c.HostMem.Free(root)
	}
	return nil
}

// hpaOf translates a guest-physical frame to its backing host frame,
// allocating on first use (memslot population).
func (b *pvmPV) hpaOf(gpfn mem.PFN) (mem.PFN, error) {
	if h, ok := b.memslot[gpfn]; ok {
		return h, nil
	}
	h, err := b.c.HostMem.Alloc(b.id)
	if err != nil {
		return 0, err
	}
	b.memslot[gpfn] = h
	return h, nil
}

// shadowMapper returns the host-side mapper for a guest root's shadow.
func (b *pvmPV) shadowMapper(as *guest.AddrSpace) *pagetable.Mapper {
	return &pagetable.Mapper{
		Mem:   b.c.HostMem,
		Root:  b.spt[as.Root],
		Alloc: func() (mem.PFN, error) { return b.c.HostMem.Alloc(b.id) },
		Sink:  pagetable.RawSink(b.c.HostMem),
	}
}

func (b *pvmPV) WritePTE(k *guest.Kernel, as *guest.AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	// Every guest PTE update is a hypercall; the host re-walks and
	// fixes the shadow (§2.4.2 "inefficient page table updates").
	b.VMExits++
	b.ShadowOps++
	b.c.auditVMExit(audit.VMExitPTE)
	defer b.c.auditVMEntry(audit.VMExitPTE)
	b.chargeHypercall(k)
	k.Phase("spt_mgmt", b.c.Costs.SPTMgmt)
	k.Phase("pte_write", b.c.Costs.PTEWrite)
	pagetable.WriteEntry(b.guestMem, ptp, idx, v)
	// Shadow sync happens on leaf entries: the host translates the gPA
	// through its memslots and installs gVA→hPA.
	leaf := level == pagetable.LevelPT || (level == pagetable.LevelPD && v.Huge())
	oldLeaf := level == pagetable.LevelPT || level == pagetable.LevelPD
	sm := b.shadowMapper(as)
	switch {
	case leaf && v.Present():
		b.c.MMU.TLB.FlushPage(as.PCID, va)
		b.c.obs.Audit.Emit(audit.EvTLBFlushPage, b.c.vcpu, as.PCID, va, 0, 0)
		if v.Huge() {
			seg, err := b.c.HostMem.AllocSegment(mem.HugePageSize/mem.PageSize, b.id)
			if err != nil {
				return err
			}
			flags := v & (pagetable.FlagWritable | pagetable.FlagUser | pagetable.FlagNX)
			return sm.MapHuge(va&^uint64(mem.HugePageSize-1), seg.Base, flags, 0)
		}
		h, err := b.hpaOf(v.PFN())
		if err != nil {
			return err
		}
		flags := v & (pagetable.FlagWritable | pagetable.FlagUser | pagetable.FlagNX)
		return sm.Map(va, h, flags, 0)
	case oldLeaf && !v.Present():
		// Unmap in the shadow if it was mapped.
		if _, err := pagetable.Translate(b.c.HostMem, b.spt[as.Root], va); err == nil {
			if err := sm.Unmap(va); err != nil {
				return err
			}
			b.c.MMU.TLB.FlushPage(as.PCID, va)
			b.c.obs.Audit.Emit(audit.EvTLBFlushPage, b.c.vcpu, as.PCID, va, 0, 0)
		}
	}
	return nil
}

func (b *pvmPV) FlushPage(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	// The flush rides on the PTE-update hypercall the guest already
	// issued; the host invalidates the shadow translation.
	b.c.MMU.TLB.FlushPage(as.PCID, va)
	b.c.obs.Audit.Emit(audit.EvTLBFlushPage, b.c.vcpu, as.PCID, va, 0, 0)
}

func (b *pvmPV) SwitchAS(k *guest.Kernel, as *guest.AddrSpace) error {
	// The guest kernel cannot load CR3: it hypercalls, and the host
	// loads the shadow root (§7.1 lmbench analysis).
	b.VMExits++
	b.c.auditVMExit(audit.VMExitHypercall)
	defer b.c.auditVMEntry(audit.VMExitHypercall)
	b.chargeHypercall(k)
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	return faultErr(k.CPU.WriteCR3(b.spt[as.Root], as.PCID))
}

func (b *pvmPV) UserAccess(k *guest.Kernel, as *guest.AddrSpace, va uint64, acc mmu.Access) *hw.Fault {
	// The hardware walks the shadow table: single-stage, host memory.
	_, flt := b.c.MMU.Access(k.Clk, k.CPU, b.spt[as.Root], va, acc, mmu.Dim1D)
	return flt
}

func (b *pvmPV) Hypercall(k *guest.Kernel, nr int, args ...uint64) (uint64, error) {
	b.VMExits++
	b.c.auditVMExit(audit.VMExitHypercall)
	b.chargeHypercall(k)
	ret, err := b.c.Host.Hypercall(k.Clk, nr, args...)
	b.c.auditVMEntry(audit.VMExitHypercall)
	return ret, err
}

func (b *pvmPV) FileBackedFaultExtra(k *guest.Kernel) clock.Time {
	if b.c.Opts.Nested {
		return b.c.Costs.MmapFileExtraPVMNST
	}
	return b.c.Costs.MmapFileExtraPVM
}

// migrationCost: the host moves the vCPU thread — one host leg to load
// the shadow root on the destination, which starts with a cold TLB.
func (b *pvmPV) migrationCost() clock.Time {
	return b.hostLeg() + b.c.Costs.MigrationTLBRefill
}

// EmitShootdown: the deprivileged guest kernel cannot write the ICR —
// one hypercall, and the host fans the IPIs out. The remote side is
// cheap: the IPI lands in the host, which invalidates the shadow
// translation directly without switching into the remote guest.
func (b *pvmPV) EmitShootdown(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	if b.sd.Send == nil {
		b.sd = smp.ShootdownSpec{
			Send: func(targets []int) error {
				k := b.sdK
				b.VMExits++
				b.c.auditVMExit(audit.VMExitIPI)
				b.chargeHypercall(k)
				_, err := b.c.Host.Hypercall(k.Clk, host.HcSendIPI,
					vcpuMask(targets), uint64(hw.VectorIPI))
				b.c.auditVMEntry(audit.VMExitIPI)
				return err
			},
		}
	}
	b.sdK = k
	b.sd.PCID, b.sd.VA = as.PCID, va
	b.c.emitShootdown(k, b.sd)
}

func (b *pvmPV) DeliverVirtIRQ(k *guest.Kernel) {
	// Host IRQ, then a switch into the user-mode guest kernel to run
	// its virtual-interrupt handler, then back.
	c := b.c.Costs
	b.Injections++
	b.c.Host.HandleIRQ(k.Clk, hw.VectorVirtIO)
	b.chargeHostLeg(k, 2)
	k.Phase("ibrs", c.IBRS)
	k.Phase("interrupt_deliver", c.InterruptDeliver)
}

func (b *pvmPV) DeliverTimerIRQ(k *guest.Kernel) {
	// Host tick, then a switch into the user-mode guest kernel's
	// virtual-timer handler and back.
	c := b.c.Costs
	b.Injections++
	b.c.Host.HandleIRQ(k.Clk, hw.VectorTimer)
	b.chargeHostLeg(k, 2)
	k.Phase("ibrs", c.IBRS)
	k.Phase("interrupt_deliver", c.InterruptDeliver)
}

func (b *pvmPV) VirtioKick(k *guest.Kernel) error {
	// PVM's virtio frontend is MMIO-based: the doorbell store faults to
	// the host, which decodes and emulates the access — a full shadow-
	// style exception round trip, far costlier than CKI's hypercall
	// doorbell (§7.3: "the simpler VirtIO implementation in CKI, such
	// as replacing MMIOs with hypercalls").
	c := b.c.Costs
	b.VMExits++
	b.c.auditVMExit(audit.VMExitVirtio)
	k.Phase("exc_trap", c.ExcTrap)
	k.Phase("spt_instr_emu", c.SPTInstrEmu)
	k.Phase("mmio_decode", c.MMIODecode)
	b.chargeHostLeg(k, 2)
	k.Phase("ibrs", c.IBRS)
	k.Phase("pvm_exc_rt_extra", 2*c.PVMExcRTExtra)
	_, err := b.c.Host.Hypercall(k.Clk, host.HcVirtioKick)
	b.c.auditVMEntry(audit.VMExitVirtio)
	return err
}
