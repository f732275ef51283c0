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
	"repro/internal/tlb"
)

// hvmPV is the hardware-assisted virtualization backend (Kata-style).
// The guest owns a private guest-physical address space and manages its
// page tables freely in non-root mode; the host maintains an EPT from
// gPA to hPA. Costs concentrate in two places: every first touch of a
// gPA raises an EPT violation (a VM exit; under nesting, an L0-mediated
// shadow-EPT ordeal), and every TLB miss pays the two-dimensional walk.
type hvmPV struct {
	c        *Container
	id       int
	guestMem *mem.PhysMem
	// eptRoot is a real page table in host memory translating
	// gPA (as the walk's "virtual" address) to hPA.
	eptRoot mem.PFN
	eptMap  *pagetable.Mapper
	// vtlbs are the per-vCPU virtual TLBs caching gVA→gPA translations
	// tagged by the guest's PCID (VPID in hardware terms); vcpu selects
	// the one backing the core the container currently runs on.
	vtlbs []*tlb.TLB
	vcpu  int

	// sd caches the shootdown spec so EmitShootdown allocates nothing
	// per downgrade; sdK is the kernel of the in-flight call.
	sd  smp.ShootdownSpec
	sdK *guest.Kernel

	// Stats.
	EPTViolations uint64
	VMExits       uint64
}

// vtlb is the virtual TLB of the current vCPU.
func (b *hvmPV) vtlb() *tlb.TLB { return b.vtlbs[b.vcpu] }

func (b *hvmPV) setVCPU(v int) {
	if v >= 0 && v < len(b.vtlbs) {
		b.vcpu = v
	}
}

func newHVMPV(c *Container, id int) (*hvmPV, error) {
	gm := mem.New(c.Opts.GuestFrames)
	// The EPT is the container's: tagged with its ID, every table page
	// goes back to the host when the container is reclaimed.
	root, err := c.HostMem.Alloc(id)
	if err != nil {
		return nil, err
	}
	b := &hvmPV{
		c:        c,
		id:       id,
		guestMem: gm,
		eptRoot:  root,
	}
	for i := 0; i < c.Opts.NumVCPU; i++ {
		b.vtlbs = append(b.vtlbs, tlb.New(c.Opts.TLBEntries))
	}
	b.eptMap = &pagetable.Mapper{
		Mem:   c.HostMem,
		Root:  root,
		Alloc: func() (mem.PFN, error) { return c.HostMem.Alloc(id) },
		Sink:  pagetable.RawSink(c.HostMem),
	}
	return b, nil
}

func (b *hvmPV) Name() string {
	if b.c.Opts.Nested {
		return "HVM-NST"
	}
	return "HVM-BM"
}

func (b *hvmPV) guestMemory() *mem.PhysMem  { return b.guestMem }
func (b *hvmPV) boot(k *guest.Kernel) error { return nil }

// chargeVMExit charges one guest↔host transition: a plain VM exit on
// bare metal, an L0-forwarded round trip when nested (§2.4.1).
func (b *hvmPV) chargeVMExit(k *guest.Kernel) {
	c := b.c.Costs
	if b.c.Opts.Nested {
		k.Phase("nested_leg", 2*c.NestedLegRT)
		k.Phase("kvm_dispatch", c.KVMDispatch)
		return
	}
	k.Phase("vm_exit", c.VMExit)
	k.Phase("kvm_dispatch", c.KVMDispatch)
	k.Phase("vm_entry", c.VMEntry)
}

// eptViolation services one missing gPA mapping.
func (b *hvmPV) eptViolation(k *guest.Kernel, gpfn mem.PFN) error {
	b.EPTViolations++
	b.VMExits++
	b.c.auditVMExit(audit.VMExitEPTViolation)
	c := b.c.Costs
	span := k.SpanBegin("ept_violation")
	if b.c.Opts.Nested {
		// The L2 exit is forwarded through L0 to the L1 hypervisor,
		// whose shadow-EPT handling issues many VMCS accesses, each an
		// L1↔L0 round trip (no VMCS shadowing for nested EPT state).
		k.Phase("nested_leg", 2*c.NestedLegRT)
		k.Phase("sept_vmcs_accesses", clock.Time(c.SEPTEmulVMCSAccesses)*c.VMCSAccessRT)
		k.Phase("sept_emul_work", c.SEPTEmulWork)
	} else {
		k.Phase("vm_exit", c.VMExit)
		k.Phase("ept_violation_work", c.EPTViolationWork)
		k.Phase("vm_entry", c.VMEntry)
	}
	k.SpanEnd(span)
	b.c.auditVMEntry(audit.VMExitEPTViolation)
	if b.c.Opts.EPTHugePages {
		base := gpfn &^ (mem.HugePageSize/mem.PageSize - 1)
		seg, err := b.c.HostMem.AllocSegment(mem.HugePageSize/mem.PageSize, b.id)
		if err != nil {
			return err
		}
		return b.eptMap.MapHuge(base.Addr(), seg.Base,
			pagetable.FlagWritable|pagetable.FlagUser, 0)
	}
	hpfn, err := b.c.HostMem.Alloc(b.id)
	if err != nil {
		return err
	}
	return b.eptMap.Map(gpfn.Addr(), hpfn, pagetable.FlagWritable|pagetable.FlagUser, 0)
}

// ensureEPT makes gpfn reachable through the EPT, raising a violation
// if it is not yet mapped.
func (b *hvmPV) ensureEPT(k *guest.Kernel, gpfn mem.PFN) error {
	if _, err := pagetable.Translate(b.c.HostMem, b.eptRoot, gpfn.Addr()); err == nil {
		return nil
	}
	return b.eptViolation(k, gpfn)
}

func (b *hvmPV) SyscallEnter(k *guest.Kernel) {
	// Native path inside the guest; no VM exit (§7.1).
	k.Phase("syscall_trap", b.c.Costs.SyscallTrap)
	k.Phase("hvm_syscall_extra", b.c.Costs.HVMSyscallExtra)
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *hvmPV) SyscallExit(k *guest.Kernel) {
	k.Phase("sysret_exit", b.c.Costs.SysretExit)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *hvmPV) FaultEnter(k *guest.Kernel) {
	k.Phase("exc_trap", b.c.Costs.ExcTrap)
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *hvmPV) FaultExit(k *guest.Kernel) {
	k.Phase("iret", b.c.Costs.Iret)
	k.CPU.SetMode(hw.ModeUser)
}

func (b *hvmPV) PFHandlerCost(k *guest.Kernel) clock.Time {
	c := b.c.Costs
	d := c.PFHandlerGuest + c.HVMPFHandlerExtra
	if b.c.Opts.Nested {
		d += c.HVMNSTPFHandlerExtra
	}
	return d
}

func (b *hvmPV) AllocFrame(k *guest.Kernel) (mem.PFN, error) {
	return b.guestMem.Alloc(k.ContainerID)
}

func (b *hvmPV) FreeFrame(k *guest.Kernel, pfn mem.PFN) {
	_ = b.guestMem.Free(pfn)
}

func (b *hvmPV) DeclarePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN, level int) error {
	return nil // the guest owns its tables in non-root mode
}

func (b *hvmPV) RetirePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN) error {
	return nil
}

func (b *hvmPV) WritePTE(k *guest.Kernel, as *guest.AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	// Direct store: no exit. The EPT bill arrives at first touch.
	k.Phase("pte_write", b.c.Costs.PTEWrite)
	pagetable.WriteEntry(b.guestMem, ptp, idx, v)
	return nil
}

func (b *hvmPV) SwitchAS(k *guest.Kernel, as *guest.AddrSpace) error {
	k.Phase("pt_switch", b.c.Costs.PTSwitchNoPTI)
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	return faultErr(k.CPU.WriteCR3(as.Root, as.PCID))
}

func (b *hvmPV) FlushPage(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	k.Phase("invlpg", b.c.Costs.Invlpg)
	b.vtlb().FlushPage(as.PCID, va)
}

// UserAccess is the two-dimensional translation: a vTLB probe, then a
// guest-table walk in which every table frame and the leaf frame must
// be EPT-resident (violations are serviced inline, as hardware would
// re-execute the access).
func (b *hvmPV) UserAccess(k *guest.Kernel, as *guest.AddrSpace, va uint64, acc mmu.Access) *hw.Fault {
	pcid := k.CPU.PCID()
	if e, ok := b.vtlb().Lookup(pcid, va); ok {
		return mmu.Check(k.CPU, e, va, acc)
	}
	ptp := as.Root
	agg := tlb.Entry{Writable: true, User: true}
	for level := pagetable.LevelPML4; level >= pagetable.LevelPT; level-- {
		if err := b.ensureEPT(k, ptp); err != nil {
			return &hw.Fault{Kind: hw.FaultGP, Addr: va, Instr: "ept-exhausted"}
		}
		e := pagetable.ReadEntry(b.guestMem, ptp, pagetable.IndexAt(va, level))
		if !e.Present() {
			return &hw.Fault{Kind: hw.FaultNotMapped, Addr: va, Write: acc == mmu.Write, Mode: k.CPU.Mode()}
		}
		agg.Writable = agg.Writable && e.Writable()
		agg.User = agg.User && e.User()
		agg.NX = agg.NX || e.NX()
		if level == pagetable.LevelPT || (level == pagetable.LevelPD && e.Huge()) {
			agg.PKey = e.PKey()
			agg.Huge = e.Huge() && level == pagetable.LevelPD
			leaf := e.PFN()
			if agg.Huge {
				leaf += mem.PFN((va & (mem.HugePageSize - 1)) >> mem.PageShift)
				agg.PFN = e.PFN() // region base for the 2M TLB entry
			} else {
				agg.PFN = leaf
			}
			if err := b.ensureEPT(k, leaf); err != nil {
				return &hw.Fault{Kind: hw.FaultGP, Addr: va, Instr: "ept-exhausted"}
			}
			if flt := mmu.Check(k.CPU, agg, va, acc); flt != nil {
				return flt
			}
			// Charge the 2-D fill and set guest A/D bits.
			if agg.Huge {
				k.Phase("tlb_fill_2d_2m", b.c.Costs.TLBMiss2D2M)
			} else {
				k.Phase("tlb_fill_2d", b.c.Costs.TLBMiss2D)
			}
			w, err := pagetable.Translate(b.guestMem, as.Root, va)
			if err == nil {
				pagetable.SetAccessedDirty(b.guestMem, w, acc == mmu.Write)
			}
			b.vtlb().Insert(pcid, va, agg)
			return nil
		}
		ptp = e.PFN()
	}
	return &hw.Fault{Kind: hw.FaultNotMapped, Addr: va}
}

func (b *hvmPV) Hypercall(k *guest.Kernel, nr int, args ...uint64) (uint64, error) {
	b.VMExits++
	b.c.auditVMExit(audit.VMExitHypercall)
	b.chargeVMExit(k)
	ret, err := b.c.Host.Hypercall(k.Clk, nr, args...)
	b.c.auditVMEntry(audit.VMExitHypercall)
	return ret, err
}

func (b *hvmPV) FileBackedFaultExtra(k *guest.Kernel) clock.Time {
	if b.c.Opts.Nested {
		return b.c.Costs.MmapFileExtraHVMNST
	}
	return b.c.Costs.MmapFileExtraHVMBM
}

// migrationCost: KVM reloads the VMCS on the destination core (nested,
// the reload is L0-forwarded) and the vTLB there starts cold.
func (b *hvmPV) migrationCost() clock.Time {
	c := b.c.Costs
	d := c.VMCSReload + c.MigrationTLBRefill
	if b.c.Opts.Nested {
		d += 2 * c.NestedLegRT
	}
	return d
}

// EmitShootdown: a guest ICR write in non-root mode traps (no APICv
// assist modelled), so each send is a VM exit; each remote vCPU also
// exits for the flush IPI and re-enters after the ack.
func (b *hvmPV) EmitShootdown(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	if b.sd.Send == nil {
		c := b.c.Costs
		// Nested-ness is fixed per container, so the remote service
		// flow is interned up front.
		var phases []smp.PhaseCost
		if b.c.Opts.Nested {
			phases = []smp.PhaseCost{
				{Name: "nested_leg", Cost: 2 * c.NestedLegRT},
				{Name: "interrupt_deliver", Cost: c.InterruptDeliver},
				{Name: "invlpg", Cost: c.Invlpg},
				{Name: "ipi_ack", Cost: c.IPIAck},
			}
		} else {
			phases = []smp.PhaseCost{
				{Name: "vm_exit", Cost: c.VMExit},
				{Name: "interrupt_deliver", Cost: c.InterruptDeliver},
				{Name: "invlpg", Cost: c.Invlpg},
				{Name: "ipi_ack", Cost: c.IPIAck},
				{Name: "vm_entry", Cost: c.VMEntry},
			}
		}
		b.sd = smp.ShootdownSpec{
			Send: func(targets []int) error {
				k := b.sdK
				for _, t := range targets {
					b.VMExits++
					b.c.auditVMExit(audit.VMExitIPI)
					b.chargeVMExit(k)
					k.Phase("ipi_send", c.IPISend)
					b.c.smp.Post(t, hw.VectorIPI)
					b.c.auditVMEntry(audit.VMExitIPI)
				}
				return nil
			},
			RemotePhases: phases,
			RemoteFlush: func(v *smp.VCPU) error {
				if v.ID < len(b.vtlbs) {
					b.vtlbs[v.ID].FlushPage(b.sd.PCID, b.sd.VA)
				}
				return nil
			},
		}
	}
	b.sdK = k
	b.sd.PCID, b.sd.VA = as.PCID, va
	b.c.emitShootdown(k, b.sd)
}

func (b *hvmPV) DeliverVirtIRQ(k *guest.Kernel) {
	// External interrupt → VM exit → host IRQ → VM entry with
	// injection, plus the guest's EOI write, which traps again. Nested,
	// both exits are forwarded through L0 and the injection's VMCS
	// writes each cost an L1↔L0 round trip (no virtual-APIC assist for
	// the L2).
	c := b.c.Costs
	b.c.auditVMExit(audit.VMExitVirtio)
	if b.c.Opts.Nested {
		b.VMExits += 2
		k.Phase("nested_leg", 4*c.NestedLegRT)
		k.Phase("vmcs_access", 2*c.VMCSAccessRT)
	} else {
		b.VMExits += 2
		k.Phase("vm_exit", 2*c.VMExit)
		k.Phase("vm_entry", 2*c.VMEntry)
	}
	b.c.Host.HandleIRQ(k.Clk, hw.VectorVirtIO)
	k.Phase("interrupt_deliver", c.InterruptDeliver)
	k.Phase("iret", c.Iret)
	b.c.auditVMEntry(audit.VMExitVirtio)
}

func (b *hvmPV) DeliverTimerIRQ(k *guest.Kernel) {
	// The host's tick exits the guest; nested, it is L0-forwarded.
	c := b.c.Costs
	b.VMExits++
	b.c.auditVMExit(audit.VMExitTimer)
	if b.c.Opts.Nested {
		k.Phase("nested_leg", 2*c.NestedLegRT)
	} else {
		k.Phase("vm_exit", c.VMExit)
		k.Phase("vm_entry", c.VMEntry)
	}
	b.c.Host.HandleIRQ(k.Clk, hw.VectorTimer)
	k.Phase("interrupt_deliver", c.InterruptDeliver)
	k.Phase("iret", c.Iret)
	b.c.auditVMEntry(audit.VMExitTimer)
}

func (b *hvmPV) VirtioKick(k *guest.Kernel) error {
	// The kick is an MMIO store: exit + instruction decode/emulation.
	b.VMExits++
	b.c.auditVMExit(audit.VMExitVirtio)
	b.chargeVMExit(k)
	k.Phase("mmio_decode", b.c.Costs.MMIODecode)
	_, err := b.c.Host.Hypercall(k.Clk, host.HcVirtioKick)
	b.c.auditVMEntry(audit.VMExitVirtio)
	return err
}

// faultErr converts a *hw.Fault to error without the typed-nil trap.
func faultErr(f *hw.Fault) error {
	if f == nil {
		return nil
	}
	return f
}
