package backends

import (
	"errors"
	"fmt"

	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/smp"
)

// ckiPV is the paper's runtime: the guest kernel runs in CPU kernel
// mode under PKRSGuest, syscalls and user page faults never leave the
// container, privileged operations go through the KSM call gate, and
// host services go through the switcher. The guest manages delegated
// host-physical segments directly, so there is no second translation
// stage at all.
type ckiPV struct {
	c    *Container
	id   int
	ksm  *cki.KSM
	gate *cki.Gate
	sw   *cki.Switcher

	// vcpu is the virtual CPU the container currently runs on; it
	// selects the per-vCPU top-level copy and secure stack (Fig. 8c).
	vcpu   int
	sealed bool

	// sd caches the shootdown spec so EmitShootdown allocates nothing
	// per downgrade; sdK/sdRoot carry the in-flight call's kernel and
	// address-space root.
	sd     smp.ShootdownSpec
	sdK    *guest.Kernel
	sdRoot mem.PFN
}

func newCKIPV(c *Container, id int) (*ckiPV, error) {
	ksm, err := cki.NewKSM(c.HostMem, c.Costs, id, c.Opts.NumVCPU)
	if err != nil {
		return nil, err
	}
	seg, err := c.Host.DelegateSegment(c.Opts.SegmentFrames, id)
	if err != nil {
		return nil, err
	}
	ksm.DelegateSegments(seg)
	gate := &cki.Gate{KSM: ksm, CPU: c.CPU, Clk: c.Clk, Costs: c.Costs, MMU: c.MMU}
	return &ckiPV{
		c:    c,
		id:   id,
		ksm:  ksm,
		gate: gate,
		sw:   &cki.Switcher{Gate: gate, Host: c.Host},
	}, nil
}

func (b *ckiPV) Name() string {
	if b.c.Opts.Nested {
		return "CKI-NST"
	}
	return "CKI-BM"
}

func (b *ckiPV) guestMemory() *mem.PhysMem { return b.c.HostMem }

func (b *ckiPV) boot(k *guest.Kernel) error {
	return b.sw.InstallIDT(hw.VectorTimer, hw.VectorVirtIO, hw.VectorIPI)
}

// KSM exposes the monitor (harness, security tests).
func (b *ckiPV) KSM() *cki.KSM { return b.ksm }

// setVCPU rebinds the backend to the vCPU the container was just
// migrated to: the gate must issue its checks on that core's CPU/MMU,
// and the per-vCPU copy index follows the move.
func (b *ckiPV) setVCPU(v int) {
	b.vcpu = v
	b.gate.VCPU = v
	b.gate.CPU = b.c.CPU
	b.gate.MMU = b.c.MMU
}

// migrationCost: CKI's CR3 reload itself is charged by hostActivate
// (verify + switch); what migration adds is the cold TLB on the new
// core.
func (b *ckiPV) migrationCost() clock.Time {
	return b.c.Costs.MigrationTLBRefill
}

// EmitShootdown is the KSM-mediated protocol of the SMP model: the
// guest kernel cannot write the ICR (PKS-blocked), so it issues one
// HcSendIPI through the switcher with the target mask; the host
// validates the mask and posts the vector to each sibling vCPU. The
// remote handler invalidates the stale translation and — the CKI
// twist — has the KSM refresh that vCPU's top-level PTP copy, so a
// downgraded PML4 entry cannot survive in a sibling's private copy.
func (b *ckiPV) EmitShootdown(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	if b.sd.Send == nil {
		c := b.c.Costs
		b.sd = smp.ShootdownSpec{
			Send: func(targets []int) error {
				k := b.sdK
				mode := k.CPU.Mode()
				k.CPU.SetMode(hw.ModeKernel)
				defer k.CPU.SetMode(mode)
				_, err := b.sw.Hypercall(host.HcSendIPI,
					vcpuMask(targets), uint64(hw.VectorIPI))
				return err
			},
			// Extended delivery on the remote: deliver, invlpg, the
			// KSM's copy re-verification, ack write, extended iret.
			RemotePhases: []smp.PhaseCost{
				{Name: "interrupt_deliver", Cost: c.InterruptDeliver},
				{Name: "invlpg", Cost: c.Invlpg},
				{Name: "ksm_reverify", Cost: c.KSMPTEVerify},
				{Name: "ipi_ack", Cost: c.IPIAck},
				{Name: "iret", Cost: c.Iret},
			},
			RemoteFlush: func(v *smp.VCPU) error {
				_, err := b.ksm.RefreshTopCopy(b.sdRoot, v.ID)
				return err
			},
		}
	}
	b.sdK, b.sdRoot = k, as.Root
	b.sd.PCID, b.sd.VA = as.PCID, va
	b.c.emitShootdown(k, b.sd)
}

// Switcher exposes the host gate (attack simulations).
func (b *ckiPV) Switcher() *cki.Switcher { return b.sw }

func (b *ckiPV) SyscallEnter(k *guest.Kernel) {
	c := b.c.Costs
	k.Phase("syscall_trap", c.SyscallTrap)
	if b.c.Opts.WoOPT2 {
		k.Phase("pt_switch", c.PTSwitch) // ablation: page-table switch on entry
	}
	if b.c.Opts.DesignPKU {
		// PKU alternative: the syscall lands in the PKU-isolated
		// user-mode guest kernel, crossing a protection-key domain.
		k.Phase("wrpkru", c.WrPKRU)
		k.Phase("mode_switch", c.ModeSwitch)
	}
	if b.c.Opts.EmulatePVMSyscall {
		// §7.3: graft PVM's redirection latency onto CKI (enter half).
		k.Phase("mode_switch", c.ModeSwitch)
		k.Phase("pt_switch", c.PTSwitch)
		k.Phase("syscall_dispatch", c.PVMSyscallDispatch)
	}
	if k.CPU.Mode() == hw.ModeUser {
		k.CPU.Syscall()
	} else {
		k.CPU.SetMode(hw.ModeKernel)
	}
}

func (b *ckiPV) SyscallExit(k *guest.Kernel) {
	c := b.c.Costs
	k.Phase("sysret_exit", c.SysretExit)
	if b.c.Opts.WoOPT2 {
		k.Phase("pt_switch", c.PTSwitch)
	}
	if b.c.Opts.WoOPT3 {
		// Ablation: sysret/swapgs blocked; the exit detours through the
		// KSM (two PKS switches + emulation).
		k.Phase("wrpkrs_leg", 2*c.WrPKRSLeg)
		k.Phase("ksm_sysret_emul", c.KSMSysretEmul)
	}
	if b.c.Opts.DesignPKU {
		k.Phase("wrpkru", c.WrPKRU)
		k.Phase("mode_switch", c.ModeSwitch)
	}
	if b.c.Opts.EmulatePVMSyscall {
		k.Phase("mode_switch", c.ModeSwitch)
		k.Phase("pt_switch", c.PTSwitch)
	}
	if flt := k.CPU.Sysret(true); flt != nil {
		k.CPU.SetMode(hw.ModeUser)
	}
}

func (b *ckiPV) FaultEnter(k *guest.Kernel) {
	// The user exception vectors straight into the guest kernel's
	// handler: PKRS is already PKRSGuest in user mode (§4.2).
	c := b.c.Costs
	k.Phase("exc_trap", c.ExcTrap)
	if b.c.Opts.DesignPKU {
		// PKU alternative (§3.1): exceptions trap to the host kernel,
		// which injects them into the user-mode guest kernel with
		// additional cross-ring switches (~750ns extra on the paper's
		// testbed).
		k.Phase("pku_exc_inject", 2*c.ModeSwitch+c.SPTExcInject+2*c.WrPKRU+
			c.ExcTrap+2*c.RegsSwap+c.PVMExcRTExtra*2)
	}
	k.CPU.SetMode(hw.ModeKernel)
}

func (b *ckiPV) FaultExit(k *guest.Kernel) {
	// iret is PKS-blocked, so the guest calls the KSM: one entry leg,
	// then the extended iret restores PKRS from the frame (§4.2).
	c := b.c.Costs
	b.gateHardening(k)
	k.Phase("wrpkrs_leg", c.WrPKRSLeg)
	if flt := k.CPU.Wrpkrs(0); flt != nil {
		k.CPU.SetMode(hw.ModeUser)
		return
	}
	b.ksm.Stats.IRets++
	frame := &hw.Frame{
		SavedMode: hw.ModeUser,
		SavedIF:   true,
		SavedPKRS: cki.PKRSGuest,
	}
	k.Phase("iret", c.Iret)
	if flt := k.CPU.Iret(frame); flt != nil {
		k.CPU.SetMode(hw.ModeUser)
	}
}

func (b *ckiPV) PFHandlerCost(k *guest.Kernel) clock.Time {
	return b.c.Costs.PFHandlerGuest
}

func (b *ckiPV) AllocFrame(k *guest.Kernel) (mem.PFN, error) {
	pfn, err := b.ksm.AllocGuestFrame()
	if errors.Is(err, cki.ErrSegmentExhausted) {
		// Memory hotplug: ask the host for another delegated segment.
		const growFrames = 4096
		base, herr := b.Hypercall(k, host.HcMemExtend, growFrames, uint64(b.id))
		if herr != nil {
			return 0, fmt.Errorf("cki: segment grow: %w", herr)
		}
		b.ksm.DelegateSegments(mem.Segment{Base: mem.PFN(base), Frames: growFrames})
		return b.ksm.AllocGuestFrame()
	}
	return pfn, err
}

func (b *ckiPV) FreeFrame(k *guest.Kernel, pfn mem.PFN) {
	b.ksm.FreeGuestFrame(pfn)
}

// gateHardening charges the PTI-class flush + IBRS that §3.3 removes
// from the KSM gate (zero unless the ablation is on).
func (b *ckiPV) gateHardening(k *guest.Kernel) {
	if b.c.Opts.HardenKSMGate {
		k.Phase("gate_hardening", b.c.Costs.PTSwitch-b.c.Costs.PTSwitchNoPTI+b.c.Costs.IBRS)
	}
}

func (b *ckiPV) DeclarePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN, level int) error {
	if !b.sealed {
		if seg := k.KernelTextSegment(); seg.Frames > 0 {
			b.ksm.SealKernelText(seg)
			b.sealed = true
		}
	}
	b.gateHardening(k)
	return b.gate.Call(func() error {
		k.Phase("ksm_pte_verify", b.c.Costs.KSMPTEVerify)
		return b.ksm.DeclarePTP(ptp, level)
	})
}

func (b *ckiPV) RetirePTP(k *guest.Kernel, as *guest.AddrSpace, ptp mem.PFN) error {
	b.gateHardening(k)
	return b.gate.Call(func() error {
		k.Phase("ksm_pte_verify", b.c.Costs.KSMPTEVerify)
		return b.ksm.Retire(ptp)
	})
}

func (b *ckiPV) WritePTE(k *guest.Kernel, as *guest.AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
	b.gateHardening(k)
	return b.gate.Call(func() error {
		k.Phase("ksm_pte_verify", b.c.Costs.KSMPTEVerify)
		k.Phase("pte_write", b.c.Costs.PTEWrite)
		return b.ksm.WritePTE(level, ptp, idx, v)
	})
}

func (b *ckiPV) SwitchAS(k *guest.Kernel, as *guest.AddrSpace) error {
	b.gateHardening(k)
	return b.gate.Call(func() error {
		k.Phase("ksm_cr3_verify", b.c.Costs.KSMCR3Verify)
		k.Phase("pt_switch", b.c.Costs.PTSwitchNoPTI)
		cp, err := b.ksm.LoadCR3(b.vcpu, as.Root)
		if err != nil {
			return err
		}
		return faultErr(k.CPU.WriteCR3(cp, as.PCID))
	})
}

func (b *ckiPV) FlushPage(k *guest.Kernel, as *guest.AddrSpace, va uint64) {
	// invlpg stays executable in the guest kernel; PCID scoping keeps it
	// from touching other containers' entries (§4.1).
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	_ = k.CPU.Invlpg(va)
}

// hostActivate is the host scheduler's re-entry into this container:
// with host rights it validates and loads the vCPU's per-vCPU copy,
// then drops to guest rights. (The guest-initiated SwitchAS cannot be
// used here: its gate touches the per-vCPU area through the *current*
// CR3, which still belongs to whoever ran last.)
func (b *ckiPV) hostActivate(k *guest.Kernel) error {
	k.Phase("ksm_cr3_verify", b.c.Costs.KSMCR3Verify)
	k.Phase("pt_switch", b.c.Costs.PTSwitchNoPTI)
	cp, err := b.ksm.LoadCR3(b.vcpu, k.Cur.AS.Root)
	if err != nil {
		return err
	}
	if flt := k.CPU.WriteCR3(cp, k.Cur.AS.PCID); flt != nil {
		return flt
	}
	return faultErr(k.CPU.Wrpkrs(cki.PKRSGuest))
}

func (b *ckiPV) UserAccess(k *guest.Kernel, as *guest.AddrSpace, va uint64, acc mmu.Access) *hw.Fault {
	// Single-stage translation through the loaded per-vCPU copy; the
	// PKS checks ride along on every access.
	_, flt := b.c.MMU.Access(k.Clk, k.CPU, k.CPU.CR3(), va, acc, mmu.Dim1D)
	return flt
}

func (b *ckiPV) Hypercall(k *guest.Kernel, nr int, args ...uint64) (uint64, error) {
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	return b.sw.Hypercall(nr, args...)
}

func (b *ckiPV) FileBackedFaultExtra(k *guest.Kernel) clock.Time {
	return b.c.Costs.MmapFileExtraCKI
}

func (b *ckiPV) DeliverVirtIRQ(k *guest.Kernel) {
	mode := k.CPU.Mode()
	if err := b.sw.HardwareInterrupt(hw.VectorVirtIO); err != nil {
		panic(fmt.Sprintf("cki: virtual IRQ delivery failed: %v", err))
	}
	k.CPU.SetMode(mode)
}

func (b *ckiPV) DeliverTimerIRQ(k *guest.Kernel) {
	// Full extended delivery through the switcher's interrupt gate:
	// PKRS save/clear, exit_to_host, host tick, extended iret.
	mode := k.CPU.Mode()
	if err := b.sw.HardwareInterrupt(hw.VectorTimer); err != nil {
		panic(fmt.Sprintf("cki: timer delivery failed: %v", err))
	}
	k.CPU.SetMode(mode)
}

func (b *ckiPV) VirtioKick(k *guest.Kernel) error {
	mode := k.CPU.Mode()
	k.CPU.SetMode(hw.ModeKernel)
	defer k.CPU.SetMode(mode)
	_, err := b.sw.Hypercall(host.HcVirtioKick)
	return err
}
