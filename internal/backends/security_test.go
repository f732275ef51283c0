package backends

import (
	"errors"
	"testing"

	"repro/internal/cki"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// The §6 security analysis, executed: a compromised CKI guest kernel
// attempts every escape and DoS channel against the real mechanisms,
// inside a fully booted container. Each attack must fail and the
// container must keep working afterwards.

func ckiContainer(t *testing.T) (*Container, *cki.KSM, *cki.Gate, *cki.Switcher) {
	t.Helper()
	c := MustNew(CKI, Options{})
	ksm, gate, sw, ok := c.CKIInternals()
	if !ok {
		t.Fatal("not CKI")
	}
	return c, ksm, gate, sw
}

func TestSecurityPrivilegedInstructionsBlocked(t *testing.T) {
	c, _, _, _ := ckiContainer(t)
	cpu := c.CPU
	cpu.SetMode(hw.ModeKernel) // attacker is the guest kernel
	defer cpu.SetMode(hw.ModeUser)
	probes := []struct {
		name string
		run  func() *hw.Fault
	}{
		{"cli", cpu.Cli},
		{"lidt", func() *hw.Fault { return cpu.Lidt(&hw.IDT{}) }},
		{"wrmsr", func() *hw.Fault { return cpu.Wrmsr(0x830, 1) }},
		{"mov cr3", func() *hw.Fault { return cpu.WriteCR3(3, 0) }},
		{"invpcid", func() *hw.Fault { return cpu.Invpcid(2) }},
		{"iret", func() *hw.Fault { return cpu.Iret(&hw.Frame{SavedMode: hw.ModeKernel}) }},
		{"out", func() *hw.Fault { return cpu.Out(0x60, 0) }},
	}
	for _, p := range probes {
		if f := p.run(); f == nil || f.Kind != hw.FaultPKSBlocked {
			t.Errorf("%s: fault = %v, want FaultPKSBlocked", p.name, f)
		}
	}
}

func TestSecurityGuestCannotTouchKSMMemory(t *testing.T) {
	c, ksm, gate, _ := ckiContainer(t)
	// Guest kernel rights, live page table.
	c.CPU.SetMode(hw.ModeKernel)
	defer c.CPU.SetMode(hw.ModeUser)
	if c.CPU.PKRS() != cki.PKRSGuest {
		t.Fatal("container not in guest PKRS state")
	}
	// The per-vCPU area is mapped at a constant address — but KeyKSM
	// blocks the guest.
	_, flt := gate.MMU.Access(c.Clk, c.CPU, c.CPU.CR3(), cki.PerVCPUBase, mmu.Read, mmu.Dim1D)
	if flt == nil || flt.Kind != hw.FaultPKS {
		t.Errorf("per-vCPU read fault = %v, want FaultPKS", flt)
	}
	_, flt = gate.MMU.Access(c.Clk, c.CPU, c.CPU.CR3(), cki.PerVCPUBase, mmu.Write, mmu.Dim1D)
	if flt == nil || flt.Kind != hw.FaultPKS {
		t.Errorf("per-vCPU write fault = %v, want FaultPKS", flt)
	}
	_ = ksm
}

// TestSecurityCrossContainerMapping drives the KSM's page-table checks
// from the booted guest kernel: no write may hand it another
// container's memory, an unvetted page table, kernel code of its own
// making, or the KSM's own mapping.
func TestSecurityCrossContainerMapping(t *testing.T) {
	c, ksm, _, _ := ckiContainer(t)
	// A frame belonging to "another container" on the same host.
	foreign, err := c.HostMem.Alloc(42)
	if err != nil {
		t.Fatal(err)
	}
	frame := func() mem.PFN {
		pfn, err := ksm.AllocGuestFrame()
		if err != nil {
			t.Fatal(err)
		}
		return pfn
	}
	declaredPT := func() mem.PFN {
		pt := frame()
		if err := ksm.DeclarePTP(pt, pagetable.LevelPT); err != nil {
			t.Fatal(err)
		}
		return pt
	}
	attacks := []struct {
		name string
		run  func() error
		want error
	}{
		{"map another container's frame", func() error {
			return ksm.WritePTE(pagetable.LevelPT, declaredPT(), 0,
				pagetable.Make(foreign, pagetable.FlagPresent|pagetable.FlagUser|pagetable.FlagWritable|pagetable.FlagNX, 0))
		}, cki.ErrNotOwned},
		{"declare a pre-seeded page table", func() error {
			dirty := frame()
			pagetable.WriteEntry(c.HostMem, dirty, 0, pagetable.Make(foreign, pagetable.FlagPresent, 0))
			return ksm.DeclarePTP(dirty, pagetable.LevelPT)
		}, cki.ErrNotZeroed},
		{"map a wrpkrs gadget kernel-executable", func() error {
			return ksm.WritePTE(pagetable.LevelPT, declaredPT(), 1,
				pagetable.Make(frame(), pagetable.FlagPresent, 0)) // U=0, NX=0
		}, cki.ErrKernelExec},
		{"unmap the KSM's PML4 slot", func() error {
			return ksm.WritePTE(pagetable.LevelPML4, c.K.Cur.AS.Root, cki.KSMPML4Slot, 0)
		}, cki.ErrReservedSlot},
	}
	for _, a := range attacks {
		if err := a.run(); !errors.Is(err, a.want) {
			t.Errorf("%s: err = %v, want %v", a.name, err, a.want)
		}
	}
}

func TestSecurityContainerSurvivesAttackStorm(t *testing.T) {
	c, ksm, gate, sw := ckiContainer(t)
	cpu := c.CPU
	cpu.SetMode(hw.ModeKernel)
	for i := 0; i < 50; i++ {
		_ = cpu.Cli()
		if err := gate.AbuseJumpToExit(0); !errors.Is(err, cki.ErrGateAbuse) {
			t.Fatalf("ROP jump to the gate's exit: err = %v, want ErrGateAbuse", err)
		}
		if err := sw.ForgeInterrupt(hw.VectorTimer); !errors.Is(err, cki.ErrInterruptForgery) {
			t.Fatalf("forged interrupt: err = %v, want ErrInterruptForgery", err)
		}
		_, _ = ksm.LoadCR3(0, mem.PFN(12345))
		cpu.SetStackValid(false) // garbage rsp: IST still delivers the tick
		if err := sw.HardwareInterrupt(hw.VectorTimer); err != nil {
			t.Fatalf("timer tick with a sabotaged stack: %v", err)
		}
		cpu.SetStackValid(true)
	}
	cpu.SetMode(hw.ModeUser)
	// The container still works: syscalls, memory, files.
	if pid := c.K.Getpid(); pid != 1 {
		t.Fatalf("getpid = %d after attack storm", pid)
	}
	addr, err := c.K.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if ksm.Stats.Rejections == 0 {
		t.Error("attack storm produced no KSM rejections")
	}
}

func TestSecurityTLBIsolationBetweenContainers(t *testing.T) {
	// Two CKI containers: flushing inside one must not evict the
	// other's TLB entries (§4.1 PCID isolation). Model both containers
	// on one shared MMU (one physical core).
	a := MustNew(CKI, Options{})
	addrA, err := a.K.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.K.Touch(addrA, mmu.Write); err != nil {
		t.Fatal(err)
	}
	// Seed a foreign-PCID entry, as another container on this core
	// would have left.
	foreignPCID := uint16(9)
	a.MMU.TLB.Insert(foreignPCID, addrA, tlb.Entry{PFN: 7})
	// The guest's invlpg (legitimately executable) flushes only its own
	// PCID.
	a.CPU.SetMode(hw.ModeKernel)
	if f := a.CPU.Invlpg(addrA); f != nil {
		t.Fatal(f)
	}
	a.CPU.SetMode(hw.ModeUser)
	if _, ok := a.MMU.TLB.Lookup(foreignPCID, addrA); !ok {
		t.Error("guest invlpg evicted another container's TLB entry")
	}
	if _, ok := a.MMU.TLB.Lookup(a.CPU.PCID(), addrA); ok {
		t.Error("guest's own entry survived invlpg")
	}
}

func TestSecurityMultipleContainersShareHost(t *testing.T) {
	// CKI's scalability claim (Challenge-1): many containers, each with
	// only two PKS keys, collocated on one host without interference.
	hostMem := mem.New(1 << 16)
	// Build several KSMs against one physical memory.
	var ksms []*cki.KSM
	for id := 1; id <= 8; id++ {
		k, err := cki.NewKSM(hostMem, MustNew(RunC, Options{}).Costs, id, 1)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := hostMem.AllocSegment(256, id)
		if err != nil {
			t.Fatal(err)
		}
		k.DelegateSegments(seg)
		ksms = append(ksms, k)
	}
	// Each declares its own top PTP; none can use a frame of another.
	tops := make([]mem.PFN, len(ksms))
	for i, k := range ksms {
		top, err := k.AllocGuestFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.DeclarePTP(top, pagetable.LevelPML4); err != nil {
			t.Fatal(err)
		}
		tops[i] = top
	}
	for i, k := range ksms {
		other := tops[(i+1)%len(tops)]
		if _, err := k.LoadCR3(0, other); !errors.Is(err, cki.ErrBadCR3) {
			t.Errorf("ksm %d loaded another container's CR3: %v", i, err)
		}
		pt, err := k.AllocGuestFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.DeclarePTP(pt, pagetable.LevelPT); err != nil {
			t.Fatal(err)
		}
		err = k.WritePTE(pagetable.LevelPT, pt, 0,
			pagetable.Make(other, pagetable.FlagPresent|pagetable.FlagNX|pagetable.FlagWritable, 0))
		if !errors.Is(err, cki.ErrNotOwned) {
			t.Errorf("ksm %d mapped another container's top PTP: %v", i, err)
		}
	}
}

func TestSecurityHVMAndPVMIsolationStillHold(t *testing.T) {
	// The baselines enforce their own isolation in the simulator too:
	// user code cannot reach supervisor mappings anywhere.
	for _, cfg := range []struct {
		kind Kind
	}{{RunC}, {HVM}, {PVM}, {CKI}} {
		c := MustNew(cfg.kind, Options{})
		// Kernel image lives in the high half; user touch must fault
		// and be rejected by the guest kernel as EFAULT (no VMA).
		err := c.K.Touch(guest.KernBase, mmu.Read)
		if !errors.Is(err, guest.EFAULT) {
			t.Errorf("%s: user read of kernel image err = %v, want EFAULT", c.Name, err)
		}
	}
}
