package cki

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/mmu"
	"repro/internal/pagetable"
)

func TestGateCallRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	ran := false
	start := f.clk.Now()
	err := f.gate.Call(func() error {
		if f.cpu.PKRS() != 0 {
			t.Error("KSM body ran with non-zero PKRS")
		}
		ran = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("body did not run")
	}
	if f.cpu.PKRS() != PKRSGuest {
		t.Error("PKRS not restored to guest value")
	}
	// Two wrpkrs legs were charged (plus one TLB fill for the per-vCPU
	// area on the first call).
	if d := f.clk.Now() - start; d < 2*f.gate.Costs.WrPKRSLeg {
		t.Errorf("gate charged %v, want >= 2 legs", d)
	}
}

func TestGateServicePTEUpdateUnderGuestRights(t *testing.T) {
	// End to end: the deprivileged guest cannot write a PTP directly
	// (mov to the PTP faults on KeyPTP) but succeeds through the gate.
	f := newFixture(t)
	top := f.buildGuestTable(t)
	f.mapUserPage(t, top, 0x40_0000)

	// Locate the leaf PT and map it into the guest so the guest can try
	// a direct write (the KSM forces it read-only).
	w, err := pagetable.Translate(f.m, top, 0x40_0000)
	if err != nil {
		t.Fatal(err)
	}
	leafPT := w.Slot.PTP
	pt2, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pt2, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	// Map leafPT at a guest VA under PML4 slot 1 via KSM calls.
	pdpt, _ := f.ksm.AllocGuestFrame()
	pd, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pdpt, 3); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(pd, 2); err != nil {
		t.Fatal(err)
	}
	link := pagetable.FlagPresent | pagetable.FlagWritable
	if err := f.ksm.WritePTE(4, top, 1, pagetable.Make(pdpt, link, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.WritePTE(3, pdpt, 0, pagetable.Make(pd, link, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.WritePTE(2, pd, 0, pagetable.Make(pt2, link, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.WritePTE(1, pt2, 0, pagetable.Make(leafPT, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagNX, 0)); err != nil {
		t.Fatal(err)
	}
	ptVA := uint64(1) << 39 // slot 1, first page

	// Direct write attempt with guest rights: PKS write-disable fault.
	f.cpu.Wrpkrs(PKRSGuest)
	_, flt := f.gate.MMU.Access(f.clk, f.cpu, f.cpu.CR3(), ptVA, mmu.Write, mmu.Dim1D)
	if flt == nil || flt.Kind != hw.FaultPKS {
		t.Errorf("direct PTP write fault = %v, want FaultPKS", flt)
	}
	// Reading it is fine (KeyPTP is read-only, not no-access).
	if _, flt := f.gate.MMU.Access(f.clk, f.cpu, f.cpu.CR3(), ptVA, mmu.Read, mmu.Dim1D); flt != nil {
		t.Errorf("PTP read fault = %v, want nil", flt)
	}
	// The gate path succeeds.
	err = f.gate.Call(func() error {
		return f.ksm.WritePTE(1, leafPT, w.Slot.Index,
			pagetable.ReadEntry(f.m, leafPT, w.Slot.Index)&^pagetable.FlagWritable)
	})
	if err != nil {
		t.Errorf("gated PTE update failed: %v", err)
	}
}

func TestAbuseJumpToExitGate(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	// Attacker tries to load PKRS=0 via the trailing wrpkrs.
	err := f.gate.AbuseJumpToExit(0)
	if !errors.Is(err, ErrGateAbuse) {
		t.Errorf("err = %v, want ErrGateAbuse", err)
	}
	if f.cpu.PKRS() != PKRSGuest {
		t.Error("abort path left non-guest PKRS live")
	}
	// Loading exactly PKRSGuest passes the check but grants nothing.
	if err := f.gate.AbuseJumpToExit(PKRSGuest); err != nil {
		t.Errorf("benign value rejected: %v", err)
	}
}

func TestSwitcherHypercall(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	guestRoot := f.cpu.CR3()
	start := f.clk.Now()
	if _, err := f.sw.Hypercall(1 /* console */, 42); err != nil {
		t.Fatal(err)
	}
	if f.cpu.CR3() != guestRoot {
		t.Error("guest CR3 not restored after hypercall")
	}
	if f.cpu.PKRS() != PKRSGuest {
		t.Error("PKRS not restored after hypercall")
	}
	if f.hk.Stats.Consoles != 1 {
		t.Error("host did not receive the hypercall")
	}
	// Latency: 390ns switcher + host console body (+ first-touch TLB fill).
	d := (f.clk.Now() - start).Nanos()
	if d < 390 || d > 800 {
		t.Errorf("hypercall took %.0fns, want ~390ns + body", d)
	}
}

func TestHardwareInterruptRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	if err := f.sw.InstallIDT(hw.VectorTimer, hw.VectorVirtIO); err != nil {
		t.Fatal(err)
	}
	if f.cpu.PKRS() != PKRSGuest {
		t.Fatal("setup: not in guest state")
	}
	if err := f.sw.HardwareInterrupt(hw.VectorTimer); err != nil {
		t.Fatalf("interrupt: %v", err)
	}
	if f.cpu.PKRS() != PKRSGuest {
		t.Error("PKRS not restored by extended iret")
	}
	if !f.cpu.IF() {
		t.Error("IF not restored")
	}
	if f.hk.Stats.IRQs != 1 {
		t.Error("host never saw the IRQ")
	}
	if f.cpu.CR3() == f.hk.Root {
		t.Error("still on host CR3 after iret")
	}
}

func TestInterruptForgeryRejected(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	if err := f.sw.InstallIDT(hw.VectorTimer); err != nil {
		t.Fatal(err)
	}
	irqsBefore := f.hk.Stats.IRQs
	err := f.sw.ForgeInterrupt(hw.VectorTimer)
	if !errors.Is(err, ErrInterruptForgery) {
		t.Errorf("err = %v, want ErrInterruptForgery", err)
	}
	if f.hk.Stats.IRQs != irqsBefore {
		t.Error("forged interrupt reached the host handler")
	}
}

func TestInterruptStackSabotageSurvivesViaIST(t *testing.T) {
	// §4.4: guest loads a garbage rsp; the next interrupt must still be
	// deliverable because every CKI gate uses IST.
	f := newFixture(t)
	f.buildGuestTable(t)
	if err := f.sw.InstallIDT(hw.VectorTimer); err != nil {
		t.Fatal(err)
	}
	f.cpu.SetStackValid(false)
	if err := f.sw.HardwareInterrupt(hw.VectorTimer); err != nil {
		t.Errorf("IST delivery failed with sabotaged stack: %v", err)
	}
	// Contrast: a gate without IST would triple fault.
	saved := f.cpu.PKRS()
	f.cpu.Wrpkrs(0)
	noIST := &hw.IDT{}
	noIST.Set(hw.VectorTimer, hw.IDTEntry{Handler: func(*hw.CPU, *hw.Frame) {}, UseIST: false})
	if flt := f.cpu.Lidt(noIST); flt != nil {
		t.Fatal(flt)
	}
	f.cpu.Wrpkrs(saved)
	if _, flt := f.cpu.DeliverHW(hw.VectorTimer, 0); flt == nil || flt.Kind != hw.FaultTriple {
		t.Errorf("non-IST delivery fault = %v, want triple fault", flt)
	}
}

func TestGuestCannotDisableInterruptsForever(t *testing.T) {
	// DoS chain from §4.1: cli blocked, popf blocked, sysret forces IF.
	f := newFixture(t)
	f.buildGuestTable(t)
	if flt := f.cpu.Cli(); flt == nil || flt.Kind != hw.FaultPKSBlocked {
		t.Errorf("cli fault = %v, want FaultPKSBlocked", flt)
	}
	if flt := f.cpu.Popf(false); flt == nil || flt.Kind != hw.FaultPKSBlocked {
		t.Errorf("popf fault = %v, want FaultPKSBlocked", flt)
	}
	if flt := f.cpu.Sysret(false); flt != nil {
		t.Fatal(flt)
	}
	if !f.cpu.IF() {
		t.Error("sysret extension failed to force IF on")
	}
}
