package cki

import (
	"errors"
	"testing"

	"repro/internal/clock"
	"repro/internal/host"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
)

// fixture wires one container's CKI stack: host memory, KSM, a vCPU, a
// gate, and a delegated segment the "guest" allocates from.
type fixture struct {
	m    *mem.PhysMem
	ksm  *KSM
	cpu  *hw.CPU
	clk  *clock.Clock
	gate *Gate
	sw   *Switcher
	seg  mem.Segment
	hk   *host.Kernel
}

const testContainer = 3

func newFixture(t testing.TB) *fixture {
	t.Helper()
	m := mem.New(4096)
	costs := clock.DefaultCosts()
	hk, err := host.New(m, costs)
	if err != nil {
		t.Fatal(err)
	}
	ksm, err := NewKSM(m, costs, testContainer, 2)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := hk.DelegateSegment(1024, testContainer)
	if err != nil {
		t.Fatal(err)
	}
	ksm.DelegateSegments(seg)
	cpu := hw.NewCPU(0, true)
	clk := new(clock.Clock)
	gate := &Gate{KSM: ksm, CPU: cpu, Clk: clk, Costs: costs, MMU: mmu.New(m, costs), VCPU: 0}
	sw := &Switcher{Gate: gate, Host: hk}
	return &fixture{m: m, ksm: ksm, cpu: cpu, clk: clk, gate: gate, sw: sw, seg: seg, hk: hk}
}

// buildGuestTable declares a top-level PTP and loads its per-vCPU copy,
// leaving the CPU in deprivileged guest state.
func (f *fixture) buildGuestTable(t testing.TB) mem.PFN {
	t.Helper()
	top, err := f.ksm.AllocGuestFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(top, pagetable.LevelPML4); err != nil {
		t.Fatal(err)
	}
	copyPFN, err := f.ksm.LoadCR3(0, top)
	if err != nil {
		t.Fatal(err)
	}
	if flt := f.cpu.Wrpkrs(0); flt != nil { // KSM rights for the CR3 load
		t.Fatal(flt)
	}
	if flt := f.cpu.WriteCR3(copyPFN, f.ksm.PCID); flt != nil {
		t.Fatal(flt)
	}
	if flt := f.cpu.Wrpkrs(PKRSGuest); flt != nil {
		t.Fatal(flt)
	}
	return top
}

// mapUserPage maps one user page at va through the KSM, building
// intermediate PTPs, and returns the data frame.
func (f *fixture) mapUserPage(t testing.TB, top mem.PFN, va uint64) mem.PFN {
	t.Helper()
	data, err := f.ksm.AllocGuestFrame()
	if err != nil {
		t.Fatal(err)
	}
	mp := &pagetable.Mapper{
		Mem:  f.m,
		Root: top,
		Alloc: func() (mem.PFN, error) {
			p, err := f.ksm.AllocGuestFrame()
			if err != nil {
				return 0, err
			}
			return p, nil
		},
		Declare: func(ptp mem.PFN, level int) error {
			return f.ksm.DeclarePTP(ptp, level)
		},
		Sink: func(level int, _ uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
			return f.ksm.WritePTE(level, ptp, idx, v)
		},
	}
	if err := mp.Map(va, data, pagetable.FlagWritable|pagetable.FlagUser|pagetable.FlagNX, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDeclareAndMapThroughKSM(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	data := f.mapUserPage(t, top, 0x40_0000)
	// The mapping must be visible through the *per-vCPU copy* the CPU
	// actually runs on.
	w, err := pagetable.Translate(f.m, f.cpu.CR3(), 0x40_0000)
	if err != nil {
		t.Fatalf("translate through copy: %v", err)
	}
	if w.PFN != data {
		t.Errorf("copy translates to %v, want %v", w.PFN, data)
	}
	// And through the guest's own root.
	w2, err := pagetable.Translate(f.m, top, 0x40_0000)
	if err != nil || w2.PFN != data {
		t.Errorf("guest root translation: %v %v", w2.PFN, err)
	}
}

func TestDeclareRejectsForeignAndStale(t *testing.T) {
	f := newFixture(t)
	// Foreign frame (owned by nobody).
	foreign, err := f.m.Alloc(99)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(foreign, 1); !errors.Is(err, ErrNotOwned) {
		t.Errorf("foreign declare err = %v, want ErrNotOwned", err)
	}
	// Stale content: attacker pre-seeds an entry, then declares.
	dirty, _ := f.ksm.AllocGuestFrame()
	pagetable.WriteEntry(f.m, dirty, 5, pagetable.Make(42, pagetable.FlagPresent, 0))
	if err := f.ksm.DeclarePTP(dirty, 1); !errors.Is(err, ErrNotZeroed) {
		t.Errorf("stale declare err = %v, want ErrNotZeroed", err)
	}
	// Double declare.
	ok, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(ok, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(ok, 2); !errors.Is(err, ErrAlreadyDeclared) {
		t.Errorf("double declare err = %v, want ErrAlreadyDeclared", err)
	}
}

func TestWritePTERejectsUndeclaredPTP(t *testing.T) {
	f := newFixture(t)
	raw, _ := f.ksm.AllocGuestFrame()
	err := f.ksm.WritePTE(1, raw, 0, pagetable.Make(raw, pagetable.FlagPresent, 0))
	if !errors.Is(err, ErrNotDeclared) {
		t.Errorf("err = %v, want ErrNotDeclared", err)
	}
}

func TestWritePTERejectsUndeclaredChild(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	rogue, _ := f.ksm.AllocGuestFrame() // never declared
	err := f.ksm.WritePTE(pagetable.LevelPML4, top, 0,
		pagetable.Make(rogue, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser, 0))
	if !errors.Is(err, ErrNotDeclared) {
		t.Errorf("err = %v, want ErrNotDeclared", err)
	}
}

func TestWritePTERejectsDoubleMappedPTP(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	child, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(child, pagetable.LevelPDPT); err != nil {
		t.Fatal(err)
	}
	e := pagetable.Make(child, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser, 0)
	if err := f.ksm.WritePTE(pagetable.LevelPML4, top, 0, e); err != nil {
		t.Fatal(err)
	}
	// Mapping the same PDPT under a second slot would alias page tables.
	if err := f.ksm.WritePTE(pagetable.LevelPML4, top, 1, e); !errors.Is(err, ErrDoubleMapped) {
		t.Errorf("err = %v, want ErrDoubleMapped", err)
	}
	// Clearing the first link frees it for re-linking.
	if err := f.ksm.WritePTE(pagetable.LevelPML4, top, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.WritePTE(pagetable.LevelPML4, top, 1, e); err != nil {
		t.Errorf("relink after clear failed: %v", err)
	}
}

func TestWritePTERejectsLevelConfusion(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	child, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(child, pagetable.LevelPD); err != nil { // level 2
		t.Fatal(err)
	}
	// Linking a level-2 PTP directly under the PML4 (level 4 wants a
	// level-3 child) must fail: it would shift translation semantics.
	err := f.ksm.WritePTE(pagetable.LevelPML4, top, 0,
		pagetable.Make(child, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser, 0))
	if !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("err = %v, want ErrLevelMismatch", err)
	}
}

func TestWritePTERejectsReservedSlots(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	child, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(child, pagetable.LevelPDPT); err != nil {
		t.Fatal(err)
	}
	e := pagetable.Make(child, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser, 0)
	for _, slot := range []int{KSMPML4Slot, PerVCPUPML4Slot} {
		if err := f.ksm.WritePTE(pagetable.LevelPML4, top, slot, e); !errors.Is(err, ErrReservedSlot) {
			t.Errorf("slot %d err = %v, want ErrReservedSlot", slot, err)
		}
	}
}

func TestWritePTERejectsKSMMemoryAndForeignFrames(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	pt, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pt, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	// Try to map the KSM's descriptor frame into guest space — the
	// container-escape the whole design exists to stop.
	err := f.ksm.WritePTE(pagetable.LevelPT, pt, 0,
		pagetable.Make(f.ksm.descFrame, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser|pagetable.FlagNX, 0))
	if !errors.Is(err, ErrMapsKSM) {
		t.Errorf("mapping KSM frame err = %v, want ErrMapsKSM", err)
	}
	// A frame owned by another container.
	other, err := f.m.Alloc(testContainer + 1)
	if err != nil {
		t.Fatal(err)
	}
	err = f.ksm.WritePTE(pagetable.LevelPT, pt, 0,
		pagetable.Make(other, pagetable.FlagPresent|pagetable.FlagUser|pagetable.FlagNX, 0))
	if !errors.Is(err, ErrNotOwned) {
		t.Errorf("mapping foreign frame err = %v, want ErrNotOwned", err)
	}
}

func TestKernelExecOnlySealedText(t *testing.T) {
	f := newFixture(t)
	f.buildGuestTable(t)
	pt, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pt, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	payload, _ := f.ksm.AllocGuestFrame()
	// No text sealed yet: all kernel-exec mappings refused.
	err := f.ksm.WritePTE(pagetable.LevelPT, pt, 0,
		pagetable.Make(payload, pagetable.FlagPresent, 0)) // U=0, NX=0
	if !errors.Is(err, ErrTextNotRegistered) {
		t.Errorf("err = %v, want ErrTextNotRegistered", err)
	}
	// Seal a text segment; mapping it executable is fine, anything else
	// is not — this is what stops a guest minting wrpkrs gadgets (§4.1).
	text, errSeg := f.m.AllocSegment(4, testContainer)
	if errSeg != nil {
		t.Fatal(errSeg)
	}
	f.ksm.SealKernelText(text)
	if err := f.ksm.WritePTE(pagetable.LevelPT, pt, 1,
		pagetable.Make(text.Base, pagetable.FlagPresent, 0)); err != nil {
		t.Errorf("sealed text exec mapping failed: %v", err)
	}
	err = f.ksm.WritePTE(pagetable.LevelPT, pt, 2,
		pagetable.Make(payload, pagetable.FlagPresent, 0))
	if !errors.Is(err, ErrKernelExec) {
		t.Errorf("unsealed exec mapping err = %v, want ErrKernelExec", err)
	}
}

func TestMappingDeclaredPTPBecomesReadOnly(t *testing.T) {
	// Invariant 2: if the guest maps one of its own PTPs, the KSM forces
	// KeyPTP so the mapping is read-only under PKRSGuest.
	f := newFixture(t)
	top := f.buildGuestTable(t)
	f.mapUserPage(t, top, 0x40_0000)
	// Find a declared PTP (the PT created for the user mapping) and map
	// it at another address as a supervisor RW page.
	var ptFrame mem.PFN
	for p := f.seg.Base; p < f.seg.End(); p++ {
		if f.ksm.IsDeclared(p) && p != top {
			ptFrame = p
		}
	}
	if ptFrame == 0 {
		t.Fatal("no declared PTP found")
	}
	pt2, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pt2, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.WritePTE(pagetable.LevelPT, pt2, 7,
		pagetable.Make(ptFrame, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagNX, 0)); err != nil {
		t.Fatalf("mapping own PTP: %v", err)
	}
	e := pagetable.ReadEntry(f.m, pt2, 7)
	if e.PKey() != KeyPTP {
		t.Errorf("PTP mapping pkey = %d, want KeyPTP; a guest could rewrite its tables", e.PKey())
	}
}

func TestDeclareRetrofitsKeyOnExistingMapping(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	// Map a plain data page first...
	data := f.mapUserPage(t, top, 0x40_0000)
	// ...then declare that very frame as a PTP. The existing leaf
	// mapping must be retrofitted with KeyPTP.
	// (First wipe it so the zero check passes.)
	w, err := pagetable.Translate(f.m, top, 0x40_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(data, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	e := pagetable.ReadEntry(f.m, w.Slot.PTP, w.Slot.Index)
	if e.PKey() != KeyPTP {
		t.Errorf("retrofitted pkey = %d, want KeyPTP", e.PKey())
	}
}

// TestDeclareRetrofitsKeyOnCoveringHugeLeaf pins invariant 2 for huge
// leaves: when a frame covered by an existing writable 2 MiB leaf (not
// its base) is declared a PTP, that leaf must get KeyPTP, or the guest
// could rewrite the PTP through it.
func TestDeclareRetrofitsKeyOnCoveringHugeLeaf(t *testing.T) {
	f := newFixture(t)
	pd, err := f.ksm.AllocGuestFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(pd, pagetable.LevelPD); err != nil {
		t.Fatal(err)
	}
	// The 2 MiB window right after the PD frame is delegated guest data.
	base := pd + 1
	leaf := pagetable.Make(base, pagetable.FlagPresent|pagetable.FlagUser|
		pagetable.FlagWritable|pagetable.FlagNX|pagetable.FlagHuge, 0)
	if err := f.ksm.WritePTE(pagetable.LevelPD, pd, 0, leaf); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(base+7, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	if e := pagetable.ReadEntry(f.m, pd, 0); e.PKey() != KeyPTP {
		t.Fatalf("covering huge leaf pkey = %d, want KeyPTP; the guest can rewrite PTP %#x",
			e.PKey(), uint64(base+7))
	}
	auditKSM(t, f)

	// Once the leaf is replaced, a later declare inside its old window
	// must leave the slot's new occupant (a table link) alone.
	link := pagetable.Make(base+7, pagetable.FlagPresent|pagetable.FlagWritable|pagetable.FlagUser, 0)
	if err := f.ksm.WritePTE(pagetable.LevelPD, pd, 0, link); err != nil {
		t.Fatal(err)
	}
	if err := f.ksm.DeclarePTP(base+9, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	if e := pagetable.ReadEntry(f.m, pd, 0); e != link {
		t.Errorf("declare rewrote the table link %#x to %#x", uint64(link), uint64(e))
	}
}

func TestLoadCR3Validation(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	// A non-declared frame is rejected.
	rogue, _ := f.ksm.AllocGuestFrame()
	if _, err := f.ksm.LoadCR3(0, rogue); !errors.Is(err, ErrBadCR3) {
		t.Errorf("rogue CR3 err = %v, want ErrBadCR3", err)
	}
	// A declared *non-top* PTP is rejected too.
	pt, _ := f.ksm.AllocGuestFrame()
	if err := f.ksm.DeclarePTP(pt, pagetable.LevelPT); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ksm.LoadCR3(0, pt); !errors.Is(err, ErrBadCR3) {
		t.Errorf("non-top CR3 err = %v, want ErrBadCR3", err)
	}
	// Different vCPUs get different copies.
	c0, err := f.ksm.LoadCR3(0, top)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := f.ksm.LoadCR3(1, top)
	if err != nil {
		t.Fatal(err)
	}
	if c0 == c1 || c0 == top || c1 == top {
		t.Errorf("copies not distinct: %v %v (top %v)", c0, c1, top)
	}
	if _, err := f.ksm.LoadCR3(5, top); !errors.Is(err, ErrWrongVCPU) {
		t.Errorf("bad vCPU err = %v, want ErrWrongVCPU", err)
	}
}

func TestPerVCPUAreaConstantAddress(t *testing.T) {
	// Figure 8c: the same virtual address resolves to different physical
	// per-vCPU areas depending on which copy is loaded.
	f := newFixture(t)
	top := f.buildGuestTable(t)
	c0, _ := f.ksm.LoadCR3(0, top)
	c1, _ := f.ksm.LoadCR3(1, top)
	w0, err := pagetable.Translate(f.m, c0, PerVCPUBase)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := pagetable.Translate(f.m, c1, PerVCPUBase)
	if err != nil {
		t.Fatal(err)
	}
	if w0.PFN == w1.PFN {
		t.Error("per-vCPU areas alias")
	}
	s0, _ := f.ksm.PerVCPUStackFrame(0)
	if w0.PFN != s0 {
		t.Errorf("vCPU0 area at %v, want %v", w0.PFN, s0)
	}
	if w0.PKey != KeyKSM {
		t.Errorf("per-vCPU area pkey = %d, want KeyKSM", w0.PKey)
	}
	// The guest's own root must NOT reach the per-vCPU area.
	if _, err := pagetable.Translate(f.m, top, PerVCPUBase); err == nil {
		t.Error("guest root maps the per-vCPU area")
	}
}

func TestADPropagationFromCopies(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	f.mapUserPage(t, top, 0x40_0000)
	// Simulate the hardware walker setting A/D on the *copy* path.
	c0, _ := f.ksm.LoadCR3(0, top)
	e := pagetable.ReadEntry(f.m, c0, pagetable.IndexAt(0x40_0000, 4))
	pagetable.WriteEntry(f.m, c0, pagetable.IndexAt(0x40_0000, 4), e|pagetable.FlagAccessed|pagetable.FlagDirty)
	merged, err := f.ksm.ReadTopEntry(top, pagetable.IndexAt(0x40_0000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if merged&pagetable.FlagAccessed == 0 || merged&pagetable.FlagDirty == 0 {
		t.Error("A/D not propagated from per-vCPU copy")
	}
	// And the original now carries them.
	orig := pagetable.ReadEntry(f.m, top, pagetable.IndexAt(0x40_0000, 4))
	if orig&pagetable.FlagAccessed == 0 {
		t.Error("original top entry not updated")
	}
}

func TestRetireTree(t *testing.T) {
	f := newFixture(t)
	top := f.buildGuestTable(t)
	f.mapUserPage(t, top, 0x40_0000)
	declared := 0
	for p := f.seg.Base; p < f.seg.End(); p++ {
		if f.ksm.IsDeclared(p) {
			declared++
		}
	}
	if declared < 4 {
		t.Fatalf("expected ≥4 declared PTPs, got %d", declared)
	}
	if err := f.ksm.Retire(top); err != nil {
		t.Fatal(err)
	}
	for p := f.seg.Base; p < f.seg.End(); p++ {
		if f.ksm.IsDeclared(p) {
			t.Errorf("PTP %v still declared after tree retire", p)
		}
	}
	// Retiring again is a no-op.
	if err := f.ksm.Retire(top); err != nil {
		t.Errorf("idempotent retire failed: %v", err)
	}
	// A referenced child cannot be retired on its own.
	top2 := f.buildGuestTable(t)
	f.mapUserPage(t, top2, 0x40_0000)
	var child mem.PFN
	for p := f.seg.Base; p < f.seg.End(); p++ {
		if f.ksm.IsDeclared(p) && p != top2 && f.ksm.Refs(p) == 1 {
			child = p
			break
		}
	}
	if child == 0 {
		t.Fatal("no referenced child found")
	}
	if err := f.ksm.Retire(child); !errors.Is(err, ErrStillReferenced) {
		t.Errorf("retire referenced child err = %v, want ErrStillReferenced", err)
	}
}

func TestGuestAllocatorExhaustion(t *testing.T) {
	f := newFixture(t)
	n := 0
	for {
		if _, err := f.ksm.AllocGuestFrame(); err != nil {
			if !errors.Is(err, ErrSegmentExhausted) {
				t.Fatalf("err = %v", err)
			}
			break
		}
		n++
	}
	if n != f.seg.Frames {
		t.Errorf("allocated %d frames from a %d-frame segment", n, f.seg.Frames)
	}
	// Freed frames become allocatable again.
	f.ksm.FreeGuestFrame(f.seg.Base)
	if _, err := f.ksm.AllocGuestFrame(); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
}
