package hw

import "repro/internal/audit"

// This file models interrupt vectoring: the IDT, hardware delivery with
// the IST stack switch, CKI's PKRS save-and-clear extension, and iret.

// Vector numbers used by the simulator.
const (
	VectorPageFault = 14
	VectorTimer     = 32
	VectorVirtIO    = 33
	VectorIPI       = 34
	VectorSpurious  = 39
)

// IDTEntry describes one interrupt gate. Handler is the gate code the
// runtime attached; UseIST forces the hardware to switch to a known-good
// interrupt stack before pushing the frame (§4.4: CKI sets this for all
// vectors so a guest cannot provoke a triple fault with a bad rsp).
type IDTEntry struct {
	Handler func(c *CPU, f *Frame)
	UseIST  bool
}

// IDT is an interrupt descriptor table. In CKI it is allocated inside
// KSM memory; the guest kernel holds no mutable reference to it and
// cannot re-point IDTR at its own copy because lidt is PKS-blocked.
type IDT struct {
	entries [256]IDTEntry
}

// Set installs a gate for vector v.
func (t *IDT) Set(v int, e IDTEntry) { t.entries[v] = e }

// Get returns the gate for vector v.
func (t *IDT) Get(v int) IDTEntry { return t.entries[v] }

// Frame is the interrupt/exception frame the hardware pushes. With the
// PKS extension, hardware interrupt delivery also records PKRS here and
// clears the live register, so gate code starts with full KSM rights and
// contains no wrpkrs instruction that could be jumped to (§4.4).
type Frame struct {
	Vector    int
	ErrCode   uint64
	SavedPKRS PKReg
	SavedIF   bool
	SavedMode Mode
	// HW distinguishes hardware interrupts from software int-n traps;
	// the PKRS extension acts only on the former.
	HW bool
}

// SetStackValid models whether the current kernel stack pointer is
// usable for a hardware frame push. A malicious guest kernel can always
// load a garbage rsp; on stock hardware the next interrupt then
// triple-faults the machine. Attack tests flip this to false.
func (c *CPU) SetStackValid(v bool) { c.stackValid = v }

// DeliverHW vectors a hardware interrupt. It performs exactly what the
// (extended) hardware does — IST stack switch, frame push, PKRS save and
// clear, IF clear, mode switch — and returns the frame. The caller (the
// host kernel or the CKI switcher) then runs the gate handler.
//
// Delivery fails with FaultTriple when no IDT is installed, the vector
// is empty, or the frame push would hit an invalid stack without IST.
func (c *CPU) DeliverHW(vector int, errCode uint64) (*Frame, *Fault) {
	if c.idt == nil {
		return nil, c.raise(&Fault{Kind: FaultTriple, Instr: "intr(no idt)"})
	}
	e := c.idt.Get(vector)
	if e.Handler == nil {
		return nil, c.raise(&Fault{Kind: FaultTriple, Instr: "intr(empty gate)"})
	}
	if !e.UseIST && !c.stackValid {
		// Frame push onto garbage rsp: unrecoverable.
		return nil, c.raise(&Fault{Kind: FaultTriple, Instr: "intr(bad stack)"})
	}
	f := &Frame{
		Vector:    vector,
		ErrCode:   errCode,
		SavedPKRS: c.pkrs,
		SavedIF:   c.intEnabled,
		SavedMode: c.mode,
		HW:        true,
	}
	c.emit(audit.EvInterrupt, uint64(vector), audit.IntClassHW, errCode)
	if c.PKSExt {
		c.pkrs = 0 // hardware extension: clear PKRS on HW interrupt entry
		c.emit(audit.EvWritePKRS, 0, uint64(f.SavedPKRS), audit.PKRSCauseIntClear)
	}
	c.intEnabled = false
	c.mode = ModeKernel
	c.Halted = false
	return f, nil
}

// RunGate invokes the gate handler for an already-delivered frame.
func (c *CPU) RunGate(f *Frame) {
	c.idt.Get(f.Vector).Handler(c, f)
}

// SoftwareInt models an int-n instruction. It is executable from any
// mode and deliberately does NOT touch PKRS: the extension switches
// PKRS only on hardware interrupts, so a guest cannot launder rights
// through int-n (§4.4).
func (c *CPU) SoftwareInt(vector int) (*Frame, *Fault) {
	if c.idt == nil || c.idt.Get(vector).Handler == nil {
		return nil, c.raise(&Fault{Kind: FaultGP, Instr: "int n"})
	}
	f := &Frame{
		Vector:    vector,
		SavedPKRS: c.pkrs,
		SavedIF:   c.intEnabled,
		SavedMode: c.mode,
		HW:        false,
	}
	c.emit(audit.EvInterrupt, uint64(vector), audit.IntClassSoft, 0)
	c.intEnabled = false
	c.mode = ModeKernel
	return f, nil
}

// DeliverException vectors a synchronous exception (e.g. #PF) through
// the IDT. Exceptions are delivered regardless of IF. With the PKS
// extension the PKRS save/clear applies as for hardware interrupts when
// the gate is marked IST (CKI routes guest-fatal exceptions to the KSM);
// ordinary guest-handled exceptions (user #PF) leave PKRS untouched so
// the guest handler runs deprivileged (§4.2).
func (c *CPU) DeliverException(vector int, errCode uint64, toKSM bool) (*Frame, *Fault) {
	if c.idt == nil || c.idt.Get(vector).Handler == nil {
		return nil, c.raise(&Fault{Kind: FaultTriple, Instr: "exception(empty gate)"})
	}
	f := &Frame{
		Vector:    vector,
		ErrCode:   errCode,
		SavedPKRS: c.pkrs,
		SavedIF:   c.intEnabled,
		SavedMode: c.mode,
		HW:        toKSM,
	}
	c.emit(audit.EvInterrupt, uint64(vector), audit.IntClassException, errCode)
	if toKSM && c.PKSExt {
		c.pkrs = 0
		c.emit(audit.EvWritePKRS, 0, uint64(f.SavedPKRS), audit.PKRSCauseIntClear)
	}
	c.mode = ModeKernel
	return f, nil
}

// Iret returns from an interrupt. The stock instruction is PKS-blocked
// (it can rewrite segment state and IF), so guest kernels invoke it via
// a KSM call; CKI's extension additionally restores PKRS from the frame
// so the return to a deprivileged guest needs no trailing wrpkrs.
func (c *CPU) Iret(f *Frame) *Fault {
	if flt := c.checkPriv("iret", true); flt != nil {
		return flt
	}
	c.mode = f.SavedMode
	c.intEnabled = f.SavedIF
	c.Ops.Iret++
	c.emit(audit.EvIret, uint64(f.Vector), b2u(f.SavedIF), 0)
	if c.PKSExt {
		// Extension (§4.2): iret may modify PKRS, restoring the value
		// saved at delivery so the return to a deprivileged guest needs
		// no trailing wrpkrs.
		old := c.pkrs
		c.pkrs = f.SavedPKRS
		c.emit(audit.EvWritePKRS, uint64(f.SavedPKRS), uint64(old), audit.PKRSCauseIretRest)
	}
	return nil
}
