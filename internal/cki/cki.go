// Package cki implements the paper's contribution: Container Kernel
// Isolation. It provides the kernel security monitor (KSM) that shares
// an address space with each deprivileged container guest kernel, the
// PKS switch gates between them, the switcher to the host kernel, and
// the interrupt-abuse defences.
//
// The trust structure (§3.3): the host kernel and the KSMs are trusted;
// guest kernels are not. A guest kernel runs in CPU kernel mode but with
// PKRS = PKRSGuest, which (a) hides KSM memory (key 1 access-disabled),
// (b) makes page-table pages read-only (key 2 write-disabled), and
// (c) arms the hardware extension that faults destructive privileged
// instructions. Every privileged effect a guest needs is reachable only
// through the KSM call gate or the host switcher.
package cki

import (
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// Protection-key assignment inside a secure container's address space.
// Only two keys are needed per container (plus the default), which is
// how CKI escapes the 16-domain limit: domains are per-address-space,
// and each container has its own address space (§3.3, Challenge-1).
const (
	// KeyDefault tags ordinary guest pages.
	KeyDefault = 0
	// KeyKSM tags KSM-private memory: inaccessible to the guest.
	KeyKSM = 1
	// KeyPTP tags page-table pages: read-only to the guest.
	KeyPTP = 2
)

// PKRSGuest is the PKRS value loaded while the guest kernel (or guest
// user code) runs: KSM memory no-access, PTPs write-disabled.
var PKRSGuest = hw.PKReg(0).With(KeyKSM, true, true).With(KeyPTP, false, true)

// Fixed virtual addresses inside every container address space.
const (
	// PerVCPUBase is the constant gVA of the per-vCPU area (PML4 slot
	// 509). Per-vCPU page-table copies map a different physical area
	// here for each vCPU, so gates find their secure stack without
	// trusting kernel_gs (§4.2, Fig. 8c).
	PerVCPUBase = 0xffff_fe80_0000_0000
	// KSMBase is the constant gVA of the shared KSM image (slot 510).
	KSMBase = 0xffff_ff00_0000_0000
)

// Frames per per-vCPU area: secure stack (2) + saved-context page (1).
const perVCPUFrames = 3

// Frames in the shared KSM image: IDT, gate code, descriptor heap.
const ksmImageFrames = 3

// ksmOwnerBase tags frames owned by a KSM in mem ownership space,
// keeping them disjoint from any container ID.
const ksmOwnerBase = 1 << 20

// KSMOwner returns the frame-ownership tag of container c's KSM.
func KSMOwner(c int) int { return ksmOwnerBase + c }

// Errors returned by KSM verification. Each corresponds to an attack
// the paper's design must stop.
var (
	ErrNotDeclared       = errors.New("cki: page is not a declared PTP")
	ErrAlreadyDeclared   = errors.New("cki: page already declared")
	ErrNotZeroed         = errors.New("cki: declared PTP contains stale entries")
	ErrNotOwned          = errors.New("cki: target frame not owned by this container")
	ErrLevelMismatch     = errors.New("cki: PTP level mismatch")
	ErrDoubleMapped      = errors.New("cki: PTP would be mapped more than once")
	ErrReservedSlot      = errors.New("cki: reserved PML4 slot")
	ErrKernelExec        = errors.New("cki: new kernel-executable mapping forbidden")
	ErrBadCR3            = errors.New("cki: CR3 target is not a declared top-level PTP")
	ErrStillReferenced   = errors.New("cki: PTP still referenced")
	ErrGateAbuse         = errors.New("cki: switch gate integrity check failed")
	ErrInterruptForgery  = errors.New("cki: forged interrupt rejected")
	ErrHugeNotSupported  = errors.New("cki: huge mapping at unsupported level")
	ErrMapsKSM           = errors.New("cki: mapping targets KSM memory")
	ErrNotTopLevel       = errors.New("cki: not a top-level PTP")
	ErrWrongVCPU         = errors.New("cki: vCPU index out of range")
	ErrSegmentExhausted  = errors.New("cki: delegated segments exhausted")
	ErrTextNotRegistered = errors.New("cki: kernel text not sealed yet")
)

// Stats counts KSM activity for the harness and tests.
type Stats struct {
	Declares    uint64
	PTEUpdates  uint64
	Rejections  uint64
	CR3Loads    uint64
	IRets       uint64
	GateCalls   uint64
	Hypercalls  uint64
	IRQs        uint64
	ADPropagate uint64
	// CopyRefreshes counts per-vCPU top-PTP copy re-syncs performed by
	// the KSM-mediated TLB-shootdown handler.
	CopyRefreshes uint64
}

// ptpDesc is the KSM's per-PTP descriptor (§4.3).
type ptpDesc struct {
	level int
	refs  int // links from parent tables; invariant: <= 1
}

// KSM is the kernel security monitor of one secure container.
type KSM struct {
	Mem   *mem.PhysMem
	Costs *clock.Costs

	ContainerID int
	NumVCPU     int
	PCID        uint16

	ptps map[mem.PFN]*ptpDesc
	// leafMaps reverse-maps a frame to the leaf slots mapping it, so
	// declaring a PTP can retrofit KeyPTP onto existing mappings.
	leafMaps map[mem.PFN][]pagetable.Slot
	// hugeLeaves maps each slot holding a 2 MiB leaf to the leaf's base
	// frame: leafMaps is keyed by base, and a declare must also find the
	// huge leaves covering its frame from below.
	hugeLeaves map[pagetable.Slot]mem.PFN
	// copies maps each declared top-level PTP to its per-vCPU copies.
	copies map[mem.PFN][]mem.PFN

	segments   []mem.Segment
	segCursor  int // frame offset into segments for the guest allocator
	freeFrames []mem.PFN

	sealedText []mem.Segment

	// Shared KSM image subtree (PML4 slot 510) and per-vCPU subtrees
	// (slot 509), pre-built page-table chains in KSM-owned frames.
	ksmPDPT   mem.PFN
	vcpuPDPT  []mem.PFN
	idtFrame  mem.PFN
	gateFrame mem.PFN
	descFrame mem.PFN
	perVCPU   []vcpuArea

	// IDT is the container's interrupt descriptor table, allocated in
	// KSM memory and installed with lidt by the KSM at boot. The guest
	// cannot re-point IDTR (lidt is PKS-blocked) nor unmap it (reserved
	// PML4 slots are rejected in WritePTE).
	IDT *hw.IDT

	Stats Stats
}

type vcpuArea struct {
	stack [2]mem.PFN
	ctx   mem.PFN
}

// NewKSM builds the monitor for one container: it allocates the KSM
// image and per-vCPU areas from host memory and pre-builds the page-
// table subtrees that every per-vCPU top-level copy will link in.
func NewKSM(m *mem.PhysMem, costs *clock.Costs, containerID, numVCPU int) (*KSM, error) {
	if numVCPU < 1 {
		return nil, fmt.Errorf("cki: need at least one vCPU")
	}
	k := &KSM{
		Mem:         m,
		Costs:       costs,
		ContainerID: containerID,
		NumVCPU:     numVCPU,
		PCID:        uint16(containerID + 1),
		ptps:        make(map[mem.PFN]*ptpDesc),
		leafMaps:    make(map[mem.PFN][]pagetable.Slot),
		hugeLeaves:  make(map[pagetable.Slot]mem.PFN),
		copies:      make(map[mem.PFN][]mem.PFN),
		IDT:         &hw.IDT{},
	}
	owner := KSMOwner(containerID)
	alloc := func() (mem.PFN, error) { return m.Alloc(owner) }

	var err error
	if k.idtFrame, err = alloc(); err != nil {
		return nil, err
	}
	if k.gateFrame, err = alloc(); err != nil {
		return nil, err
	}
	if k.descFrame, err = alloc(); err != nil {
		return nil, err
	}
	// Shared KSM image chain: IDT (RO), gate code (RX), descriptors (RW),
	// all key KeyKSM so the guest cannot touch them.
	k.ksmPDPT, err = buildChain(m, alloc, KSMBase, []mapSpec{
		{k.idtFrame, pagetable.FlagNX},
		{k.gateFrame, 0}, // executable gate code
		{k.descFrame, pagetable.FlagWritable | pagetable.FlagNX},
	}, KeyKSM)
	if err != nil {
		return nil, err
	}
	// Per-vCPU chains, each mapping that vCPU's area at PerVCPUBase.
	for v := 0; v < numVCPU; v++ {
		var a vcpuArea
		if a.stack[0], err = alloc(); err != nil {
			return nil, err
		}
		if a.stack[1], err = alloc(); err != nil {
			return nil, err
		}
		if a.ctx, err = alloc(); err != nil {
			return nil, err
		}
		pdpt, err := buildChain(m, alloc, PerVCPUBase, []mapSpec{
			{a.stack[0], pagetable.FlagWritable | pagetable.FlagNX},
			{a.stack[1], pagetable.FlagWritable | pagetable.FlagNX},
			{a.ctx, pagetable.FlagWritable | pagetable.FlagNX},
		}, KeyKSM)
		if err != nil {
			return nil, err
		}
		k.perVCPU = append(k.perVCPU, a)
		k.vcpuPDPT = append(k.vcpuPDPT, pdpt)
	}
	return k, nil
}

type mapSpec struct {
	pfn   mem.PFN
	flags pagetable.PTE
}

// buildChain constructs a PDPT→PD→PT chain mapping the given frames
// consecutively starting at base, returning the PDPT frame. The chain
// is built with raw stores: the KSM is trusted.
func buildChain(m *mem.PhysMem, alloc func() (mem.PFN, error), base uint64, specs []mapSpec, pkey int) (mem.PFN, error) {
	pdpt, err := alloc()
	if err != nil {
		return 0, err
	}
	pd, err := alloc()
	if err != nil {
		return 0, err
	}
	pt, err := alloc()
	if err != nil {
		return 0, err
	}
	inter := pagetable.FlagPresent | pagetable.FlagWritable
	pagetable.WriteEntry(m, pdpt, pagetable.IndexAt(base, pagetable.LevelPDPT), pagetable.Make(pd, inter, 0))
	pagetable.WriteEntry(m, pd, pagetable.IndexAt(base, pagetable.LevelPD), pagetable.Make(pt, inter, 0))
	for i, s := range specs {
		va := base + uint64(i)*mem.PageSize
		pagetable.WriteEntry(m, pt, pagetable.IndexAt(va, pagetable.LevelPT),
			pagetable.Make(s.pfn, s.flags|pagetable.FlagPresent, pkey))
	}
	return pdpt, nil
}

// DelegateSegments hands the container its physical memory (§4.3: "The
// host kernel provides each guest VM with some contiguous segments of
// hPA that are directly managed by the ... guest kernel").
func (k *KSM) DelegateSegments(segs ...mem.Segment) {
	k.segments = append(k.segments, segs...)
}

// Segments returns the delegated segments.
func (k *KSM) Segments() []mem.Segment { return k.segments }

// AllocGuestFrame hands the guest kernel one frame from its delegated
// segments (the guest-side memory manager).
func (k *KSM) AllocGuestFrame() (mem.PFN, error) {
	if n := len(k.freeFrames); n > 0 {
		f := k.freeFrames[n-1]
		k.freeFrames = k.freeFrames[:n-1]
		return f, nil
	}
	off := k.segCursor
	for _, s := range k.segments {
		if off < s.Frames {
			k.segCursor++
			return s.Base + mem.PFN(off), nil
		}
		off -= s.Frames
	}
	return 0, ErrSegmentExhausted
}

// FreeGuestFrame returns a frame to the guest allocator.
func (k *KSM) FreeGuestFrame(pfn mem.PFN) { k.freeFrames = append(k.freeFrames, pfn) }

// SealKernelText registers the immutable, executable guest kernel text.
// After sealing, WritePTE rejects any kernel-executable mapping whose
// target lies outside these segments, which — together with read-only
// text — removes every unaligned wrpkrs byte sequence from reachable
// kernel code (§4.1).
func (k *KSM) SealKernelText(segs ...mem.Segment) {
	k.sealedText = append(k.sealedText, segs...)
}

// ownedByGuest reports whether the frame belongs to this container.
func (k *KSM) ownedByGuest(pfn mem.PFN) bool {
	return k.Mem.Owner(pfn) == k.ContainerID
}

func (k *KSM) inSealedText(pfn mem.PFN) bool {
	for _, s := range k.sealedText {
		if s.Contains(pfn) {
			return true
		}
	}
	return false
}

// PerVCPUStackFrame exposes the secure-stack frame of a vCPU (tests and
// gates use it to verify reachability at the constant address).
func (k *KSM) PerVCPUStackFrame(vcpu int) (mem.PFN, error) {
	if vcpu < 0 || vcpu >= k.NumVCPU {
		return 0, ErrWrongVCPU
	}
	return k.perVCPU[vcpu].stack[0], nil
}
