package guest

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
)

// Virtual address layout of a guest process (48-bit canonical).
const (
	// UserTextBase is where execve maps the program image.
	UserTextBase = 0x0000_0000_0040_0000
	// UserBrkBase is the initial program break.
	UserBrkBase = 0x0000_0000_0100_0000
	// UserMmapBase is the bottom of the mmap arena (grows upward).
	UserMmapBase = 0x0000_7f00_0000_0000
	// UserStackTop bounds the (downward-growing) stack.
	UserStackTop = 0x0000_7fff_ffff_f000
	// KernBase is the start of the guest kernel image mapping
	// (PML4 slot 256). The guest kernel is mapped in every process
	// address space and isolated with the PTE U/K bit, which is what
	// lets CKI syscalls skip the page-table switch (§3.3).
	KernBase = 0xffff_8000_0000_0000
)

// Reserved PML4 slots. Slot 256 holds the guest kernel image; 509 and
// 510 are claimed by CKI's KSM for the per-vCPU area and the KSM image.
// The KSM rejects guest PTE updates that touch the reserved slots.
const (
	KernPML4Slot    = 256
	PerVCPUPML4Slot = 509
	KSMPML4Slot     = 510
)

// kernelImage pins the frames backing the shared guest kernel image.
type kernelImage struct {
	text mem.Segment // executable, read-only
	data mem.Segment // no-exec, read-write
}

// BootKernelImage allocates the guest kernel image once per container.
// Runtimes call it before creating the first address space; CKI's KSM
// seals the text segment so no other frame may ever be mapped
// kernel-executable (§4.1).
func (k *Kernel) BootKernelImage() error {
	if k.kimg != nil {
		return nil
	}
	framesPerHuge := mem.HugePageSize / mem.PageSize
	text, err := k.Mem.AllocSegment(framesPerHuge, k.ContainerID)
	if err != nil {
		return fmt.Errorf("guest: kernel text: %w", err)
	}
	data, err := k.Mem.AllocSegment(framesPerHuge, k.ContainerID)
	if err != nil {
		return fmt.Errorf("guest: kernel data: %w", err)
	}
	k.kimg = &kernelImage{text: text, data: data}
	return nil
}

// KernelTextSegment exposes the sealed text range to the runtime (the
// CKI backend registers it with the KSM).
func (k *Kernel) KernelTextSegment() mem.Segment {
	if k.kimg == nil {
		return mem.Segment{}
	}
	return k.kimg.text
}

// NewAddrSpace builds a fresh address space: a declared top-level PTP
// with the guest kernel image mapped supervisor-only.
func (k *Kernel) NewAddrSpace() (*AddrSpace, error) {
	if err := k.BootKernelImage(); err != nil {
		return nil, err
	}
	root, err := k.PV.AllocFrame(k)
	if err != nil {
		return nil, err
	}
	k.nextASID++
	as := &AddrSpace{
		Root: root,
		// Per-address-space PCID within the container's PCID group:
		// processes must not alias each other's TLB entries, and
		// containers must not alias other containers' (§4.1).
		PCID:   uint16(k.ContainerID<<8 | (k.nextASID & 0xff)),
		mapped: make(map[uint64]mem.PFN),
	}
	as.ptps = append(as.ptps, root)
	if err := k.PV.DeclarePTP(k, as, root, pagetable.LevelPML4); err != nil {
		return nil, err
	}
	// Map the kernel image: text executable read-only, data writable NX.
	mp := k.mapper(as)
	if err := mp.MapHuge(KernBase, k.kimg.text.Base, 0, 0); err != nil {
		return nil, fmt.Errorf("guest: mapping kernel text: %w", err)
	}
	if err := mp.MapHuge(KernBase+mem.HugePageSize, k.kimg.data.Base,
		pagetable.FlagWritable|pagetable.FlagNX, 0); err != nil {
		return nil, fmt.Errorf("guest: mapping kernel data: %w", err)
	}
	return as, nil
}

// mapper returns a pagetable.Mapper whose stores and PTP allocations are
// mediated by the runtime's paravirt hooks.
func (k *Kernel) mapper(as *AddrSpace) *pagetable.Mapper {
	return &pagetable.Mapper{
		Mem:  k.Mem,
		Root: as.Root,
		Alloc: func() (mem.PFN, error) {
			return k.PV.AllocFrame(k)
		},
		Declare: func(ptp mem.PFN, level int) error {
			as.ptps = append(as.ptps, ptp)
			return k.PV.DeclarePTP(k, as, ptp, level)
		},
		Sink: func(level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error {
			k.Stats.PTEWrites++
			k.markDirty(level, va)
			// The old/readback pair brackets the mediated store so the
			// audit log captures both KSM rejections (old == readback)
			// and injected corruption (readback != requested value).
			// Guarded: the extra reads cost no virtual time but are not
			// free in wall time, so skip them when nobody records.
			var old uint64
			if k.Audit != nil {
				old = k.Mem.Page(ptp)[idx]
			}
			var err error
			if k.fire(faults.PTEWrite) {
				err = k.corruptPTEWrite(as, level, va, ptp, idx, v)
			} else {
				err = k.PV.WritePTE(k, as, level, va, ptp, idx, v)
			}
			if k.Audit != nil {
				k.Audit.Emit(audit.EvPTEWrite, k.VCPU, as.PCID,
					audit.PackPTESlot(uint64(ptp), idx, level), old, k.Mem.Page(ptp)[idx])
			}
			return err
		},
	}
}

// protFlags converts VMA protection to leaf PTE flags for a user page.
func protFlags(p Prot) pagetable.PTE {
	f := pagetable.FlagUser
	if p&ProtWrite != 0 {
		f |= pagetable.FlagWritable
	}
	if p&ProtExec == 0 {
		f |= pagetable.FlagNX
	}
	return f
}

// addVMA inserts a VMA after checking for overlap.
func (as *AddrSpace) addVMA(v *VMA) error {
	for _, o := range as.vmas {
		if v.Start < o.End && o.Start < v.End {
			return EEXIST
		}
	}
	as.vmas = append(as.vmas, v)
	return nil
}

// Mmap creates a mapping. addr may be 0 to let the kernel pick a slot in
// the mmap arena. length is rounded up to pages.
func (k *Kernel) Mmap(p *Proc, addr, length uint64, prot Prot, file *Inode, off uint64, huge bool) (uint64, error) {
	k.charge(sysBodyMmap)
	if length == 0 {
		return 0, EINVAL
	}
	align := uint64(mem.PageSize)
	if huge {
		align = mem.HugePageSize
	}
	length = (length + align - 1) &^ (align - 1)
	if addr == 0 {
		addr = p.AS.mmapCursor
		if addr == 0 {
			addr = UserMmapBase
		}
		addr = (addr + align - 1) &^ (align - 1)
		p.AS.mmapCursor = addr + length
	} else if addr%align != 0 {
		return 0, EINVAL
	}
	v := &VMA{Start: addr, End: addr + length, Prot: prot, File: file, Off: off, Huge: huge}
	if err := p.AS.addVMA(v); err != nil {
		return 0, err
	}
	return addr, nil
}

// Munmap removes mappings in [addr, addr+length): resident pages are
// unmapped (through the runtime's PTE path), their frames freed, and
// their TLB entries invalidated with invlpg.
func (k *Kernel) Munmap(p *Proc, addr, length uint64) error {
	k.charge(sysBodyMunmap)
	end := addr + ((length + mem.PageMask) &^ uint64(mem.PageMask))
	var kept []*VMA
	found := false
	for _, v := range p.AS.vmas {
		if v.Start >= addr && v.End <= end {
			found = true
			if err := k.unmapResident(p.AS, v); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, v)
	}
	if !found {
		return EINVAL
	}
	p.AS.vmas = kept
	return nil
}

func (k *Kernel) unmapResident(as *AddrSpace, v *VMA) error {
	mp := k.mapper(as)
	step := uint64(mem.PageSize)
	if v.Huge {
		step = mem.HugePageSize
	}
	for va := v.Start; va < v.End; va += step {
		// Lazily restored pages are not resident; dropping the VMA just
		// forgets the deferred materialization.
		delete(as.lazy, va)
		pfn, ok := as.mapped[va]
		if !ok {
			continue
		}
		if err := mp.Unmap(va); err != nil {
			return err
		}
		k.PV.FlushPage(k, as, va)
		k.remoteFlush(as, va)
		delete(as.mapped, va)
		if !v.Huge { // huge backing segments stay with the container
			if local, shared := as.shared[va]; shared {
				// Unwritten fork share: return the reference to the store;
				// the frame is ours to free only if it was locally backed
				// (store-owned masters outlive any one fork).
				delete(as.shared, va)
				if k.ForkSrc != nil {
					k.ForkSrc.Release(as.PCID, va)
				}
				if local {
					k.PV.FreeFrame(k, pfn)
				}
			} else if k.cowRelease(pfn) {
				k.PV.FreeFrame(k, pfn)
			}
		}
	}
	return nil
}

// Mprotect changes the protection of whole VMAs inside [addr, end) and
// rewrites resident PTEs.
func (k *Kernel) Mprotect(p *Proc, addr, length uint64, prot Prot) error {
	k.charge(sysBodyMprotect)
	end := addr + ((length + mem.PageMask) &^ uint64(mem.PageMask))
	mp := k.mapper(p.AS)
	found := false
	for _, v := range p.AS.vmas {
		if v.Start >= end || v.End <= addr {
			continue
		}
		found = true
		if v.Start < addr || v.End > end {
			// Split the VMA so protection applies exactly.
			if err := k.splitVMA(p.AS, v, addr, end); err != nil {
				return err
			}
			return k.Mprotect(p, addr, length, prot)
		}
		v.Prot = prot
		step := uint64(mem.PageSize)
		if v.Huge {
			step = mem.HugePageSize
		}
		for va := v.Start; va < v.End; va += step {
			if _, ok := p.AS.mapped[va]; !ok {
				continue
			}
			flags := protFlags(prot)
			if err := mp.Protect(va, flags, -1); err != nil {
				return err
			}
			k.PV.FlushPage(k, p.AS, va)
			k.remoteFlush(p.AS, va)
		}
	}
	if !found {
		return EINVAL
	}
	return nil
}

func (k *Kernel) splitVMA(as *AddrSpace, v *VMA, addr, end uint64) error {
	clamp := func(x uint64) uint64 {
		if x < v.Start {
			return v.Start
		}
		if x > v.End {
			return v.End
		}
		return x
	}
	lo, hi := clamp(addr), clamp(end)
	var out []*VMA
	for _, o := range as.vmas {
		if o != v {
			out = append(out, o)
			continue
		}
		if v.Start < lo {
			nv := *v
			nv.End = lo
			out = append(out, &nv)
		}
		if lo < hi {
			nv := *v
			nv.Start, nv.End = lo, hi
			out = append(out, &nv)
		}
		if hi < v.End {
			nv := *v
			nv.Start = hi
			nv.Off += hi - v.Start
			out = append(out, &nv)
		}
	}
	as.vmas = out
	return nil
}

// Brk adjusts the program break, growing or shrinking the heap VMA.
func (k *Kernel) Brk(p *Proc, newBrk uint64) (uint64, error) {
	k.charge(sysBodyBrk)
	if newBrk == 0 {
		return p.brk, nil
	}
	if newBrk < UserBrkBase {
		return 0, EINVAL
	}
	cur := (p.brk + mem.PageMask) &^ uint64(mem.PageMask)
	want := (newBrk + mem.PageMask) &^ uint64(mem.PageMask)
	heap := p.AS.heapVMA
	if heap == nil {
		heap = &VMA{Start: UserBrkBase, End: UserBrkBase, Prot: ProtRead | ProtWrite}
		if err := p.AS.addVMA(heap); err != nil {
			return 0, err
		}
		p.AS.heapVMA = heap
	}
	if want > cur {
		heap.End = want
	} else if want < cur {
		shrunk := *heap
		shrunk.Start = want
		if err := k.unmapResident(p.AS, &shrunk); err != nil {
			return 0, err
		}
		heap.End = want
	}
	p.brk = newBrk
	return newBrk, nil
}

// HandleUserFault services a demand page fault at va. It charges the
// runtime's handler cost, validates the VMA, allocates and maps the
// page, and counts the fault. Protection violations return EFAULT.
func (k *Kernel) HandleUserFault(p *Proc, va uint64, write bool) error {
	k.Phase("pf_handler", k.PV.PFHandlerCost(k))
	v := p.AS.FindVMA(va)
	if v == nil {
		k.Stats.ProtFaults++
		return EFAULT
	}
	if write && v.Prot&ProtWrite == 0 || !write && v.Prot&ProtRead == 0 {
		k.Stats.ProtFaults++
		return EFAULT
	}
	k.Stats.PageFaults++
	if k.fire(faults.FrameAlloc) {
		// Transient allocator failure: graceful, the guest sees ENOMEM.
		return ENOMEM
	}
	mp := k.mapper(p.AS)
	if v.Huge {
		base := va &^ uint64(mem.HugePageSize-1)
		seg, err := k.Mem.AllocSegment(mem.HugePageSize/mem.PageSize, k.ContainerID)
		if err != nil {
			return ENOMEM
		}
		if err := mp.MapHuge(base, seg.Base, protFlags(v.Prot), 0); err != nil {
			return fmt.Errorf("guest: huge map: %w", err)
		}
		p.AS.mapped[base] = seg.Base
	} else {
		base := va &^ uint64(mem.PageMask)
		if _, lazy := p.AS.lazy[base]; lazy {
			// A lazily restored image page materializes on first touch
			// (fork.go) instead of zero-filling.
			if err := k.lazyMaterialize(p, v, mp, base, write); err != nil {
				return err
			}
		} else {
			pfn, err := k.PV.AllocFrame(k)
			if err != nil {
				return ENOMEM
			}
			k.Phase("page_zero", costPageZero)
			if err := mp.Map(base, pfn, protFlags(v.Prot), 0); err != nil {
				return fmt.Errorf("guest: map: %w", err)
			}
			p.AS.mapped[base] = pfn
		}
	}
	if v.File != nil {
		// The page-cache page is mapped directly (no copy); the extra
		// charge is the runtime-specific population overhead.
		k.Stats.FileBackedPFs++
		k.Phase("file_extra", k.PV.FileBackedFaultExtra(k))
	}
	return nil
}

// Touch performs one user-mode access at va, running the full demand-
// paging flow on faults: the access itself (TLB + walk + key checks
// under the runtime's regime), the exception delivery, the guest
// handler, and the return. A protection violation surfaces as EFAULT.
func (k *Kernel) Touch(va uint64, acc mmu.Access) error {
	if k.dead {
		return EKERNELDIED
	}
	span := k.Spans.Begin("access")
	err := k.touch(va, acc)
	k.Spans.End(span)
	if err == nil {
		k.maybePreempt()
	}
	return err
}

// touch is the Touch body: the access plus up to two fault-and-retry
// rounds, with the enclosing "access" span managed by the caller (the
// preemption check runs after the span closes, so a tick is its own
// root, not access time).
func (k *Kernel) touch(va uint64, acc mmu.Access) error {
	for try := 0; try < 3; try++ {
		// Re-read the current process each attempt: a timer tick may
		// have rescheduled between retries, and the faulting process is
		// by definition the one on the CPU.
		p := k.Cur
		flt := k.PV.UserAccess(k, p.AS, va, acc)
		if flt == nil {
			return nil
		}
		switch flt.Kind {
		case hw.FaultNotMapped:
			start := k.Clk.Now()
			pf := k.Spans.Begin("pagefault")
			k.PV.FaultEnter(k)
			if k.fire(faults.DoubleFault) {
				// The #PF handler faults on its own frame push; the
				// handler never returns (no FaultExit).
				k.panicDoubleFault()
				k.Spans.End(pf)
				return EKERNELDIED
			}
			err := k.HandleUserFault(p, va, acc == mmu.Write)
			k.PV.FaultExit(k)
			k.Spans.End(pf)
			k.Met.ObservePageFault(k.Clk.Now() - start)
			if err != nil {
				if k.dead {
					return EKERNELDIED
				}
				return err
			}
		case hw.FaultProtection, hw.FaultPKU:
			pf := k.Spans.Begin("protfault")
			k.PV.FaultEnter(k)
			if acc == mmu.Write {
				// Fork-share breaks first (fork.go): a write to a page
				// mapped shared from a snapshot store dissolves the share.
				if handled, err := k.handleShareBreak(p, va); handled || err != nil {
					k.PV.FaultExit(k)
					k.Spans.End(pf)
					if err != nil {
						return err
					}
					continue
				}
				// Copy-on-write resolution next (§ForkCOW).
				if handled, err := k.handleCOWFault(p, va); handled || err != nil {
					k.PV.FaultExit(k)
					k.Spans.End(pf)
					if err != nil {
						return err
					}
					continue
				}
			}
			// A registered SIGSEGV handler gets the fault next.
			if handled, retry := k.deliverSegv(p, va, acc == mmu.Write); handled {
				k.Spans.End(pf)
				if retry {
					continue
				}
				return EFAULT
			}
			// Otherwise the guest kernel finds no permission in the
			// VMA and the access dies.
			err := k.HandleUserFault(p, va, acc == mmu.Write)
			k.PV.FaultExit(k)
			k.Spans.End(pf)
			if err != nil {
				return err
			}
			return EFAULT
		default:
			return flt
		}
	}
	return fmt.Errorf("guest: fault loop at %#x", va)
}

// TouchRange touches every page of [addr, addr+length), the access
// pattern of the paper's page-fault-intensive microbenchmark (Fig. 10a).
func (k *Kernel) TouchRange(addr, length uint64, acc mmu.Access) error {
	for va := addr; va < addr+length; va += mem.PageSize {
		if err := k.Touch(va, acc); err != nil {
			return err
		}
	}
	return nil
}

// DestroyAddrSpace unmaps everything, retires the PTPs, and frees the
// frames of an exiting process.
func (k *Kernel) DestroyAddrSpace(as *AddrSpace) error {
	for _, v := range as.vmas {
		if err := k.unmapResident(as, v); err != nil {
			return err
		}
	}
	as.vmas = nil
	// Root first: under CKI the KSM retires the whole tree recursively
	// from the top PTP, making the remaining retires no-ops.
	for _, ptp := range as.ptps {
		if err := k.PV.RetirePTP(k, as, ptp); err != nil {
			return err
		}
		k.Audit.Emit(audit.EvPTPRetire, k.VCPU, as.PCID, uint64(ptp), 0, 0)
		k.PV.FreeFrame(k, ptp)
	}
	as.ptps = nil
	return nil
}

// memory-management body costs (guest kernel software, identical across
// runtimes; the runtime differences come from the paravirt hooks).
var (
	sysBodyMmap     = clock.FromNanos(600)
	sysBodyMunmap   = clock.FromNanos(300)
	sysBodyMprotect = clock.FromNanos(250)
	sysBodyBrk      = clock.FromNanos(120)
	costPageZero    = clock.FromNanos(120)
	costPageCopy    = clock.FromNanos(150)
)
