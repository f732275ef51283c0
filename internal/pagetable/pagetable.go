// Package pagetable implements x86-64 4-level page tables that live in
// the simulated physical memory of package mem.
//
// The tables are real data structures: every mapping is a radix-tree
// path of 64-bit entries in simulated frames, every translation is a
// walk that reads those frames, and protection attributes (writable,
// user/kernel, no-execute, protection key) are aggregated exactly as the
// hardware aggregates them. CKI's kernel security monitor, PVM's shadow
// paging and HVM's EPT all operate on instances of these tables, so the
// isolation arguments in the paper are checked against genuine state,
// not against a behavioural stub.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Levels of an x86-64 4-level page table, counted 4 (root, PML4) down
// to 1 (leaf, PT).
const (
	LevelPML4 = 4
	LevelPDPT = 3
	LevelPD   = 2
	LevelPT   = 1
)

// PTE is one page-table entry. The bit layout follows the Intel SDM,
// including the four protection-key bits (62:59) that MPK repurposes.
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagWritable PTE = 1 << 1
	FlagUser     PTE = 1 << 2
	FlagAccessed PTE = 1 << 5
	FlagDirty    PTE = 1 << 6
	FlagHuge     PTE = 1 << 7 // 2 MiB leaf at the PD level
	FlagGlobal   PTE = 1 << 8
	FlagNX       PTE = 1 << 63

	pkeyShift = 59
	pkeyMask  = PTE(0xf) << pkeyShift
	addrMask  = PTE(0x000ffffffffff000)
)

// Make builds a PTE pointing at frame pfn with the given flags and
// protection key.
func Make(pfn mem.PFN, flags PTE, pkey int) PTE {
	return PTE(pfn.Addr())&addrMask | flags | (PTE(pkey) << pkeyShift & pkeyMask)
}

// Present reports whether the entry is valid.
func (e PTE) Present() bool { return e&FlagPresent != 0 }

// Writable reports the W bit.
func (e PTE) Writable() bool { return e&FlagWritable != 0 }

// User reports the U/S bit.
func (e PTE) User() bool { return e&FlagUser != 0 }

// Huge reports whether this is a 2 MiB leaf (meaningful at level 2).
func (e PTE) Huge() bool { return e&FlagHuge != 0 }

// NX reports the no-execute bit.
func (e PTE) NX() bool { return e&FlagNX != 0 }

// PFN returns the frame the entry points at.
func (e PTE) PFN() mem.PFN { return mem.PFNOf(uint64(e & addrMask)) }

// PKey returns the protection key (0..15).
func (e PTE) PKey() int { return int(e&pkeyMask) >> pkeyShift }

// WithPKey returns e with the protection key replaced.
func (e PTE) WithPKey(k int) PTE {
	return e&^pkeyMask | (PTE(k) << pkeyShift & pkeyMask)
}

// String renders the entry for diagnostics.
func (e PTE) String() string {
	if !e.Present() {
		return "PTE{not present}"
	}
	s := fmt.Sprintf("PTE{pfn=%#x", uint64(e.PFN()))
	if e.Writable() {
		s += " W"
	}
	if e.User() {
		s += " U"
	}
	if e.Huge() {
		s += " 2M"
	}
	if e.NX() {
		s += " NX"
	}
	if k := e.PKey(); k != 0 {
		s += fmt.Sprintf(" pkey=%d", k)
	}
	return s + "}"
}

// Indexes decomposes a canonical virtual address into its four
// table indexes, root first.
func Indexes(va uint64) [4]int {
	return [4]int{
		int(va >> 39 & 0x1ff), // PML4
		int(va >> 30 & 0x1ff), // PDPT
		int(va >> 21 & 0x1ff), // PD
		int(va >> 12 & 0x1ff), // PT
	}
}

// IndexAt returns the table index used at the given level (4..1).
func IndexAt(va uint64, level int) int {
	return int(va >> (12 + 9*uint(level-1)) & 0x1ff)
}

// ReadEntry reads entry idx of the page-table page at frame ptp.
func ReadEntry(m *mem.PhysMem, ptp mem.PFN, idx int) PTE {
	return PTE(m.ReadWord(ptp.Addr() + uint64(idx)*8))
}

// WriteEntry writes entry idx of the page-table page at frame ptp. This
// is the *raw* store; callers that model deprivileged guests must route
// writes through their strategy (KSM call, hypercall, ...) instead.
func WriteEntry(m *mem.PhysMem, ptp mem.PFN, idx int, v PTE) {
	m.WriteWord(ptp.Addr()+uint64(idx)*8, uint64(v))
}

// Walk errors.
var (
	ErrNotMapped = errors.New("pagetable: address not mapped")
)

// Walk is the result of a successful translation.
type Walk struct {
	// VA is the address that was translated.
	VA uint64
	// PA is the translated physical address.
	PA uint64
	// PFN is the leaf frame (for 2 MiB pages, the frame containing PA).
	PFN mem.PFN
	// Writable, User, NX are the aggregated permissions along the path.
	Writable bool
	User     bool
	NX       bool
	// PKey is the protection key of the leaf entry.
	PKey int
	// Global reports the leaf G bit (survives non-PCID flushes).
	Global bool
	// Huge reports whether the mapping is a 2 MiB leaf.
	Huge bool
	// Level is the level at which the leaf was found (1 or 2).
	Level int
	// Refs is the number of page-table memory references performed.
	Refs int
	// Path holds the PTP frames visited, root first (excludes the leaf
	// data frame). Used by shadow-paging emulation and by the KSM.
	Path [4]mem.PFN
	// Slot is the (ptp, index) of the leaf entry, so callers can update
	// A/D bits or rewrite the mapping.
	Slot Slot
}

// Slot names one entry location in one page-table page.
type Slot struct {
	PTP   mem.PFN
	Index int
}

// Translate walks the table rooted at root for va. It returns
// ErrNotMapped (with the number of refs performed and the level at
// which the walk stopped) when a non-present entry is hit.
func Translate(m *mem.PhysMem, root mem.PFN, va uint64) (Walk, error) {
	var w Walk
	w.VA = va
	ptp := root
	idx := Indexes(va)
	w.Writable, w.User = true, true
	for level := LevelPML4; level >= LevelPT; level-- {
		i := idx[LevelPML4-level]
		e := ReadEntry(m, ptp, i)
		w.Refs++
		if !e.Present() {
			w.Level = level
			return w, fmt.Errorf("%w: va %#x at level %d", ErrNotMapped, va, level)
		}
		w.Writable = w.Writable && e.Writable()
		w.User = w.User && e.User()
		w.NX = w.NX || e.NX()
		w.Path[LevelPML4-level] = ptp
		if level == LevelPT || (level == LevelPD && e.Huge()) {
			w.PKey = e.PKey()
			w.Global = e&FlagGlobal != 0
			w.Huge = level == LevelPD
			w.Level = level
			w.Slot = Slot{PTP: ptp, Index: i}
			if w.Huge {
				off := va & (mem.HugePageSize - 1)
				w.PA = uint64(e.PFN().Addr()) + off
			} else {
				w.PA = uint64(e.PFN().Addr()) + va&mem.PageMask
			}
			w.PFN = mem.PFNOf(w.PA)
			return w, nil
		}
		ptp = e.PFN()
	}
	panic("unreachable")
}

// SetAccessedDirty sets the accessed bit on every level of a completed
// walk (and the dirty bit on the leaf for writes), as the hardware
// walker does on a TLB fill. Setting A at the top level is what feeds
// CKI's per-vCPU A/D propagation (§4.3).
func SetAccessedDirty(m *mem.PhysMem, w Walk, write bool) {
	for level := LevelPML4; level > w.Level; level-- {
		ptp := w.Path[LevelPML4-level]
		idx := IndexAt(w.VA, level)
		e := ReadEntry(m, ptp, idx)
		if e.Present() {
			WriteEntry(m, ptp, idx, e|FlagAccessed)
		}
	}
	e := ReadEntry(m, w.Slot.PTP, w.Slot.Index)
	e |= FlagAccessed
	if write {
		e |= FlagDirty
	}
	WriteEntry(m, w.Slot.PTP, w.Slot.Index, e)
}

// FrameAlloc allocates one frame for an intermediate page-table page.
type FrameAlloc func() (mem.PFN, error)

// EntrySink receives every entry store the mapper wants to perform.
// Trusted kernels pass RawSink; a deprivileged CKI guest passes a sink
// that calls into the KSM; PVM passes one that issues hypercalls.
type EntrySink func(level int, va uint64, ptp mem.PFN, idx int, v PTE) error

// PTPDeclare is invoked whenever the mapper allocates a new page-table
// page, before any entry pointing at it is written. CKI's KSM uses this
// to enforce invariant (1) of §4.3: only declared pages become PTPs.
type PTPDeclare func(ptp mem.PFN, level int) error

// RawSink returns an EntrySink that stores entries directly, for
// trusted kernels (the host, or HVM guests that own their tables).
func RawSink(m *mem.PhysMem) EntrySink {
	return func(_ int, _ uint64, ptp mem.PFN, idx int, v PTE) error {
		WriteEntry(m, ptp, idx, v)
		return nil
	}
}

// Mapper builds mappings in a table rooted at Root, routing all stores
// through Sink and all PTP allocations through Alloc/Declare.
type Mapper struct {
	Mem     *mem.PhysMem
	Root    mem.PFN
	Alloc   FrameAlloc
	Declare PTPDeclare // optional
	Sink    EntrySink
}

// ensure walks to the level-1 (or level-2 for huge) table containing
// va, allocating intermediate PTPs as needed, and returns its frame.
func (mp *Mapper) ensure(va uint64, leafLevel int) (mem.PFN, error) {
	ptp := mp.Root
	for level := LevelPML4; level > leafLevel; level-- {
		i := IndexAt(va, level)
		e := ReadEntry(mp.Mem, ptp, i)
		if !e.Present() {
			nf, err := mp.Alloc()
			if err != nil {
				return 0, fmt.Errorf("pagetable: allocating level-%d PTP: %w", level-1, err)
			}
			if mp.Declare != nil {
				if err := mp.Declare(nf, level-1); err != nil {
					return 0, err
				}
			}
			// Intermediate entries carry permissive W/U; restriction is
			// applied at the leaf, as Linux does.
			ne := Make(nf, FlagPresent|FlagWritable|FlagUser, 0)
			if err := mp.Sink(level, va, ptp, i, ne); err != nil {
				return 0, err
			}
			e = ReadEntry(mp.Mem, ptp, i)
			if !e.Present() {
				return 0, fmt.Errorf("pagetable: sink suppressed level-%d entry", level)
			}
		} else if level == LevelPD+1 && ReadEntry(mp.Mem, ptp, i).Huge() {
			return 0, fmt.Errorf("pagetable: va %#x already mapped huge", va)
		}
		ptp = e.PFN()
	}
	return ptp, nil
}

// Map installs a 4 KiB mapping va→pfn with the given leaf flags/pkey.
func (mp *Mapper) Map(va uint64, pfn mem.PFN, flags PTE, pkey int) error {
	ptp, err := mp.ensure(va, LevelPT)
	if err != nil {
		return err
	}
	return mp.Sink(LevelPT, va, ptp, IndexAt(va, LevelPT), Make(pfn, flags|FlagPresent, pkey))
}

// MapHuge installs a 2 MiB mapping at va (which must be 2 MiB aligned).
func (mp *Mapper) MapHuge(va uint64, pfn mem.PFN, flags PTE, pkey int) error {
	if va%mem.HugePageSize != 0 {
		return fmt.Errorf("pagetable: huge va %#x not 2MiB aligned", va)
	}
	ptp, err := mp.ensure(va, LevelPD)
	if err != nil {
		return err
	}
	return mp.Sink(LevelPD, va, ptp, IndexAt(va, LevelPD), Make(pfn, flags|FlagPresent|FlagHuge, pkey))
}

// Unmap clears the leaf entry for va. Missing mappings are an error.
func (mp *Mapper) Unmap(va uint64) error {
	w, err := Translate(mp.Mem, mp.Root, va)
	if err != nil {
		return err
	}
	return mp.Sink(w.Level, va, w.Slot.PTP, w.Slot.Index, 0)
}

// Protect rewrites the leaf entry's flags (preserving address and pkey
// unless newPKey >= 0).
func (mp *Mapper) Protect(va uint64, flags PTE, newPKey int) error {
	w, err := Translate(mp.Mem, mp.Root, va)
	if err != nil {
		return err
	}
	e := ReadEntry(mp.Mem, w.Slot.PTP, w.Slot.Index)
	ne := e&addrMask | flags | FlagPresent
	if e.Huge() {
		ne |= FlagHuge
	}
	if newPKey >= 0 {
		ne = ne.WithPKey(newPKey)
	} else {
		ne = ne.WithPKey(e.PKey())
	}
	return mp.Sink(w.Level, va, w.Slot.PTP, w.Slot.Index, ne)
}
