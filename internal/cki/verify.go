package cki

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// This file implements the KSM's page-table monitoring (§4.3), built on
// the nested-kernel invariants:
//
//  1. only declared pages can be used as page-table pages (PTPs);
//  2. declared PTPs are read-only in the guest (enforced with KeyPTP
//     rather than the PTE writable bit);
//  3. only a declared, validated top-level PTP can be loaded into CR3 —
//     and what actually gets loaded is the KSM's per-vCPU copy.

// DeclarePTP registers a guest frame as a page-table page of the given
// level. The frame must belong to the container and contain no stale
// entries (an attacker could otherwise pre-seed mappings and then have
// them blessed). Declaring a top level also builds the per-vCPU copies.
func (k *KSM) DeclarePTP(pfn mem.PFN, level int) error {
	if level < pagetable.LevelPT || level > pagetable.LevelPML4 {
		k.Stats.Rejections++
		return fmt.Errorf("%w: level %d", ErrLevelMismatch, level)
	}
	if _, dup := k.ptps[pfn]; dup {
		k.Stats.Rejections++
		return ErrAlreadyDeclared
	}
	if !k.ownedByGuest(pfn) {
		k.Stats.Rejections++
		return fmt.Errorf("%w: frame %#x owner %d", ErrNotOwned, uint64(pfn), k.Mem.Owner(pfn))
	}
	for i := 0; i < mem.WordsPerPage; i++ {
		if pagetable.ReadEntry(k.Mem, pfn, i) != 0 {
			k.Stats.Rejections++
			return ErrNotZeroed
		}
	}
	k.ptps[pfn] = &ptpDesc{level: level}
	// Invariant 2: retrofit KeyPTP onto every existing guest mapping of
	// this frame, making it read-only under PKRSGuest: the leaves based
	// at it, and the 2 MiB leaves whose range covers it from below.
	for _, slot := range k.leafMaps[pfn] {
		k.keyPTP(slot)
	}
	for slot, base := range k.hugeLeaves {
		if pfn > base && pfn-base < hugeFrames {
			k.keyPTP(slot)
		}
	}
	if level == pagetable.LevelPML4 {
		if err := k.buildTopCopies(pfn); err != nil {
			delete(k.ptps, pfn)
			return err
		}
	}
	k.Stats.Declares++
	return nil
}

// buildTopCopies creates one copy of a top-level PTP per vCPU, each
// linking the shared KSM image (slot 510) and that vCPU's area chain
// (slot 509) so the constant-address trick of Fig. 8c works.
func (k *KSM) buildTopCopies(top mem.PFN) error {
	owner := KSMOwner(k.ContainerID)
	var copies []mem.PFN
	for v := 0; v < k.NumVCPU; v++ {
		c, err := k.Mem.Alloc(owner)
		if err != nil {
			return err
		}
		// The declared top is zeroed, so the copy starts zeroed too;
		// subsequent guest writes are propagated by WritePTE.
		inter := pagetable.FlagPresent | pagetable.FlagWritable
		pagetable.WriteEntry(k.Mem, c, KSMPML4Slot, pagetable.Make(k.ksmPDPT, inter, 0))
		pagetable.WriteEntry(k.Mem, c, PerVCPUPML4Slot, pagetable.Make(k.vcpuPDPT[v], inter, 0))
		copies = append(copies, c)
	}
	k.copies[top] = copies
	return nil
}

// keyPTP retrofits KeyPTP onto the leaf in slot.
func (k *KSM) keyPTP(slot pagetable.Slot) {
	if e := pagetable.ReadEntry(k.Mem, slot.PTP, slot.Index); e.Present() {
		pagetable.WriteEntry(k.Mem, slot.PTP, slot.Index, e.WithPKey(KeyPTP))
	}
}

// hugeFrames is how many frames a 2 MiB leaf covers.
const hugeFrames = mem.HugePageSize / mem.PageSize

// Reserved PML4 slots (shared with package guest's layout).
const (
	KSMPML4Slot     = 510
	PerVCPUPML4Slot = 509
)

// framesOf enumerates the frames a leaf entry covers (1 for 4 KiB,
// 512 for a 2 MiB huge leaf).
func framesOf(e pagetable.PTE, level int) []mem.PFN {
	base := e.PFN()
	if level == pagetable.LevelPD && e.Huge() {
		out := make([]mem.PFN, hugeFrames)
		for i := range out {
			out[i] = base + mem.PFN(i)
		}
		return out
	}
	return []mem.PFN{base}
}

// isLeaf reports whether an entry at the given level maps memory rather
// than pointing at a lower table.
func isLeaf(e pagetable.PTE, level int) bool {
	return level == pagetable.LevelPT || (level == pagetable.LevelPD && e.Huge())
}

// WritePTE verifies and performs one guest page-table update. It is the
// KSM service behind every guest mapping operation; the runtime invokes
// it through the PKS call gate.
func (k *KSM) WritePTE(level int, ptp mem.PFN, idx int, v pagetable.PTE) error {
	desc, ok := k.ptps[ptp]
	if !ok {
		k.Stats.Rejections++
		return fmt.Errorf("%w: %#x", ErrNotDeclared, uint64(ptp))
	}
	if desc.level != level {
		k.Stats.Rejections++
		return fmt.Errorf("%w: PTP is level %d, update claims %d", ErrLevelMismatch, desc.level, level)
	}
	if idx < 0 || idx >= mem.WordsPerPage {
		k.Stats.Rejections++
		return fmt.Errorf("cki: PTE index %d out of range", idx)
	}
	if level == pagetable.LevelPML4 && (idx == KSMPML4Slot || idx == PerVCPUPML4Slot) {
		k.Stats.Rejections++
		return ErrReservedSlot
	}

	if v.Present() {
		if isLeaf(v, level) {
			nv, err := k.verifyLeaf(v, level)
			if err != nil {
				k.Stats.Rejections++
				return err
			}
			v = nv
		} else if level > pagetable.LevelPT {
			child, ok := k.ptps[v.PFN()]
			if !ok {
				k.Stats.Rejections++
				return fmt.Errorf("%w: child %#x", ErrNotDeclared, uint64(v.PFN()))
			}
			if child.level != level-1 {
				k.Stats.Rejections++
				return fmt.Errorf("%w: child is level %d, parent level %d", ErrLevelMismatch, child.level, level)
			}
			if child.refs >= 1 {
				k.Stats.Rejections++
				return ErrDoubleMapped
			}
		} else {
			k.Stats.Rejections++
			return ErrHugeNotSupported
		}
	}

	// Retire the old entry's bookkeeping.
	old := pagetable.ReadEntry(k.Mem, ptp, idx)
	if old.Present() {
		if isLeaf(old, level) {
			k.dropLeafMap(old.PFN(), pagetable.Slot{PTP: ptp, Index: idx}, level)
		} else if child, ok := k.ptps[old.PFN()]; ok {
			child.refs--
		}
	}

	// Commit.
	pagetable.WriteEntry(k.Mem, ptp, idx, v)
	if v.Present() {
		if isLeaf(v, level) {
			slot := pagetable.Slot{PTP: ptp, Index: idx}
			k.leafMaps[v.PFN()] = append(k.leafMaps[v.PFN()], slot)
			if level == pagetable.LevelPD {
				k.hugeLeaves[slot] = v.PFN()
			}
		} else {
			k.ptps[v.PFN()].refs++
		}
	}
	if level == pagetable.LevelPML4 {
		for _, c := range k.copies[ptp] {
			pagetable.WriteEntry(k.Mem, c, idx, v)
		}
	}
	k.Stats.PTEUpdates++
	return nil
}

// verifyLeaf checks a leaf mapping's target and returns the entry to
// install (possibly with a forced protection key).
func (k *KSM) verifyLeaf(v pagetable.PTE, level int) (pagetable.PTE, error) {
	frames := framesOf(v, level)
	mapsPTP := false
	for _, f := range frames {
		owner := k.Mem.Owner(f)
		if owner == KSMOwner(k.ContainerID) {
			return 0, fmt.Errorf("%w: frame %#x", ErrMapsKSM, uint64(f))
		}
		if owner != k.ContainerID {
			return 0, fmt.Errorf("%w: frame %#x owner %d", ErrNotOwned, uint64(f), owner)
		}
		if _, isPTP := k.ptps[f]; isPTP {
			mapsPTP = true
		}
	}
	// Kernel-executable mappings may only target sealed kernel text:
	// everything else would let the guest conjure wrpkrs gadgets (§4.1).
	if !v.User() && !v.NX() {
		if len(k.sealedText) == 0 {
			return 0, ErrTextNotRegistered
		}
		for _, f := range frames {
			if !k.inSealedText(f) {
				return 0, fmt.Errorf("%w: frame %#x", ErrKernelExec, uint64(f))
			}
		}
	}
	// User-executable is the guest's own business; but a mapping that
	// targets a declared PTP is forced read-only via KeyPTP (invariant 2).
	if mapsPTP {
		v = v.WithPKey(KeyPTP)
	}
	return v, nil
}

// dropLeafMap forgets the leaf in slot (of a PTP at level), based at
// frame f.
func (k *KSM) dropLeafMap(f mem.PFN, slot pagetable.Slot, level int) {
	slots := k.leafMaps[f]
	for i, s := range slots {
		if s == slot {
			k.leafMaps[f] = append(slots[:i], slots[i+1:]...)
			break
		}
	}
	if len(k.leafMaps[f]) == 0 {
		delete(k.leafMaps, f)
	}
	if level == pagetable.LevelPD {
		delete(k.hugeLeaves, slot)
	}
}

// LoadCR3 validates a guest CR3 request and returns the frame that must
// actually be loaded: the requesting vCPU's copy of the declared top
// (invariant 3; §4.3 "Per-vCPU page table").
func (k *KSM) LoadCR3(vcpu int, top mem.PFN) (mem.PFN, error) {
	if vcpu < 0 || vcpu >= k.NumVCPU {
		return 0, ErrWrongVCPU
	}
	desc, ok := k.ptps[top]
	if !ok || desc.level != pagetable.LevelPML4 {
		k.Stats.Rejections++
		return 0, ErrBadCR3
	}
	k.Stats.CR3Loads++
	return k.copies[top][vcpu], nil
}

// ReadTopEntry returns entry idx of a declared top-level PTP with the
// accessed/dirty bits merged in from every per-vCPU copy (§4.3: "the
// accessed/dirty-bit is propagated from the copies to the original").
func (k *KSM) ReadTopEntry(top mem.PFN, idx int) (pagetable.PTE, error) {
	desc, ok := k.ptps[top]
	if !ok || desc.level != pagetable.LevelPML4 {
		return 0, ErrNotTopLevel
	}
	e := pagetable.ReadEntry(k.Mem, top, idx)
	for _, c := range k.copies[top] {
		ad := pagetable.ReadEntry(k.Mem, c, idx) & (pagetable.FlagAccessed | pagetable.FlagDirty)
		e |= ad
	}
	pagetable.WriteEntry(k.Mem, top, idx, e)
	k.Stats.ADPropagate++
	return e, nil
}

// RefreshTopCopy re-synchronizes one vCPU's copy of a declared
// top-level PTP from the master, preserving the copy's accessed/dirty
// bits and the two reserved KSM slots. The mediated WritePTE keeps the
// copies coherent on every update, but a remote vCPU servicing a
// KSM-mediated TLB shootdown re-verifies its copy anyway (§4.3): a lost
// propagation — or a bit flip in the copy — would otherwise leave that
// vCPU translating through a stale top level long after the master was
// downgraded. Returns how many slots had to be rewritten (0 when the
// copy was already coherent).
func (k *KSM) RefreshTopCopy(top mem.PFN, vcpu int) (int, error) {
	if vcpu < 0 || vcpu >= k.NumVCPU {
		return 0, ErrWrongVCPU
	}
	desc, ok := k.ptps[top]
	if !ok || desc.level != pagetable.LevelPML4 {
		return 0, ErrNotTopLevel
	}
	const ad = uint64(pagetable.FlagAccessed | pagetable.FlagDirty)
	master, cp := k.Mem.Page(top), k.Mem.Page(k.copies[top][vcpu])
	fixed := 0
	for i, want := range master {
		if i == KSMPML4Slot || i == PerVCPUPML4Slot {
			continue
		}
		if got := cp[i]; got&^ad != want&^ad {
			cp[i] = want | got&ad
			fixed++
		}
	}
	k.Stats.CopyRefreshes++
	return fixed, nil
}

// Retire tears down a PTP. For a top-level PTP it recursively clears and
// undeclares the whole tree (children first) and releases the per-vCPU
// copies; retiring an already-retired page is a no-op so address-space
// teardown can simply retire every PTP it ever declared.
func (k *KSM) Retire(ptp mem.PFN) error {
	desc, ok := k.ptps[ptp]
	if !ok {
		return nil
	}
	if desc.refs > 0 {
		return ErrStillReferenced
	}
	return k.retireTree(ptp)
}

func (k *KSM) retireTree(ptp mem.PFN) error {
	desc := k.ptps[ptp]
	for i := 0; i < mem.WordsPerPage; i++ {
		e := pagetable.ReadEntry(k.Mem, ptp, i)
		if !e.Present() {
			continue
		}
		if isLeaf(e, desc.level) {
			k.dropLeafMap(e.PFN(), pagetable.Slot{PTP: ptp, Index: i}, desc.level)
		} else if child, ok := k.ptps[e.PFN()]; ok {
			child.refs--
			if err := k.retireTree(e.PFN()); err != nil {
				return err
			}
		}
		pagetable.WriteEntry(k.Mem, ptp, i, 0)
	}
	if desc.level == pagetable.LevelPML4 {
		for _, c := range k.copies[ptp] {
			if err := k.Mem.Free(c); err != nil {
				return err
			}
		}
		delete(k.copies, ptp)
	}
	delete(k.ptps, ptp)
	return nil
}

// IsDeclared reports whether pfn is currently a declared PTP.
func (k *KSM) IsDeclared(pfn mem.PFN) bool {
	_, ok := k.ptps[pfn]
	return ok
}

// Refs returns the reference count of a declared PTP (tests).
func (k *KSM) Refs(pfn mem.PFN) int {
	if d, ok := k.ptps[pfn]; ok {
		return d.refs
	}
	return -1
}
