package guest

// Fork-from-snapshot fast path (guest half). Restoring an image eagerly
// demand-faults every resident page — page-fault handler, zero fill,
// accessed/dirty replay, per page. A fork from the same image can do
// dramatically less work: resident pages are mapped *shared read-only*
// from a content-addressed page store (RestoreCOW), and the first write
// breaks the share into a private copy; lazy restore (RestoreLazy) goes
// further and defers even the mapping to the first touch, materializing
// only a prefetch working set up front.
//
// The guest kernel stays runtime-agnostic: it does not know where
// shared frames come from. The ForkPages hook — installed by the
// backend — resolves (PCID, VA) to a backing frame and observes the
// share lifecycle (break, release) so the store's reference counts
// track sibling sharing. The hook also reports whether the frame is
// *local* to this guest's own allocator: CKI cannot map foreign frames
// (the KSM's ownership validation rejects any leaf whose frame the
// container does not own), so its hook hands back container-owned
// frames and models the sharing at the store level, exactly like the
// KSM's per-vCPU top-copy machinery reuses container-owned frames for
// logically shared state.

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// ForkPages supplies shared backing frames for fork-from-snapshot
// restores and observes share lifecycle events. Implemented by the
// backend layer over a snapshot.PageStore.
type ForkPages interface {
	// Frame resolves the image page at (pcid, va) to a backing frame,
	// taking one share reference. local reports that the frame belongs
	// to this guest's own allocator (and must be freed through it when
	// the share ends) rather than to the shared store.
	Frame(pcid uint16, va uint64) (pfn mem.PFN, local bool, err error)
	// Break drops the share reference because a write dissolved it.
	Break(pcid uint16, va uint64)
	// Release drops the share reference because the mapping went away
	// (munmap, address-space teardown) without ever being written.
	Release(pcid uint16, va uint64)
}

// RestoreMode selects how RestoreImageMode materializes resident pages.
type RestoreMode int

const (
	// RestoreEager demand-faults every resident page at restore time.
	RestoreEager RestoreMode = iota
	// RestoreCOW maps every resident page shared read-only through the
	// ForkPages hook; the first write breaks the share.
	RestoreCOW
	// RestoreLazy maps only the prefetch working set (shared read-only)
	// and defers every other resident page to its first touch.
	RestoreLazy
)

// costForkMap is the per-page bookkeeping of a fork-time share mapping:
// digest lookup and reference count, no fill, no fault round trip. The
// PTE store itself is charged by the runtime's mediated write path.
var costForkMap = clock.FromNanos(40)

// forkMapShared maps one resident image page shared read-only from the
// ForkPages hook. Write permission is always withheld so the first
// write takes the share-break path, even on pages the image had dirty.
func (k *Kernel) forkMapShared(as *AddrSpace, mp *pagetable.Mapper, v *VMA, base uint64) error {
	pfn, local, err := k.ForkSrc.Frame(as.PCID, base)
	if err != nil {
		return err
	}
	k.Phase("fork_map", costForkMap)
	if err := mp.Map(base, pfn, protFlags(v.Prot)&^pagetable.FlagWritable, 0); err != nil {
		return fmt.Errorf("guest: fork map: %w", err)
	}
	as.mapped[base] = pfn
	as.shared[base] = local
	return nil
}

// handleShareBreak resolves a write fault on a fork-shared page: the
// share is dissolved and the page becomes a private writable copy.
// Foreign (store-owned) frames are replaced by a freshly allocated
// local frame; local frames just regain write access in place — the
// copy cost is charged either way, because the content materialization
// the fork deferred happens now. Returns false when the fault is not a
// fork share.
func (k *Kernel) handleShareBreak(p *Proc, va uint64) (bool, error) {
	base := va &^ uint64(mem.PageMask)
	local, ok := p.AS.shared[base]
	if !ok {
		return false, nil
	}
	v := p.AS.FindVMA(base)
	if v == nil || v.Prot&ProtWrite == 0 {
		return false, nil // a genuine protection violation
	}
	k.Stats.ShareBreaks++
	mp := k.mapper(p.AS)
	k.charge(costPageCopy)
	if local {
		if err := mp.Protect(base, protFlags(v.Prot), -1); err != nil {
			return false, err
		}
	} else {
		np, err := k.PV.AllocFrame(k)
		if err != nil {
			return false, ENOMEM
		}
		if err := mp.Map(base, np, protFlags(v.Prot), 0); err != nil {
			return false, err
		}
		p.AS.mapped[base] = np
	}
	delete(p.AS.shared, base)
	if k.ForkSrc != nil {
		k.ForkSrc.Break(p.AS.PCID, base)
	}
	k.PV.FlushPage(k, p.AS, base)
	return true, nil
}

// lazyMaterialize services the first touch of a lazily restored page,
// from inside the ordinary demand-fault path. A first *read* joins the
// share (mapped read-only, break deferred to a later write); a first
// *write* would only bounce straight through a break, so it
// materializes a private writable copy directly.
func (k *Kernel) lazyMaterialize(p *Proc, v *VMA, mp *pagetable.Mapper, base uint64, write bool) error {
	delete(p.AS.lazy, base)
	k.Stats.LazyFaults++
	if !write && k.ForkSrc != nil {
		if err := k.forkMapShared(p.AS, mp, v, base); err != nil {
			return ENOMEM
		}
		return nil
	}
	pfn, err := k.PV.AllocFrame(k)
	if err != nil {
		return ENOMEM
	}
	k.charge(costPageCopy)
	if err := mp.Map(base, pfn, protFlags(v.Prot), 0); err != nil {
		return fmt.Errorf("guest: lazy map: %w", err)
	}
	p.AS.mapped[base] = pfn
	return nil
}
