package backends

// Fork-from-snapshot orchestration: boot a *new* container from an
// existing snapshot without paying the eager per-page restore. Resident
// pages are mapped copy-on-write from a content-addressed page store
// shared by every fork of the machine (snapshot.PageStore); lazy mode
// defers even that mapping to first touch, materializing only the
// snapshot's warm-TLB working set up front.
//
// A fork is not a restore: the new container gets its own ID, so every
// PCID in the image and the warm-TLB tags is rewritten into the new
// container's PCID group, and the snapshot's fingerprint check does not
// apply (it binds the *original* identity; see TestForkFingerprint for
// the invariant that does hold — after touching every page in, a fork
// is canonically identical to an eager restore).
//
// Runtime split: RunC and gVisor run guest memory directly over host
// memory with no mediated ownership validation, so their forks map the
// store's master frames in place (true physical sharing). HVM and PVM
// address a private guest physical space, and CKI's KSM rejects any
// leaf mapping a frame the container does not own — those runtimes back
// each shared page with a container-local frame and the store tracks
// the sharing model-level, the same way the KSM's top-copy machinery
// re-materializes logically shared state into container-owned frames.
// CKI additionally wraps the whole mapping storm in one gate batch
// (cki.Gate.Batch): a fork pays the wrpkrs entry/exit legs once, not
// once per PTE store, keeping its kernel cost near a single top-PTP
// copy.

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// forkPages backs guest fork shares with the machine's page store.
type forkPages struct {
	c     *Container
	store *snapshot.PageStore
	// digests is the snapshot's digest index, shared by every fork of
	// it; it resolves the fork's rewritten PCIDs by ASID.
	digests *snapshot.DigestIndex
	// local: shared pages are backed by container-owned frames rather
	// than the store's masters (HVM/PVM private guest memory, CKI
	// ownership validation).
	local bool
}

func (fp *forkPages) Frame(pcid uint16, va uint64) (mem.PFN, bool, error) {
	digest, ok := fp.digests.Digest(pcid, va)
	if !ok {
		return 0, false, fmt.Errorf("backends: fork share for unknown page pcid %#x va %#x", pcid, va)
	}
	// The store reference is taken either way — it is the sharing
	// ledger, and the master payload is what a local frame would be
	// re-materialized from on a break.
	master, err := fp.store.Intern(digest)
	if err != nil {
		return 0, false, err
	}
	if !fp.local {
		return master, false, nil
	}
	pfn, err := fp.c.K.PV.AllocFrame(fp.c.K)
	if err != nil {
		fp.store.Release(digest)
		return 0, false, err
	}
	return pfn, true, nil
}

func (fp *forkPages) Break(pcid uint16, va uint64) {
	if digest, ok := fp.digests.Digest(pcid, va); ok {
		fp.store.Break(digest)
	}
}

func (fp *forkPages) Release(pcid uint16, va uint64) {
	if digest, ok := fp.digests.Digest(pcid, va); ok {
		fp.store.Release(digest)
	}
}

// forkPCID moves a PCID into newID's PCID group, keeping its ASID.
func forkPCID(pcid uint16, newID int) uint16 {
	return uint16(newID<<8) | pcid&0xff
}

// rewriteForFork clones the snapshot's image and vCPU state under the
// fork's identity: container ID and every PCID (process address spaces
// and warm-TLB tags) move into newID's group. Page payloads, files and
// descriptors are shared with the source snapshot — the image is only
// read during restore.
func rewriteForFork(snap *snapshot.Snapshot, newID int) (*guest.Image, []snapshot.VCPUImage) {
	img := snap.Image
	img.ContainerID = newID
	img.Procs = append([]guest.ProcImage(nil), snap.Image.Procs...)
	for i := range img.Procs {
		if !img.Procs[i].Exited {
			img.Procs[i].PCID = forkPCID(img.Procs[i].PCID, newID)
		}
	}
	vcpus := append([]snapshot.VCPUImage(nil), snap.VCPUs...)
	for i := range vcpus {
		vcpus[i].PCID = forkPCID(vcpus[i].PCID, newID)
		vcpus[i].TLB = append([]snapshot.TLBSlotImage(nil), vcpus[i].TLB...)
		for j := range vcpus[i].TLB {
			vcpus[i].TLB[j].PCID = forkPCID(vcpus[i].TLB[j].PCID, newID)
		}
	}
	return &img, vcpus
}

// prefetchSet collects the page-aligned user VAs of the snapshot's
// warm-TLB tags: the working set the lazy fork materializes up front.
// (The warm-TLB refill translates exactly these VAs, so the set is also
// the minimum residency a lazy fork needs to finish booting.)
func prefetchSet(vcpus []snapshot.VCPUImage) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for i := range vcpus {
		for _, s := range vcpus[i].TLB {
			out[s.VA&^uint64(mem.PageMask)] = struct{}{}
		}
	}
	return out
}

// ForkFromSnapshot boots container newID on machine m from snap under
// page policy mode: RestoreCOW shares every resident page through
// store, RestoreLazy maps only the snapshot's warm-TLB working set and
// defers the rest to first touch, RestoreEager replays every page. idx
// is snap's digest index (snapshot.NewDigestIndex), built once for
// every fork of snap; RestoreEager reads neither idx nor store. The
// store must belong to m and newID must not collide with a live
// container. Only an eager fork at snap's own ID (a Restore) is
// fingerprint-checked; once fully touched in, any fork equals an eager
// restore up to its warm TLB (TestForkFingerprintMatchesEagerRestore).
func ForkFromSnapshot(m *Machine, snap *snapshot.Snapshot, idx *snapshot.DigestIndex, store *snapshot.PageStore, newID int, mode guest.RestoreMode) (*Container, error) {
	return instantiate(m, snap, newID, mode, idx, store, nil)
}

// Discard tears down a forked (or restored) container on machine m:
// live address spaces are destroyed through the guest — which returns
// every outstanding fork-share reference to the page store — then the
// container is reclaimed (Machine.reclaim). Store master frames carry
// StoreOwner, so the reclaim can never free a page still shared by
// sibling forks.
func Discard(m *Machine, c *Container) error {
	c.CPU.SetMode(hw.ModeKernel)
	if f := c.CPU.Wrpkrs(0); f != nil {
		return fmt.Errorf("backends: discard pkrs: %v", f)
	}
	k := c.K
	for _, pid := range k.PIDs() {
		p := k.Proc(pid)
		if p.Exited || p.AS == nil {
			continue
		}
		if err := k.DestroyAddrSpace(p.AS); err != nil {
			return fmt.Errorf("backends: discard pid %d: %w", pid, err)
		}
	}
	m.reclaim(c.Kind, k.ContainerID)
	return nil
}
