package snapshot

// The content-addressed page store: the sharing half of the
// fork-from-snapshot fast path. Restoring a CKISNAP1 image eagerly
// copies every resident page; forking N containers from the same image
// would copy the same bytes N times. The store instead interns each
// distinct page payload — keyed by its FNV-64a digest — as one master
// frame owned by the store itself (StoreOwner), and forks map those
// masters shared-read-only until a write breaks the share. Anonymous
// pages in this machine model are always zero-filled, so every
// anonymous resident page of every fork dedups to a single master; file
// -backed pages dedup per distinct file content window.
//
// Master frames are reference-counted, not per-container: a fork's
// teardown (supervisor restart, fleet eviction) releases its
// references, and the frame itself is reclaimed only when the last
// sibling lets go. Because the masters carry StoreOwner rather than any
// container ID, PhysMem.FreeOwned(containerID) can never reclaim a
// frame still shared by siblings — the invariant the fork-lineage
// teardown tests pin.

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/mem"
)

// StoreOwner tags master frames in mem ownership space. It is disjoint
// from container IDs (small positive integers) and from KSM owners
// (cki.KSMOwner, based at 1<<20).
const StoreOwner = 1 << 21

// PageKey identifies one resident page of an image by its address
// space (the per-proc PCID) and virtual address.
type PageKey struct {
	PCID uint16
	VA   uint64
}

// masterPage is one interned page payload.
type masterPage struct {
	pfn  mem.PFN
	refs int
}

// StoreStats is the store's sharing accounting at one instant, plus
// the cumulative break counter.
type StoreStats struct {
	// UniquePages/UniqueBytes count live master frames — the memory the
	// fork fleet actually spends on shared payloads.
	UniquePages int
	UniqueBytes uint64
	// SharedRefs/SharedBytes count references beyond each master's
	// first — the memory sharing avoided allocating.
	SharedRefs  int
	SharedBytes uint64
	// Breaks counts COW breaks: shares dissolved by a first write.
	Breaks uint64
}

// PageStore deduplicates snapshot page payloads across forks of one
// machine. It is bound to that machine's host memory; masters live
// there under StoreOwner.
type PageStore struct {
	mem   *mem.PhysMem
	pages map[uint64]*masterPage
	stats StoreStats
}

// NewPageStore creates an empty store over the machine's host memory.
func NewPageStore(m *mem.PhysMem) *PageStore {
	return &PageStore{mem: m, pages: make(map[uint64]*masterPage)}
}

// Intern returns the master frame for digest, allocating one under
// StoreOwner on first sight. Every call holds one reference; pair it
// with Release (share dissolved without a write) or Break (share
// dissolved by a write).
func (ps *PageStore) Intern(digest uint64) (mem.PFN, error) {
	if p, ok := ps.pages[digest]; ok {
		p.refs++
		ps.stats.SharedRefs++
		ps.stats.SharedBytes += mem.PageSize
		return p.pfn, nil
	}
	pfn, err := ps.mem.Alloc(StoreOwner)
	if err != nil {
		return 0, err
	}
	ps.pages[digest] = &masterPage{pfn: pfn, refs: 1}
	ps.stats.UniquePages++
	ps.stats.UniqueBytes += mem.PageSize
	return pfn, nil
}

// Lookup returns the interned master frame for digest without touching
// reference counts. It allocates nothing (a wallclock gate pins this).
func (ps *PageStore) Lookup(digest uint64) (mem.PFN, bool) {
	p, ok := ps.pages[digest]
	if !ok {
		return 0, false
	}
	return p.pfn, true
}

// Release drops one reference to digest's master; the frame is freed
// back to host memory when the last reference goes.
func (ps *PageStore) Release(digest uint64) error {
	p, ok := ps.pages[digest]
	if !ok {
		return fmt.Errorf("snapshot: release of un-interned digest %#016x", digest)
	}
	p.refs--
	if p.refs > 0 {
		ps.stats.SharedRefs--
		ps.stats.SharedBytes -= mem.PageSize
		return nil
	}
	delete(ps.pages, digest)
	ps.stats.UniquePages--
	ps.stats.UniqueBytes -= mem.PageSize
	return ps.mem.Free(p.pfn)
}

// Break records a COW break — the forked container wrote the page and
// now holds a private copy — and drops the share's reference.
func (ps *PageStore) Break(digest uint64) error {
	ps.stats.Breaks++
	return ps.Release(digest)
}

// Refs reports the live reference count of digest's master (0 when not
// interned); tests use it to pin sibling-sharing accounting.
func (ps *PageStore) Refs(digest uint64) int {
	if p, ok := ps.pages[digest]; ok {
		return p.refs
	}
	return 0
}

// Stats returns the sharing accounting.
func (ps *PageStore) Stats() StoreStats { return ps.stats }

// zeroPageDigest is the FNV-64a of one all-zero 4 KiB page — the
// digest of every anonymous resident page in this machine model.
var zeroPageDigest = filePageDigest(nil, 0)

// filePageDigest hashes the 4 KiB window of data at off, zero-padded
// past the end of the file — exactly the payload a demand fault would
// observe. A zero byte leaves FNV-64a's xor step unchanged, so the
// padding costs the multiply alone.
func filePageDigest(data []byte, off uint64) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	n := 0
	if off < uint64(len(data)) {
		for _, b := range data[off:min(off+mem.PageSize, uint64(len(data)))] {
			h ^= uint64(b)
			h *= prime
			n++
		}
	}
	for ; n < mem.PageSize; n++ {
		h *= prime
	}
	return h
}

// PageDigest returns the content digest of the resident page at va in
// proc pi of img: the backing file window for a file-backed VMA, the
// zero page for anonymous memory and for a file the image does not
// carry.
func PageDigest(img *guest.Image, pi *guest.ProcImage, va uint64) uint64 {
	for i := range pi.VMAs {
		v := &pi.VMAs[i]
		if va < v.Start || va >= v.End {
			continue
		}
		if !v.HasFile {
			return zeroPageDigest
		}
		for j := range img.Files {
			if img.Files[j].Path == v.Path {
				return filePageDigest(img.Files[j].Data, v.Off+(va-v.Start))
			}
		}
		return zeroPageDigest
	}
	return zeroPageDigest
}

// ImageDigests digests every resident page of the image, keyed by
// (PCID, VA). It is the reference DigestIndex is checked against: it
// hashes the whole image on every call, so forks use a DigestIndex.
func ImageDigests(img *guest.Image) map[PageKey]uint64 {
	out := make(map[PageKey]uint64)
	for i := range img.Procs {
		p := &img.Procs[i]
		for _, pg := range p.Resident {
			out[PageKey{PCID: p.PCID, VA: pg.VA}] = PageDigest(img, p, pg.VA)
		}
	}
	return out
}

// DigestIndex maps every resident page of one snapshot to its content
// digest: the index a fork's share hooks resolve against. The image
// never changes after capture, so the index is built once per snapshot
// and is immutable afterwards; every fork of the snapshot, concurrent
// ones included, reads the same index.
//
// Keys are (ASID, VA), the ASID being a PCID's low 8 bits. A fork moves
// each PCID into its own container's group but keeps the ASID, so the
// fork's container ID never enters a lookup. Within one image the ASID
// is as unique as the PCID: every live address space of a container
// shares the container's group.
type DigestIndex struct {
	snap    *Snapshot
	digests map[asidPage]uint64
}

type asidPage struct {
	va   uint64
	asid uint8
}

// NewDigestIndex digests every resident page of snap once.
func NewDigestIndex(snap *Snapshot) *DigestIndex {
	img := &snap.Image
	ix := &DigestIndex{snap: snap, digests: make(map[asidPage]uint64, img.ResidentPages())}
	for i := range img.Procs {
		p := &img.Procs[i]
		for _, pg := range p.Resident {
			ix.digests[asidPage{va: pg.VA, asid: uint8(p.PCID)}] = PageDigest(img, p, pg.VA)
		}
	}
	return ix
}

// Of reports whether the index was built from snap.
func (ix *DigestIndex) Of(snap *Snapshot) bool { return ix.snap == snap }

// Digest returns the digest of the resident page at va of the address
// space tagged pcid, in the snapshot's PCID group or any fork's.
func (ix *DigestIndex) Digest(pcid uint16, va uint64) (uint64, bool) {
	d, ok := ix.digests[asidPage{va: va, asid: uint8(pcid)}]
	return d, ok
}
