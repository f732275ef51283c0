package audit

// Canonical machine fingerprinting for checkpoint/restore verification.
//
// The replay fingerprint of replay.go is exact but machine-bound: it
// hashes raw physical frame numbers and event counts, so a container
// restored on a machine whose allocator is in a different state can
// never match it even when its translations are perfectly equivalent.
// Canon computes the PFN-isomorphic form instead: physical frames are
// renamed by order of first appearance, so two machines whose page
// tables, TLB contents and vCPU registers describe the same mapping
// structure — onto different physical frames — produce the same sum.
//
// The caller (internal/backends) feeds state in a fixed order: per
// vCPU registers first, then per process (ascending PID) the root and
// every leaf mapping in ascending VA order, then the user-range TLB
// slots in the tlb package's canonical slot order. Feeding order is
// part of the fingerprint contract; both sides of a comparison must
// walk identically, which they do because both walks are driven by the
// same sorted logical state.

// Canon accumulates a canonical machine description into an FNV-64a
// sum with first-appearance PFN renaming.
type Canon struct {
	h      uint64
	rename map[uint64]uint64
}

// NewCanon returns an empty accumulator.
func NewCanon() *Canon {
	c := &Canon{}
	c.Reset()
	return c
}

// Reset empties the accumulator for another fingerprint. The rename
// map is cleared, not replaced, so a reused Canon allocates nothing
// once the map has grown to the machine's frame count.
func (c *Canon) Reset() {
	c.h = fnvOffset
	if c.rename == nil {
		c.rename = make(map[uint64]uint64)
	} else {
		clear(c.rename)
	}
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (c *Canon) word(v uint64) {
	for i := 0; i < 8; i++ {
		c.h ^= v & 0xff
		c.h *= fnvPrime
		v >>= 8
	}
}

// pfn renames a physical frame to its first-appearance ordinal.
func (c *Canon) pfn(p uint64) uint64 {
	id, ok := c.rename[p]
	if !ok {
		id = uint64(len(c.rename) + 1)
		c.rename[p] = id
	}
	return id
}

// Record tags, one per fed element kind.
const (
	tagVCPU = iota + 1
	tagRoot
	tagMapping
	tagTLB
)

// VCPU folds one virtual CPU's architectural state: privilege mode,
// active PCID, and the user protection-key rights. (PKRS is excluded
// by design: it is a transient of the KSM call gate, not container
// state — a restored CKI container re-derives it on the next gate
// crossing.)
func (c *Canon) VCPU(id int, pcid uint16, kernelMode bool, pkru uint64) {
	c.word(tagVCPU)
	c.word(uint64(id))
	c.word(uint64(pcid))
	if kernelMode {
		c.word(1)
	} else {
		c.word(0)
	}
	c.word(pkru)
}

// Root folds one address space's top-level table (renamed).
func (c *Canon) Root(pcid uint16, root uint64) {
	c.word(tagRoot)
	c.word(uint64(pcid))
	c.word(c.pfn(root))
}

// Mapping folds one leaf translation: the VA it serves, the renamed
// frame it lands in, and the caller-packed permission/A-D flag word.
func (c *Canon) Mapping(pcid uint16, va, pfn, flags uint64) {
	c.word(tagMapping)
	c.word(uint64(pcid))
	c.word(va)
	c.word(c.pfn(pfn))
	c.word(flags)
}

// TLBSlot folds one cached translation. The cached frame number is
// deliberately not part of the feed: TLB coherence (flush-on-change)
// guarantees a live entry resolves to the currently mapped frame, which
// the Mapping feed already fingerprints — and shadow-paging runtimes
// cache host-space frames whose numbering is machine-bound.
func (c *Canon) TLBSlot(pcid uint16, va, flags uint64) {
	c.word(tagTLB)
	c.word(uint64(pcid))
	c.word(va)
	c.word(flags)
}

// Sum returns the canonical fingerprint.
func (c *Canon) Sum() uint64 { return c.h }
