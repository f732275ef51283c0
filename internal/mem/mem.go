// Package mem models the physical memory of the simulated machine.
//
// Physical memory is an array of 4 KiB frames. Frame contents (512
// 64-bit words) are allocated lazily, so a simulated machine can expose
// many gigabytes of physical address space while only frames that are
// actually written — page tables, file data, device rings — consume host
// memory. Workload data pages that are merely touched never materialize.
//
// Two allocators are provided, mirroring the paper's memory-provisioning
// split: a free-list frame allocator used by kernels for page tables and
// kernel objects, and a contiguous segment allocator used by the CKI host
// kernel to delegate physical-address ranges to guest kernels (§3.3:
// "The host kernel provides each guest VM with some contiguous segments
// of hPA that are directly managed by the memory manager in the guest").
package mem

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
)

// Page geometry of the simulated machine (x86-64, 4-level paging).
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1
	// WordsPerPage is the number of 64-bit words in one frame; a
	// page-table page holds this many entries.
	WordsPerPage = PageSize / 8 // 512
	// HugePageSize is the 2 MiB mapping granule used by the hugepage
	// experiments (Fig. 12 "2M" bars, Table 4).
	HugePageSize = 2 << 20
)

// PFN is a physical frame number.
type PFN uint64

// Addr returns the physical byte address of the start of the frame.
func (p PFN) Addr() uint64 { return uint64(p) << PageShift }

// PFNOf returns the frame containing physical address pa.
func PFNOf(pa uint64) PFN { return PFN(pa >> PageShift) }

// NoOwner marks an unowned frame.
const NoOwner = -1

// Page is the lazily-materialized contents of one frame.
type Page [WordsPerPage]uint64

// Segment is a contiguous physical range delegated to one guest kernel.
type Segment struct {
	Base   PFN
	Frames int
}

// Contains reports whether pfn falls inside the segment.
func (s Segment) Contains(pfn PFN) bool {
	return pfn >= s.Base && pfn < s.Base+PFN(s.Frames)
}

// End returns the first frame past the segment.
func (s Segment) End() PFN { return s.Base + PFN(s.Frames) }

// Errors returned by the allocators.
var (
	ErrOutOfMemory  = errors.New("mem: out of physical memory")
	ErrFragmented   = errors.New("mem: no contiguous run large enough")
	ErrDoubleFree   = errors.New("mem: frame already free")
	ErrOutOfRange   = errors.New("mem: frame out of range")
	ErrNotAllocated = errors.New("mem: frame not allocated")
)

// Frames are tracked in chunks of chunkFrames consecutive frames, found
// by indexing a directory with PFN >> chunkShift. A chunk is allocated
// the first time any of its frames is allocated or written, so New
// costs one directory slice however many frames the machine has.
const (
	chunkShift  = 11
	chunkFrames = 1 << chunkShift
	chunkMask   = chunkFrames - 1
)

// chunk holds the allocation state and the contents of chunkFrames
// frames. A frame's tag encodes allocation and ownership in one word
// whose zero value means free: 0 is free, owner+2 is allocated to
// owner, so an allocation for NoOwner is tagged 1.
type chunk struct {
	tag   [chunkFrames]int32
	pages [chunkFrames]*Page
}

// tagOf encodes owner as an allocated frame's tag. Owners are NoOwner
// or non-negative and fit in an int32.
func tagOf(owner int) int32 {
	if owner < NoOwner || owner > math.MaxInt32-2 {
		panic(fmt.Sprintf("mem: owner %d out of range", owner))
	}
	return int32(owner + 2)
}

// PhysMem is the physical memory of one simulated machine. It is not
// safe for concurrent use; the simulator is single-threaded per machine.
type PhysMem struct {
	frames int
	dir    []*chunk
	// nextFree is a rotating scan cursor for single-frame allocation.
	nextFree PFN
	// segCursor is a bump cursor for contiguous segment allocation; the
	// segment region grows from the top of memory downward so single
	// frames and segments rarely collide.
	segCursor PFN
	inUse     int

	// Inj, when non-nil, can fail single-frame allocations
	// (faults.HostAlloc) — machine-wide memory pressure.
	Inj faults.Injector
}

// New creates a physical memory of the given number of 4 KiB frames.
// Frame 0 is reserved (a zero PFN in a PTE means "not present" in the
// paging model), matching real kernels that avoid handing out page 0.
func New(frames int) *PhysMem {
	if frames < 2 {
		panic("mem: need at least 2 frames")
	}
	m := &PhysMem{
		frames:    frames,
		dir:       make([]*chunk, (frames+chunkMask)>>chunkShift),
		nextFree:  1,
		segCursor: PFN(frames),
	}
	m.chunk(0).tag[0] = tagOf(NoOwner) // reserve frame 0
	return m
}

// chunk returns the chunk holding frame p, allocating it on first use.
func (m *PhysMem) chunk(p PFN) *chunk {
	c := m.dir[p>>chunkShift]
	if c == nil {
		c = new(chunk)
		m.dir[p>>chunkShift] = c
	}
	return c
}

// tag returns frame p's tag; p must be in range.
func (m *PhysMem) tag(p PFN) int32 {
	if c := m.dir[p>>chunkShift]; c != nil {
		return c.tag[p&chunkMask]
	}
	return 0
}

// Frames returns the total number of frames.
func (m *PhysMem) Frames() int { return m.frames }

// InUse returns the number of allocated frames (excluding reserved 0).
func (m *PhysMem) InUse() int { return m.inUse }

// Alloc allocates one frame and assigns it to owner.
func (m *PhysMem) Alloc(owner int) (PFN, error) {
	if m.Inj != nil && m.Inj.Fire(faults.HostAlloc) {
		return 0, ErrOutOfMemory
	}
	t := tagOf(owner)
	for scanned := 0; scanned < m.frames; scanned++ {
		p := m.nextFree
		m.nextFree++
		if m.nextFree >= PFN(m.frames) {
			m.nextFree = 1
		}
		if p >= m.segCursor { // inside the segment region
			continue
		}
		if m.tag(p) == 0 {
			m.chunk(p).tag[p&chunkMask] = t
			m.inUse++
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

// AllocSegment allocates n physically contiguous frames for owner. CKI
// uses this to delegate hPA ranges to guest kernels.
func (m *PhysMem) AllocSegment(n, owner int) (Segment, error) {
	if n <= 0 {
		return Segment{}, fmt.Errorf("mem: bad segment size %d", n)
	}
	if m.segCursor < PFN(n)+1 {
		return Segment{}, ErrFragmented
	}
	t := tagOf(owner)
	base := m.segCursor - PFN(n)
	// The run just below segCursor is free unless Alloc's rotating
	// cursor handed out a frame there while FreeOwned had moved
	// segCursor back up; then the segment takes the highest free run
	// below that frame.
	for p := base; p < m.segCursor; p++ {
		if m.tag(p) != 0 {
			var ok bool
			if base, ok = m.freeRunBelow(p, n); !ok {
				return Segment{}, ErrFragmented
			}
			break
		}
	}
	for p := base; p < base+PFN(n); p++ {
		m.chunk(p).tag[p&chunkMask] = t
	}
	m.inUse += n
	m.segCursor = base
	return Segment{Base: base, Frames: n}, nil
}

// freeRunBelow returns the base of the highest run of n free frames
// that ends at or below top.
func (m *PhysMem) freeRunBelow(top PFN, n int) (PFN, bool) {
	for base, run := top, 0; base > 1; {
		base--
		if run++; m.tag(base) != 0 {
			run = 0
		} else if run == n {
			return base, true
		}
	}
	return 0, false
}

// Free releases a single frame.
func (m *PhysMem) Free(p PFN) error {
	if p == 0 || p >= PFN(m.frames) {
		return ErrOutOfRange
	}
	c := m.dir[p>>chunkShift]
	if c == nil || c.tag[p&chunkMask] == 0 {
		return ErrDoubleFree
	}
	c.tag[p&chunkMask] = 0
	c.pages[p&chunkMask] = nil
	m.inUse--
	return nil
}

// FreeOwned releases every frame tagged with owner back to the
// allocator — the host reclaiming a dead container's memory before
// booting its replacement. Segment frames freed at the bottom of the
// segment region move segCursor back up, so repeated crash/restart
// cycles do not exhaust the contiguous-delegation space.
func (m *PhysMem) FreeOwned(owner int) int {
	n := 0
	for ci, c := range m.dir {
		if c == nil {
			continue
		}
		for i, t := range c.tag {
			if t == 0 || int(t)-2 != owner || (ci == 0 && i == 0) {
				continue
			}
			c.tag[i] = 0
			c.pages[i] = nil
			m.inUse--
			n++
		}
	}
	for m.segCursor < PFN(m.frames) && m.tag(m.segCursor) == 0 {
		m.segCursor++
	}
	return n
}

// Owner returns the owner tag of a frame, or NoOwner.
func (m *PhysMem) Owner(p PFN) int {
	if p >= PFN(m.frames) {
		return NoOwner
	}
	if t := m.tag(p); t != 0 {
		return int(t) - 2
	}
	return NoOwner
}

// Allocated reports whether frame p is currently allocated.
func (m *PhysMem) Allocated(p PFN) bool {
	return p < PFN(m.frames) && m.tag(p) != 0
}

// Page returns the backing contents of frame p, materializing them on
// first use. Reading a never-written frame observes zeros, like real
// zeroed physical memory.
func (m *PhysMem) Page(p PFN) *Page {
	if p >= PFN(m.frames) {
		panic(fmt.Sprintf("mem: PFN %#x out of range", uint64(p)))
	}
	c := m.chunk(p)
	pg := c.pages[p&chunkMask]
	if pg == nil {
		pg = new(Page)
		c.pages[p&chunkMask] = pg
	}
	return pg
}

// ReadWord reads the 64-bit word at physical address pa (must be 8-byte
// aligned).
func (m *PhysMem) ReadWord(pa uint64) uint64 {
	pfn := PFNOf(pa)
	if pfn >= PFN(m.frames) {
		panic(fmt.Sprintf("mem: physical read at %#x out of range", pa))
	}
	c := m.dir[pfn>>chunkShift]
	if c == nil {
		return 0
	}
	pg := c.pages[pfn&chunkMask]
	if pg == nil {
		return 0
	}
	return pg[(pa&PageMask)/8]
}

// WriteWord writes the 64-bit word at physical address pa.
func (m *PhysMem) WriteWord(pa uint64, v uint64) {
	m.Page(PFNOf(pa))[(pa&PageMask)/8] = v
}
