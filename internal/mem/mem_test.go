package mem

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocFree(t *testing.T) {
	m := New(64)
	p, err := m.Alloc(7)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if p == 0 {
		t.Fatal("Alloc returned reserved frame 0")
	}
	if got := m.Owner(p); got != 7 {
		t.Errorf("Owner = %d, want 7", got)
	}
	if !m.Allocated(p) {
		t.Error("Allocated = false after Alloc")
	}
	if err := m.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if m.Allocated(p) {
		t.Error("Allocated = true after Free")
	}
	if err := m.Free(p); err != ErrDoubleFree {
		t.Errorf("double Free err = %v, want ErrDoubleFree", err)
	}
	if err := m.Free(0); err != ErrOutOfRange {
		t.Errorf("Free(0) err = %v, want ErrOutOfRange", err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(8)
	var got []PFN
	for {
		p, err := m.Alloc(1)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("err = %v, want ErrOutOfMemory", err)
			}
			break
		}
		got = append(got, p)
	}
	if len(got) != 7 { // 8 frames minus reserved frame 0
		t.Errorf("allocated %d frames, want 7", len(got))
	}
	seen := map[PFN]bool{}
	for _, p := range got {
		if seen[p] {
			t.Errorf("frame %d allocated twice", p)
		}
		seen[p] = true
	}
}

func TestAllocSegmentContiguity(t *testing.T) {
	m := New(256)
	s1, err := m.AllocSegment(32, 1)
	if err != nil {
		t.Fatalf("AllocSegment: %v", err)
	}
	if s1.Frames != 32 {
		t.Errorf("Frames = %d, want 32", s1.Frames)
	}
	s2, err := m.AllocSegment(16, 2)
	if err != nil {
		t.Fatalf("AllocSegment 2: %v", err)
	}
	if s2.End() != s1.Base {
		t.Errorf("segments not adjacent: s2 ends at %d, s1 starts at %d", s2.End(), s1.Base)
	}
	for p := s1.Base; p < s1.End(); p++ {
		if m.Owner(p) != 1 {
			t.Fatalf("frame %d owner = %d, want 1", p, m.Owner(p))
		}
	}
	if !s1.Contains(s1.Base) || s1.Contains(s1.End()) {
		t.Error("Contains boundary conditions wrong")
	}
}

func TestAllocSegmentTooLarge(t *testing.T) {
	m := New(64)
	if _, err := m.AllocSegment(64, 1); err != ErrFragmented {
		t.Errorf("err = %v, want ErrFragmented", err)
	}
	if _, err := m.AllocSegment(0, 1); err == nil {
		t.Error("AllocSegment(0) succeeded, want error")
	}
}

func TestSegmentsAndFramesDisjoint(t *testing.T) {
	m := New(128)
	seg, err := m.AllocSegment(100, 1)
	if err != nil {
		t.Fatalf("AllocSegment: %v", err)
	}
	for {
		p, err := m.Alloc(2)
		if err != nil {
			break
		}
		if seg.Contains(p) {
			t.Fatalf("single-frame Alloc returned %d inside segment [%d,%d)", p, seg.Base, seg.End())
		}
	}
}

func TestLazyPageContents(t *testing.T) {
	m := New(2) // frame 1 is the only allocatable frame
	p, err := m.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadWord(p.Addr() + 16); got != 0 {
		t.Errorf("fresh frame reads %d, want 0", got)
	}
	m.WriteWord(p.Addr()+16, 0xdeadbeef)
	if got := m.ReadWord(p.Addr() + 16); got != 0xdeadbeef {
		t.Errorf("ReadWord = %#x, want 0xdeadbeef", got)
	}
	// Free drops contents; a re-allocated frame must read zero again.
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := m.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("re-allocation returned frame %d, want %d", q, p)
	}
	if got := m.ReadWord(q.Addr() + 16); got != 0 {
		t.Errorf("recycled frame reads %#x, want 0", got)
	}
}

func TestPFNAddrRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		p := PFN(n)
		return PFNOf(p.Addr()) == p && PFNOf(p.Addr()+PageMask) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: after any interleaving of allocs and frees, InUse equals the
// number of live frames and no frame is handed out twice.
func TestAllocatorInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		m := New(32)
		var live []PFN
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				p, err := m.Alloc(0)
				if err != nil {
					continue
				}
				for _, q := range live {
					if q == p {
						return false
					}
				}
				live = append(live, p)
			} else {
				p := live[len(live)-1]
				live = live[:len(live)-1]
				if m.Free(p) != nil {
					return false
				}
			}
		}
		return m.InUse() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refMem is the map-and-slice physical memory the chunked directory
// replaced: one allocated flag and one owner per frame, contents in a
// map. TestPhysMemMatchesReference holds PhysMem to it.
type refMem struct {
	frames    int
	pages     map[PFN]*Page
	allocated []bool
	owner     []int32
	nextFree  PFN
	segCursor PFN
	inUse     int
}

func newRefMem(frames int) *refMem {
	r := &refMem{
		frames:    frames,
		pages:     make(map[PFN]*Page),
		allocated: make([]bool, frames),
		owner:     make([]int32, frames),
		nextFree:  1,
		segCursor: PFN(frames),
	}
	for i := range r.owner {
		r.owner[i] = NoOwner
	}
	r.allocated[0] = true
	return r
}

func (r *refMem) InUse() int { return r.inUse }

func (r *refMem) Alloc(owner int) (PFN, error) {
	for scanned := 0; scanned < r.frames; scanned++ {
		p := r.nextFree
		r.nextFree++
		if r.nextFree >= PFN(r.frames) {
			r.nextFree = 1
		}
		if p < r.segCursor && !r.allocated[p] {
			r.allocated[p] = true
			r.owner[p] = int32(owner)
			r.inUse++
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

func (r *refMem) AllocSegment(n, owner int) (Segment, error) {
	if n <= 0 {
		return Segment{}, ErrFragmented // PhysMem formats its own error here
	}
	if r.segCursor < PFN(n)+1 {
		return Segment{}, ErrFragmented
	}
	base := r.segCursor - PFN(n)
	for p := base; p < r.segCursor; p++ {
		if r.allocated[p] {
			return Segment{}, ErrFragmented
		}
	}
	for p := base; p < r.segCursor; p++ {
		r.allocated[p] = true
		r.owner[p] = int32(owner)
	}
	r.inUse += n
	r.segCursor = base
	return Segment{Base: base, Frames: n}, nil
}

func (r *refMem) Free(p PFN) error {
	if p == 0 || p >= PFN(r.frames) {
		return ErrOutOfRange
	}
	if !r.allocated[p] {
		return ErrDoubleFree
	}
	r.allocated[p] = false
	r.owner[p] = NoOwner
	delete(r.pages, p)
	r.inUse--
	return nil
}

func (r *refMem) FreeOwned(owner int) int {
	n := 0
	for p := PFN(1); p < PFN(r.frames); p++ {
		if r.allocated[p] && int(r.owner[p]) == owner {
			r.allocated[p] = false
			r.owner[p] = NoOwner
			delete(r.pages, p)
			r.inUse--
			n++
		}
	}
	for r.segCursor < PFN(r.frames) && !r.allocated[r.segCursor] {
		r.segCursor++
	}
	return n
}

func (r *refMem) Owner(p PFN) int {
	if p >= PFN(r.frames) {
		return NoOwner
	}
	return int(r.owner[p])
}

func (r *refMem) Allocated(p PFN) bool { return p < PFN(r.frames) && r.allocated[p] }

func (r *refMem) ReadWord(pa uint64) uint64 {
	if pg := r.pages[PFNOf(pa)]; pg != nil {
		return pg[(pa&PageMask)/8]
	}
	return 0
}

func (r *refMem) WriteWord(pa uint64, v uint64) {
	p := PFNOf(pa)
	if r.pages[p] == nil {
		r.pages[p] = new(Page)
	}
	r.pages[p][(pa&PageMask)/8] = v
}

// physMem is the surface the differential test drives.
type physMem interface {
	Alloc(owner int) (PFN, error)
	AllocSegment(n, owner int) (Segment, error)
	Free(p PFN) error
	FreeOwned(owner int) int
	WriteWord(pa, v uint64)
	ReadWord(pa uint64) uint64
	Owner(p PFN) int
	Allocated(p PFN) bool
	InUse() int
}

// Frame counts for the differential test: the two-frame minimum, and
// sizes one frame past one and two chunks.
var refSizes = []int{2, 3, chunkFrames + 1, 2*chunkFrames + 1}

// errCode folds an allocator error into the operation log.
func errCode(err error) uint64 {
	for i, e := range []error{nil, ErrOutOfMemory, ErrFragmented, ErrDoubleFree, ErrOutOfRange} {
		if err == e {
			return uint64(i)
		}
	}
	return 99
}

// runMemOps applies a seeded random operation sequence to m and logs
// every result, then every frame's final state and every word the run
// wrote. Frees pick from the frames this run allocated, so equal logs
// need equal allocators.
func runMemOps(m physMem, frames int, seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, 0))
	owners := []int{NoOwner, 0, 1, 2, 3}
	segSizes := []int{0, 1, 2, 7, chunkFrames, chunkFrames + 1, frames / 2}
	var live []PFN
	var written, log []uint64
	frame := func() PFN { return PFN(rng.IntN(frames + 2)) }
	for op := 0; op < 300; op++ {
		switch rng.IntN(9) {
		case 0, 1:
			p, err := m.Alloc(owners[rng.IntN(len(owners))])
			if err == nil {
				live = append(live, p)
			}
			log = append(log, uint64(p), errCode(err))
		case 2:
			s, err := m.AllocSegment(segSizes[rng.IntN(len(segSizes))], owners[rng.IntN(len(owners))])
			if err != nil {
				s = Segment{} // PhysMem wraps the bad-size error
			}
			log = append(log, uint64(s.Base), uint64(s.Frames), uint64(min(errCode(err), 2)))
		case 3:
			p := frame()
			if len(live) > 0 && rng.IntN(4) > 0 {
				i := rng.IntN(len(live))
				p = live[i]
				live = append(live[:i], live[i+1:]...)
			}
			log = append(log, errCode(m.Free(p)))
		case 4:
			if rng.IntN(3) == 0 {
				log = append(log, uint64(m.FreeOwned(owners[rng.IntN(len(owners))])))
			}
		case 5:
			if p := frame(); p < PFN(frames) {
				pa := p.Addr() + uint64(rng.IntN(WordsPerPage))*8
				m.WriteWord(pa, rng.Uint64())
				written = append(written, pa)
			}
		case 6:
			if p := frame(); p < PFN(frames) {
				log = append(log, m.ReadWord(p.Addr()+uint64(rng.IntN(WordsPerPage))*8))
			}
		case 7:
			p := frame()
			log = append(log, uint64(m.Owner(p)), b2u(m.Allocated(p)))
		case 8:
			log = append(log, uint64(m.InUse()))
		}
	}
	for p := PFN(0); p < PFN(frames); p++ {
		log = append(log, uint64(m.Owner(p)), b2u(m.Allocated(p)))
	}
	for _, pa := range written {
		log = append(log, m.ReadWord(pa))
	}
	return append(log, uint64(m.InUse()))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestPhysMemMatchesReference(t *testing.T) {
	same := func(seed uint64) bool {
		frames := refSizes[seed%uint64(len(refSizes))]
		m := New(frames)
		if !slices.Equal(runMemOps(m, frames, seed), runMemOps(newRefMem(frames), frames, seed)) {
			return false
		}
		// Frame 0 stays reserved through any sequence, FreeOwned(NoOwner)
		// included.
		m.FreeOwned(NoOwner)
		return m.Allocated(0) && m.Owner(0) == NoOwner && m.Free(0) == ErrOutOfRange
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Freeing a segment owner's frames moves the segment cursor back up
// past them, so the next segment lands at the top of memory again.
func TestSegmentCursorRecovers(t *testing.T) {
	frames := 2*chunkFrames + 1
	m := New(frames)
	if _, err := m.AllocSegment(chunkFrames+1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocSegment(chunkFrames, 6); err != ErrFragmented {
		t.Fatalf("over-full segment err = %v, want ErrFragmented", err)
	}
	if n := m.FreeOwned(5); n != chunkFrames+1 {
		t.Fatalf("FreeOwned = %d, want %d", n, chunkFrames+1)
	}
	s, err := m.AllocSegment(chunkFrames, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s.End() != PFN(frames) {
		t.Errorf("segment ends at %d, want %d", s.End(), frames)
	}
}

// The word accessors are the innermost loop of every page-table walk:
// no allocation once a frame's contents exist, and none to read a frame
// that was never written.
func TestWordAccessAllocs(t *testing.T) {
	m := New(4 * chunkFrames)
	hot := PFN(chunkFrames + 3)
	m.WriteWord(hot.Addr(), 1)
	cold := PFN(3*chunkFrames + 7)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		m.WriteWord(hot.Addr()+8, sink)
		sink += m.ReadWord(hot.Addr() + 8)
		sink += m.Page(hot)[2]
		sink += m.ReadWord(cold.Addr())
	})
	if allocs != 0 {
		t.Errorf("word access allocates %v per run, want 0", allocs)
	}
}

// benchWord keeps the benchmarked reads live.
var benchWord uint64

func BenchmarkReadWord(b *testing.B) {
	m := New(1 << 16)
	for p := PFN(1); p < 1<<16; p += 1 << 10 {
		m.WriteWord(p.Addr(), uint64(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchWord += m.ReadWord(PFN(1+(i%64)<<10).Addr() + uint64(i%WordsPerPage)*8)
	}
}
