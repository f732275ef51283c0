package audit

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/clock"
	"repro/internal/inspect"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// The time-travel inspector: machine state at any virtual timestamp is
// a pure fold of the event prefix up to that point. Register state
// comes from the write events; the page-table view is rebuilt from the
// mediated EvPTEWrite readbacks into shadow frames and walked with
// internal/inspect; TLB contents are reconstructed by feeding the
// recorded fill/flush sequence through a real tlb.TLB at the recorded
// capacity, which reproduces FIFO eviction exactly.
//
// Replay invariants (asserted by the internal/backends tests):
//   - ReplayPrefix is a pure fold: applying events[n:m] on top of
//     ReplayPrefix(events, n) equals ReplayPrefix(events, m).
//   - With a recorder attached at container birth (Options.Audit), the
//     reconstructed page table under a guest root is identical to
//     inspect.Walk over live memory, and the reconstructed TLB matches
//     the live TLB entry for entry.
//   - A recorder attached mid-run reconstructs state changes from the
//     attach point only; the TLB and page-table views are then partial.

// VCPUState is the replayed register file of one vCPU.
type VCPUState struct {
	CR0, CR4   uint64
	CR3        uint64 // page-table root PFN
	PCID       uint16
	PKRS, PKRU uint64
	MSRs       map[uint32]uint64
	Faults     uint64 // faults raised on this vCPU so far
	Interrupts uint64 // interrupt deliveries so far
}

// State is machine state reconstructed by folding an event prefix.
type State struct {
	N  int        // events applied
	At clock.Time // timestamp of the last applied event

	vcpus    map[int]*VCPUState
	frames   map[uint64]*mem.Page // shadow page-table frames by PFN
	roots    map[uint64]bool      // frames that took L4-level writes
	tlbs     map[int]*tlb.TLB
	counts   map[Kind]uint64
	injected []Event
}

// NewState returns an empty machine state.
func NewState() *State {
	return &State{
		vcpus:  make(map[int]*VCPUState),
		frames: make(map[uint64]*mem.Page),
		roots:  make(map[uint64]bool),
		tlbs:   make(map[int]*tlb.TLB),
		counts: make(map[Kind]uint64),
	}
}

func (s *State) vcpu(id int) *VCPUState {
	v := s.vcpus[id]
	if v == nil {
		v = &VCPUState{MSRs: make(map[uint32]uint64)}
		s.vcpus[id] = v
	}
	return v
}

func (s *State) frame(pfn uint64) *mem.Page {
	f := s.frames[pfn]
	if f == nil {
		f = new(mem.Page)
		s.frames[pfn] = f
	}
	return f
}

func (s *State) tlbOf(id int) *tlb.TLB {
	t := s.tlbs[id]
	if t == nil {
		t = tlb.New(0)
		s.tlbs[id] = t
	}
	return t
}

// Apply folds one event into the state.
func (s *State) Apply(e Event) {
	s.N++
	s.At = e.At
	s.counts[e.Kind]++
	v := s.vcpu(int(e.VCPU))
	switch e.Kind {
	case EvWriteCR0:
		v.CR0 = e.A
	case EvWriteCR3:
		v.CR3 = e.A
		v.PCID = uint16(e.B)
	case EvWriteCR4:
		v.CR4 = e.A
	case EvWriteMSR:
		v.MSRs[uint32(e.A)] = e.B
	case EvWritePKRS:
		v.PKRS = e.A
	case EvWritePKRU:
		v.PKRU = e.A
	case EvFault:
		v.Faults++
	case EvInterrupt:
		v.Interrupts++
	case EvPTEWrite:
		ptp, idx, level := UnpackPTESlot(e.A)
		s.frame(ptp)[idx] = e.C
		if level == 4 {
			s.roots[ptp] = true
		}
	case EvPTPRetire:
		// The frame may be reallocated later; dropping it keeps the
		// shadow free of stale tables.
		delete(s.frames, e.A)
		delete(s.roots, e.A)
	case EvTLBConfig:
		// A fresh TLB of the recorded capacity (re-emitted when a new
		// machine reuses the vCPU id, which resets the reconstruction).
		s.tlbs[int(e.VCPU)] = tlb.New(int(e.A))
	case EvTLBFill:
		pfn, w, u, nx, g, huge, pkey := UnpackTLBEntry(e.B)
		s.tlbOf(int(e.VCPU)).Insert(e.PCID, e.A, tlb.Entry{
			PFN: mem.PFN(pfn), Writable: w, User: u, NX: nx,
			Global: g, Huge: huge, PKey: pkey,
		})
	case EvTLBFlushPage:
		s.tlbOf(int(e.VCPU)).FlushPage(e.PCID, e.A)
	case EvTLBFlushPCID:
		s.tlbOf(int(e.VCPU)).FlushPCID(uint16(e.A))
	case EvTLBFlushGroup:
		id := e.A
		for _, t := range s.tlbs {
			t.FlushIf(func(pcid uint16) bool { return uint64(pcid>>8) == id })
		}
	case EvTLBFlushAll:
		s.tlbOf(int(e.VCPU)).FlushAll(e.A != 0)
	case EvInjected:
		s.injected = append(s.injected, e)
	}
}

// ReplayPrefix folds the first n events (all of them if n exceeds the
// log) and returns the resulting machine state.
func ReplayPrefix(events []Event, n int) *State {
	if n > len(events) {
		n = len(events)
	}
	s := NewState()
	for _, e := range events[:n] {
		s.Apply(e)
	}
	return s
}

// ReplayUntil folds every event stamped at or before t, in log order —
// the time-travel inspector behind ckireplay -at.
func ReplayUntil(events []Event, t clock.Time) *State {
	s := NewState()
	for _, e := range events {
		if e.At <= t {
			s.Apply(e)
		}
	}
	return s
}

// VCPUIDs returns the vCPUs seen so far, sorted.
func (s *State) VCPUIDs() []int {
	ids := make([]int, 0, len(s.vcpus))
	for id := range s.vcpus {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// VCPU returns the replayed register file of one vCPU (nil if the
// prefix never touched it).
func (s *State) VCPU(id int) *VCPUState { return s.vcpus[id] }

// TLBEntries returns the reconstructed TLB contents of one vCPU.
func (s *State) TLBEntries(id int) []tlb.Slot {
	t := s.tlbs[id]
	if t == nil {
		return nil
	}
	return t.Entries()
}

// Counts returns how many events of each kind the prefix contained.
func (s *State) Counts() map[Kind]uint64 {
	out := make(map[Kind]uint64, len(s.counts))
	for k, n := range s.counts {
		out[k] = n
	}
	return out
}

// scratch materializes the shadow page-table frames into a sparse
// physical memory large enough for inspect to walk.
func (s *State) scratch() *mem.PhysMem {
	max := uint64(1)
	for pfn, fr := range s.frames {
		if pfn > max {
			max = pfn
		}
		for _, w := range fr {
			p := pagetable.PTE(w)
			if p.Present() && uint64(p.PFN()) > max {
				max = uint64(p.PFN())
			}
		}
	}
	m := mem.New(int(max) + 2)
	for pfn, fr := range s.frames {
		*m.Page(mem.PFN(pfn)) = *fr
	}
	return m
}

// Regions walks the reconstructed page table under root, coalescing
// identically-mapped runs exactly like inspect.Walk over live memory.
func (s *State) Regions(root uint64) []inspect.Region {
	return inspect.Walk(s.scratch(), mem.PFN(root))
}

// RenderPT renders the reconstructed address space under root.
func (s *State) RenderPT(root uint64) string {
	return inspect.Render(s.scratch(), mem.PFN(root))
}

// Dump renders the full state canonically (every field in a fixed
// order), so two equal states produce identical strings.
func (s *State) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d at=%dps\n", s.N, int64(s.At))
	for _, id := range s.VCPUIDs() {
		v := s.vcpus[id]
		fmt.Fprintf(&b, "vcpu%d cr0=%#x cr3=%#x cr4=%#x pcid=%#x pkrs=%#x pkru=%#x faults=%d interrupts=%d\n",
			id, v.CR0, v.CR3, v.CR4, v.PCID, v.PKRS, v.PKRU, v.Faults, v.Interrupts)
		msrs := make([]int, 0, len(v.MSRs))
		for m := range v.MSRs {
			msrs = append(msrs, int(m))
		}
		sort.Ints(msrs)
		for _, m := range msrs {
			fmt.Fprintf(&b, "  msr %#x = %#x\n", m, v.MSRs[uint32(m)])
		}
	}
	pfns := make([]uint64, 0, len(s.frames))
	for pfn := range s.frames {
		pfns = append(pfns, pfn)
	}
	sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
	for _, pfn := range pfns {
		h := fnv.New64a()
		for _, w := range s.frames[pfn] {
			var wb [8]byte
			for i := 0; i < 8; i++ {
				wb[i] = byte(w >> (8 * i))
			}
			h.Write(wb[:])
		}
		fmt.Fprintf(&b, "ptp %#x hash=%016x\n", pfn, h.Sum64())
	}
	for _, id := range s.tlbIDs() {
		slots := s.tlbs[id].Entries()
		fmt.Fprintf(&b, "tlb vcpu%d cap=%d entries=%d\n", id, s.tlbs[id].Capacity(), len(slots))
		for _, sl := range slots {
			fmt.Fprintf(&b, "  pcid=%#04x vpn=%#x huge=%t pfn=%#x w=%t u=%t nx=%t g=%t pkey=%d\n",
				sl.PCID, sl.VPN, sl.Huge, uint64(sl.Entry.PFN), sl.Entry.Writable,
				sl.Entry.User, sl.Entry.NX, sl.Entry.Global, sl.Entry.PKey)
		}
	}
	for k := Kind(0); int(k) < NumKinds; k++ {
		if n := s.counts[k]; n > 0 {
			fmt.Fprintf(&b, "count %s=%d\n", k, n)
		}
	}
	fmt.Fprintf(&b, "injected=%d\n", len(s.injected))
	return b.String()
}

// Fingerprint is a stable hash of Dump, for state-equality assertions.
func (s *State) Fingerprint() string {
	h := fnv.New64a()
	h.Write([]byte(s.Dump()))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *State) tlbIDs() []int {
	ids := make([]int, 0, len(s.tlbs))
	for id := range s.tlbs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Render is the human-readable inspector view (ckireplay -at): the
// register files, the reconstructed address spaces, and the TLBs.
func (s *State) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state after %d events, t=%s\n", s.N, fmtPs(s.At))
	// Walk both the CR3-loaded roots and the guest-owned trees (frames
	// that took L4 writes): mediating runtimes like CKI load a KSM top
	// copy into CR3, so the guest's own root never appears in a CR3
	// write even though its tree replays fully.
	roots := make(map[uint64]bool)
	for r := range s.roots {
		roots[r] = true
	}
	for _, id := range s.VCPUIDs() {
		v := s.vcpus[id]
		fmt.Fprintf(&b, "vcpu%d: cr3=%#x pcid=%#x cr0=%#x cr4=%#x pkrs=%#06x pkru=%#06x faults=%d interrupts=%d\n",
			id, v.CR3, v.PCID, v.CR0, v.CR4, v.PKRS, v.PKRU, v.Faults, v.Interrupts)
		if v.CR3 != 0 {
			roots[v.CR3] = true
		}
	}
	if len(s.injected) > 0 {
		fmt.Fprintf(&b, "injected faults: %d (last: %s)\n",
			len(s.injected), s.injected[len(s.injected)-1].Detail())
	}
	sorted := make([]uint64, 0, len(roots))
	for r := range roots {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, root := range sorted {
		fmt.Fprintf(&b, "address space @ root %#x (replayed):\n", root)
		b.WriteString(s.RenderPT(root))
	}
	const maxShow = 24
	for _, id := range s.tlbIDs() {
		slots := s.tlbs[id].Entries()
		fmt.Fprintf(&b, "tlb vcpu%d: %d entries (cap %d)\n", id, len(slots), s.tlbs[id].Capacity())
		for i, sl := range slots {
			if i == maxShow {
				fmt.Fprintf(&b, "  ... %d more\n", len(slots)-maxShow)
				break
			}
			kind := "4K"
			if sl.Huge {
				kind = "2M"
			}
			fmt.Fprintf(&b, "  pcid=%#04x vpn=%#x %s -> pfn=%#x\n",
				sl.PCID, sl.VPN, kind, uint64(sl.Entry.PFN))
		}
	}
	return b.String()
}

func fmtPs(t clock.Time) string {
	return fmt.Sprintf("%dps (%.3fus)", int64(t), float64(t)/1e6)
}
