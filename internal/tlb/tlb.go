// Package tlb models a PCID-tagged translation lookaside buffer.
//
// The TLB caches completed walks keyed by (PCID, virtual page number).
// It is the mechanism behind two of the paper's experiments: the PCID
// isolation that keeps a malicious guest's invlpg from flushing other
// containers' entries (§4.1), and the one- vs two-dimensional walk cost
// gap measured by the TLB-miss-intensive applications of Table 4.
//
// Internally the TLB is index-backed: entries live in per-PCID maps
// (so a single-context flush touches only that context's entries, not
// the whole structure), and FIFO replacement runs over a ring buffer
// whose slots are validated against the entry's stored slot index —
// a flushed entry simply leaves a tombstone that the eviction hand
// skips in O(1) amortized time. Every operation is O(1) amortized in
// the TLB capacity; stale ring slots are compacted away once they
// outnumber the capacity, so memory stays bounded even under
// flush-heavy workloads that never trigger eviction.
package tlb

import (
	"cmp"
	"slices"

	"repro/internal/mem"
)

// Entry is a cached translation.
type Entry struct {
	PFN      mem.PFN // frame of the 4 KiB page containing the VA
	Writable bool
	User     bool
	NX       bool
	Global   bool
	Huge     bool
	PKey     int
}

// Stats counts TLB events.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Flushes uint64
	Evicts  uint64
}

// PCIDStat is the per-context slice of the hit/miss counters. The
// high byte of a guest PCID encodes the container, so these rows let
// the metrics registry attribute TLB behaviour per container context.
type PCIDStat struct {
	PCID   uint16
	Hits   uint64
	Misses uint64
}

// tagged is one cached translation plus the virtual index of the FIFO
// ring slot that owns it. A ring slot is live iff the entry it names
// still exists and still points back at it; anything else is a
// tombstone the eviction hand discards.
type tagged struct {
	e    Entry
	slot uint64
}

// space holds one PCID's translations, keyed by virtual page number
// (bit 63 tags 2 MiB entries, exactly as the flat map used to).
type space struct {
	pcid    uint16
	entries map[uint64]tagged
}

// ringKey names an insertion in the FIFO ring.
type ringKey struct {
	pcid uint16
	vpn  uint64
}

// TLB is a finite, PCID-tagged TLB with FIFO replacement. The zero
// value is unusable; use New.
type TLB struct {
	capacity int
	n        int // live entries across all spaces
	spaces   map[uint16]*space
	cur      *space // last-touched space (the common consecutive-access fast path)

	// ring is the FIFO insertion order. head/tail are virtual indices
	// (physical slot = index & (len(ring)-1)); stale counts tombstoned
	// slots still in [head, tail).
	ring       []ringKey
	head, tail uint64
	stale      int

	stats   Stats
	perPCID map[uint16]*PCIDStat
	curStat *PCIDStat // last-touched per-PCID row
}

// DefaultCapacity approximates a modern L2 STLB (entries).
const DefaultCapacity = 2048

// New creates a TLB with the given entry capacity (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	ringSize := 8
	for ringSize < capacity {
		ringSize <<= 1
	}
	return &TLB{
		capacity: capacity,
		spaces:   make(map[uint16]*space),
		ring:     make([]ringKey, ringSize),
		perPCID:  make(map[uint16]*PCIDStat),
	}
}

// Stats returns a copy of the event counters.
func (t *TLB) Stats() Stats { return t.stats }

func (t *TLB) pcidStat(pcid uint16) *PCIDStat {
	if st := t.curStat; st != nil && st.PCID == pcid {
		return st
	}
	if t.perPCID == nil {
		t.perPCID = make(map[uint16]*PCIDStat)
	}
	st, ok := t.perPCID[pcid]
	if !ok {
		st = &PCIDStat{PCID: pcid}
		t.perPCID[pcid] = st
	}
	t.curStat = st
	return st
}

// PCIDStats returns the per-context counters, sorted by PCID so output
// built from them is deterministic.
func (t *TLB) PCIDStats() []PCIDStat {
	out := make([]PCIDStat, 0, len(t.perPCID))
	for _, st := range t.perPCID {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b PCIDStat) int { return cmp.Compare(a.PCID, b.PCID) })
	return out
}

func vpn4k(va uint64) uint64 { return va >> mem.PageShift }
func vpn2m(va uint64) uint64 { return va >> 21 }

// space returns the entry map for pcid, or nil (read path).
func (t *TLB) space(pcid uint16) *space {
	if sp := t.cur; sp != nil && sp.pcid == pcid {
		return sp
	}
	sp := t.spaces[pcid]
	if sp != nil {
		t.cur = sp
	}
	return sp
}

// Lookup searches for a translation of va in pcid. Huge (2 MiB) entries
// are checked after 4 KiB ones, as hardware probes both structures.
func (t *TLB) Lookup(pcid uint16, va uint64) (Entry, bool) {
	if sp := t.space(pcid); sp != nil {
		if tg, ok := sp.entries[vpn4k(va)]; ok && !tg.e.Huge {
			t.stats.Hits++
			t.pcidStat(pcid).Hits++
			return tg.e, true
		}
		if tg, ok := sp.entries[vpn2m(va)|1<<63]; ok {
			t.stats.Hits++
			t.pcidStat(pcid).Hits++
			return tg.e, true
		}
	}
	t.stats.Misses++
	t.pcidStat(pcid).Misses++
	return Entry{}, false
}

// push appends k at the ring tail, growing the ring if full.
func (t *TLB) push(k ringKey) {
	if int(t.tail-t.head) == len(t.ring) {
		grown := make([]ringKey, len(t.ring)*2)
		oldMask := uint64(len(t.ring) - 1)
		newMask := uint64(len(grown) - 1)
		for i := t.head; i != t.tail; i++ {
			grown[i&newMask] = t.ring[i&oldMask]
		}
		t.ring = grown
	}
	t.ring[t.tail&uint64(len(t.ring)-1)] = k
	t.tail++
}

// live reports whether virtual ring index idx (holding k) still owns a
// cached entry.
func (t *TLB) live(k ringKey, idx uint64) (*space, bool) {
	sp := t.spaces[k.pcid]
	if sp == nil {
		return nil, false
	}
	tg, ok := sp.entries[k.vpn]
	return sp, ok && tg.slot == idx
}

// compact rewrites the ring keeping only live slots (renumbering the
// entries they own), dropping every tombstone. Called when tombstones
// outnumber the capacity, so its cost amortizes to O(1) per flush.
func (t *TLB) compact() {
	mask := uint64(len(t.ring) - 1)
	w := t.head
	for r := t.head; r != t.tail; r++ {
		k := t.ring[r&mask]
		if sp, ok := t.live(k, r); ok {
			tg := sp.entries[k.vpn]
			tg.slot = w
			sp.entries[k.vpn] = tg
			t.ring[w&mask] = k
			w++
		}
	}
	t.tail = w
	t.stale = 0
}

// Insert caches a completed walk.
func (t *TLB) Insert(pcid uint16, va uint64, e Entry) {
	vpn := vpn4k(va)
	if e.Huge {
		vpn = vpn2m(va) | 1<<63
	}
	sp := t.cur
	if sp == nil || sp.pcid != pcid {
		sp = t.spaces[pcid]
		if sp == nil {
			sp = &space{pcid: pcid, entries: make(map[uint64]tagged, 16)}
			t.spaces[pcid] = sp
		}
		t.cur = sp
	}
	if tg, ok := sp.entries[vpn]; ok {
		// Refresh in place: a re-inserted entry keeps its FIFO position,
		// exactly as the original flat-map implementation did.
		tg.e = e
		sp.entries[vpn] = tg
		return
	}
	mask := uint64(len(t.ring) - 1)
	for t.n >= t.capacity && t.head != t.tail {
		k := t.ring[t.head&mask]
		idx := t.head
		t.head++
		if vsp, ok := t.live(k, idx); ok {
			delete(vsp.entries, k.vpn)
			t.n--
			t.stats.Evicts++
		} else {
			t.stale--
		}
	}
	if t.stale > t.capacity {
		t.compact()
	}
	t.push(ringKey{pcid: pcid, vpn: vpn})
	sp.entries[vpn] = tagged{e: e, slot: t.tail - 1}
	t.n++
}

// FlushPage invalidates the translations of va in pcid (invlpg).
func (t *TLB) FlushPage(pcid uint16, va uint64) {
	if sp := t.space(pcid); sp != nil {
		if _, ok := sp.entries[vpn4k(va)]; ok {
			delete(sp.entries, vpn4k(va))
			t.n--
			t.stale++
		}
		if _, ok := sp.entries[vpn2m(va)|1<<63]; ok {
			delete(sp.entries, vpn2m(va)|1<<63)
			t.n--
			t.stale++
		}
	}
	t.stats.Flushes++
}

// dropSpace tombstones every ring slot sp owns and removes it. The
// ring is untouched: the eviction hand discards the dead slots later.
func (t *TLB) dropSpace(sp *space) {
	t.n -= len(sp.entries)
	t.stale += len(sp.entries)
	delete(t.spaces, sp.pcid)
	if t.cur == sp {
		t.cur = nil
	}
}

// FlushPCID invalidates all entries of one PCID (invpcid single-context,
// or a CR3 load without the no-flush bit). Cost is proportional to the
// flushed context, not to the TLB capacity or total occupancy.
func (t *TLB) FlushPCID(pcid uint16) {
	if sp := t.spaces[pcid]; sp != nil {
		t.dropSpace(sp)
	}
	t.stats.Flushes++
}

// FlushIf invalidates every entry whose PCID satisfies pred. The
// supervisor uses it to scrub all address spaces of one dead container
// (a whole PCID group) without knowing how many ASIDs the guest minted.
// Cost is proportional to the number of live contexts plus the entries
// actually flushed.
func (t *TLB) FlushIf(pred func(pcid uint16) bool) {
	for pcid, sp := range t.spaces {
		if pred(pcid) {
			t.dropSpace(sp)
		}
	}
	t.stats.Flushes++
}

// CountIf reports how many live entries have a PCID satisfying pred
// (tests verify PCID-group flushes with it).
func (t *TLB) CountIf(pred func(pcid uint16) bool) int {
	n := 0
	for pcid, sp := range t.spaces {
		if pred(pcid) {
			n += len(sp.entries)
		}
	}
	return n
}

// FlushAll invalidates everything, optionally keeping global entries.
func (t *TLB) FlushAll(keepGlobal bool) {
	if !keepGlobal {
		// Everything dies, so every ring slot is a tombstone: reset the
		// hand instead of walking it.
		t.spaces = make(map[uint16]*space)
		t.cur = nil
		t.n = 0
		t.head, t.tail, t.stale = 0, 0, 0
		t.stats.Flushes++
		return
	}
	for pcid, sp := range t.spaces {
		for vpn, tg := range sp.entries {
			if tg.e.Global {
				continue
			}
			delete(sp.entries, vpn)
			t.n--
			t.stale++
		}
		if len(sp.entries) == 0 {
			if t.cur == sp {
				t.cur = nil
			}
			delete(t.spaces, pcid)
		}
	}
	t.stats.Flushes++
}

// Len reports the number of live entries (for tests).
func (t *TLB) Len() int { return t.n }

// Capacity returns the configured entry capacity.
func (t *TLB) Capacity() int { return t.capacity }

// Slot is one live entry with its tag, for deterministic enumeration.
type Slot struct {
	PCID  uint16
	VPN   uint64 // virtual page number (4 KiB or 2 MiB granularity)
	Huge  bool
	Entry Entry
}

// Entries returns every live entry sorted by (PCID, huge, VPN), so the
// audit-replay tests can compare reconstructed TLB contents against a
// live one deterministically.
func (t *TLB) Entries() []Slot {
	return t.AppendEntries(nil)
}

// AppendEntries appends every live entry to dst in Entries' order and
// returns the extended slice; a capture that reuses dst allocates
// nothing.
func (t *TLB) AppendEntries(dst []Slot) []Slot {
	start := len(dst)
	dst = slices.Grow(dst, t.n)
	for pcid, sp := range t.spaces {
		for vpn, tg := range sp.entries {
			dst = append(dst, Slot{
				PCID: pcid, VPN: vpn &^ (1 << 63),
				Huge: vpn&(1<<63) != 0, Entry: tg.e,
			})
		}
	}
	slices.SortFunc(dst[start:], func(a, b Slot) int {
		if c := cmp.Compare(a.PCID, b.PCID); c != 0 {
			return c
		}
		if a.Huge != b.Huge {
			if a.Huge {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.VPN, b.VPN)
	})
	return dst
}
