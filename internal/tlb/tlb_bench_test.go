package tlb

import (
	"testing"

	"repro/internal/mem"
)

// fill loads n distinct 4 KiB entries for pcid starting at va 0.
func fill(tl *TLB, pcid uint16, n int) {
	for i := 0; i < n; i++ {
		tl.Insert(pcid, uint64(i)<<mem.PageShift, Entry{PFN: mem.PFN(i)})
	}
}

// TestTLBHotPathAllocs pins the steady-state hot paths at zero
// allocations per operation — the wall-clock optimization contract.
func TestTLBHotPathAllocs(t *testing.T) {
	tl := New(DefaultCapacity)
	fill(tl, 1, 10*DefaultCapacity) // reach eviction steady state
	next := uint64(10 * DefaultCapacity)

	if n := testing.AllocsPerRun(1000, func() {
		tl.Lookup(1, (next-1)<<mem.PageShift)
	}); n != 0 {
		t.Errorf("Lookup(hit) allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tl.Lookup(1, 1<<40)
	}); n != 0 {
		t.Errorf("Lookup(miss) allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tl.Insert(1, next<<mem.PageShift, Entry{PFN: 1})
		next++
	}); n != 0 {
		t.Errorf("Insert(evict) allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tl.FlushPage(1, (next-1)<<mem.PageShift)
		tl.Insert(1, (next-1)<<mem.PageShift, Entry{PFN: 1})
	}); n != 0 {
		t.Errorf("FlushPage allocs/op = %v, want 0", n)
	}
}

// TestTLBTombstoneCompaction drives the flush-then-reinsert pattern
// that used to grow the FIFO without bound (flushed entries left their
// keys queued forever when the working set never reached capacity) and
// checks the ring stays bounded while behaviour stays correct.
func TestTLBTombstoneCompaction(t *testing.T) {
	tl := New(256)
	for round := 0; round < 100; round++ {
		for i := 0; i < 64; i++ {
			tl.Insert(1, uint64(i)<<mem.PageShift, Entry{PFN: mem.PFN(i)})
		}
		for i := 0; i < 64; i++ {
			tl.FlushPage(1, uint64(i)<<mem.PageShift)
		}
	}
	if got := len(tl.ring); got > 4*256 {
		t.Errorf("ring grew to %d slots under flush churn, want bounded by 4x capacity", got)
	}
	if tl.Len() != 0 {
		t.Errorf("Len = %d after flushing everything, want 0", tl.Len())
	}
	// The structure must still evict correctly afterwards.
	for i := 0; i < 512; i++ {
		tl.Insert(2, uint64(i)<<mem.PageShift, Entry{PFN: mem.PFN(i)})
	}
	if tl.Len() != 256 {
		t.Errorf("Len = %d after overfilling, want capacity 256", tl.Len())
	}
	if _, ok := tl.Lookup(2, 511<<mem.PageShift); !ok {
		t.Error("most recent entry missing after compaction-era eviction")
	}
}

// TestTLBFIFOOrderSurvivesFlush checks eviction order stays insertion
// order with tombstones interleaved: flushing an old entry must not
// perturb which of the remaining entries evicts first.
func TestTLBFIFOOrderSurvivesFlush(t *testing.T) {
	tl := New(4)
	for i := 0; i < 4; i++ {
		tl.Insert(1, uint64(i)<<mem.PageShift, Entry{PFN: mem.PFN(i)})
	}
	tl.FlushPage(1, 0) // oldest becomes a tombstone
	tl.Insert(1, 10<<mem.PageShift, Entry{PFN: 10})
	// Capacity again: inserting must evict page 1 (the oldest live), not
	// page 2 or the refilled slot.
	tl.Insert(1, 11<<mem.PageShift, Entry{PFN: 11})
	if _, ok := tl.Lookup(1, 1<<mem.PageShift); ok {
		t.Error("oldest live entry (page 1) survived eviction")
	}
	for _, vpn := range []uint64{2, 3, 10, 11} {
		if _, ok := tl.Lookup(1, vpn<<mem.PageShift); !ok {
			t.Errorf("page %d evicted out of FIFO order", vpn)
		}
	}
}
