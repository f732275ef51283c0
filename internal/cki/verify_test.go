package cki

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// refRefreshTopCopy is the entry-wise refresh the page-level pass
// replaced: one ReadEntry per slot of each frame and one WriteEntry per
// repaired slot.
func refRefreshTopCopy(m *mem.PhysMem, top, c mem.PFN) int {
	const ad = pagetable.FlagAccessed | pagetable.FlagDirty
	fixed := 0
	for i := 0; i < mem.WordsPerPage; i++ {
		if i == KSMPML4Slot || i == PerVCPUPML4Slot {
			continue
		}
		want := pagetable.ReadEntry(m, top, i)
		got := pagetable.ReadEntry(m, c, i)
		if got&^ad != want&^ad {
			pagetable.WriteEntry(m, c, i, want|got&ad)
			fixed++
		}
	}
	return fixed
}

// refreshFixture is a declared top with user mappings under four PML4
// slots, and vCPU 1's copy of it.
func refreshFixture(t testing.TB) (f *fixture, top, cp mem.PFN) {
	t.Helper()
	f = newFixture(t)
	top = f.buildGuestTable(t)
	for _, slot := range []uint64{0, 1, 3, 100} {
		f.mapUserPage(t, top, slot<<39)
	}
	cp, err := f.ksm.LoadCR3(1, top)
	if err != nil {
		t.Fatal(err)
	}
	return f, top, cp
}

func TestRefreshTopCopyRepairs(t *testing.T) {
	const ad = pagetable.FlagAccessed | pagetable.FlagDirty
	f, top, cp := refreshFixture(t)
	if n, err := f.ksm.RefreshTopCopy(top, 1); err != nil || n != 0 {
		t.Fatalf("coherent copy: fixed %d, err %v; want 0, nil", n, err)
	}

	// Corrupt three ordinary slots (a lost mapping, a stray one, a
	// flipped permission bit), set A/D on a coherent slot and on a
	// corrupted one, and scribble both reserved slots.
	master := pagetable.ReadEntry(f.m, top, 1)
	pagetable.WriteEntry(f.m, cp, 0, 0)
	pagetable.WriteEntry(f.m, cp, 5, pagetable.Make(f.seg.Base, pagetable.FlagPresent|pagetable.FlagWritable, 0))
	pagetable.WriteEntry(f.m, cp, 3, pagetable.ReadEntry(f.m, top, 3)^pagetable.FlagWritable|pagetable.FlagAccessed)
	pagetable.WriteEntry(f.m, cp, 1, master|ad)
	scribble := map[int]pagetable.PTE{KSMPML4Slot: 0xdead000, PerVCPUPML4Slot: 0xbeef000}
	for slot, v := range scribble {
		pagetable.WriteEntry(f.m, cp, slot, v)
	}

	n, err := f.ksm.RefreshTopCopy(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("fixed = %d, want 3", n)
	}
	if got := pagetable.ReadEntry(f.m, cp, 1); got != master|ad {
		t.Errorf("coherent slot 1 = %#x, want A/D kept: %#x", uint64(got), uint64(master|ad))
	}
	if got, want := pagetable.ReadEntry(f.m, cp, 3), pagetable.ReadEntry(f.m, top, 3)|pagetable.FlagAccessed; got != want {
		t.Errorf("repaired slot 3 = %#x, want %#x with its accessed bit", uint64(got), uint64(want))
	}
	for _, slot := range []int{0, 5} {
		if got, want := pagetable.ReadEntry(f.m, cp, slot), pagetable.ReadEntry(f.m, top, slot); got != want {
			t.Errorf("repaired slot %d = %#x, want master %#x", slot, uint64(got), uint64(want))
		}
	}
	for slot, v := range scribble {
		if got := pagetable.ReadEntry(f.m, cp, slot); got != v {
			t.Errorf("reserved slot %d = %#x, want it untouched at %#x", slot, uint64(got), uint64(v))
		}
	}

	// Random corruptions: the page-level pass and the entry-wise
	// reference agree on the count and on every word of the copy.
	rng := rand.New(rand.NewPCG(1, 2))
	ref := mem.New(4)
	for round := 0; round < 50; round++ {
		for i := rng.IntN(40); i > 0; i-- {
			pagetable.WriteEntry(f.m, cp, rng.IntN(mem.WordsPerPage), pagetable.PTE(rng.Uint64()))
		}
		*ref.Page(1), *ref.Page(2) = *f.m.Page(top), *f.m.Page(cp)
		want := refRefreshTopCopy(ref, 1, 2)
		got, err := f.ksm.RefreshTopCopy(top, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || *f.m.Page(cp) != *ref.Page(2) {
			t.Fatalf("round %d: fixed %d, reference %d; copies equal %v", round, got, want, *f.m.Page(cp) == *ref.Page(2))
		}
	}
}

// The refresh runs on every remote shootdown leg: it must not allocate.
func TestRefreshTopCopyAllocs(t *testing.T) {
	f, top, _ := refreshFixture(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.ksm.RefreshTopCopy(top, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RefreshTopCopy allocates %v per run, want 0", allocs)
	}
}

func BenchmarkRefreshTopCopy(b *testing.B) {
	f, top, _ := refreshFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ksm.RefreshTopCopy(top, 1); err != nil {
			b.Fatal(err)
		}
	}
}
