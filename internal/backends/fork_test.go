package backends

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/cki"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// Fork-from-snapshot: COW sharing, lazy restore, sibling teardown and
// the touch-in equivalence with an eager restore.

// forkMachine builds a fresh machine sized for opts.
func forkMachine(t *testing.T, opts Options) *Machine {
	t.Helper()
	o := opts.withDefaults()
	m, err := NewMachine(o.HostFrames, o.TLBEntries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forkWorkload builds the state a serverless function has after init:
// a written file plus a heap of pages pages, all resident — the first
// hot of them re-touched last so they populate the warm TLB (the lazy
// fork's prefetch set).
func forkWorkload(t *testing.T, c *Container, pages, hot int) uint64 {
	t.Helper()
	k := c.K
	fd, err := k.Open("/fn.db", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(fd, []byte("fork me")); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	addr, err := k.MmapCall(uint64(pages)*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, uint64(pages)*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, uint64(hot)*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestForkFingerprintMatchesEagerRestore pins the conservation
// invariant on every runtime: after touching every page back in, a COW
// or lazy fork is canonically indistinguishable from an eager restore
// of the same snapshot — sharing and laziness change *when* state
// materializes, never *what* state results.
func TestForkFingerprintMatchesEagerRestore(t *testing.T) {
	set := append(AllKinds(), struct {
		Kind Kind
		Opts Options
	}{CKI, Options{Nested: true}})
	for _, cfg := range set {
		cfg := cfg
		// A TLB smaller than the workload's heap, so the warm-TLB tags —
		// and with them the lazy prefetch set — cover only the hot tail
		// of the working set.
		cfg.Opts.TLBEntries = 8
		m1 := forkMachine(t, cfg.Opts)
		c1, err := NewOnMachine(m1, cfg.Kind, cfg.Opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c1.Name, func(t *testing.T) {
			const pages, hot = 24, 3
			addr := forkWorkload(t, c1, pages, hot)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			idx := snapshot.NewDigestIndex(snap)

			m2 := forkMachine(t, cfg.Opts)
			eager, err := Restore(m2, snap)
			if err != nil {
				t.Fatalf("eager restore: %v", err)
			}
			if err := eager.K.TouchRange(addr, pages*mem.PageSize, mmu.Write); err != nil {
				t.Fatal(err)
			}
			// Warm-TLB contents depend on the path taken to a state
			// (restore refill vs fork touch-in), so the comparison is over
			// the state with the container's PCID group flushed.
			m2.FlushContainerTLB(eager.K.ContainerID)
			want, err := eager.CanonicalFingerprint()
			if err != nil {
				t.Fatal(err)
			}

			for _, mode := range []guest.RestoreMode{guest.RestoreCOW, guest.RestoreLazy} {
				m3 := forkMachine(t, cfg.Opts)
				store := snapshot.NewPageStore(m3.HostMem)
				// Same ID as the snapshot on a fresh machine, so the
				// fork's PCIDs — and thus its canonical form — are
				// directly comparable to the eager restore's.
				f, err := ForkFromSnapshot(m3, snap, idx, store, snap.ContainerID, mode)
				if err != nil {
					t.Fatalf("fork mode %d: %v", mode, err)
				}
				if mode == guest.RestoreLazy && f.K.Cur.AS.LazyPending() == 0 {
					t.Fatalf("lazy fork deferred nothing")
				}
				if err := f.K.TouchRange(addr, pages*mem.PageSize, mmu.Write); err != nil {
					t.Fatalf("fork mode %d touch-in: %v", mode, err)
				}
				if n := f.K.Cur.AS.SharedResident(); n != 0 {
					t.Fatalf("fork mode %d: %d pages still shared after full write touch-in", mode, n)
				}
				if n := f.K.Cur.AS.LazyPending(); n != 0 {
					t.Fatalf("fork mode %d: %d pages still lazy after full touch-in", mode, n)
				}
				if mode == guest.RestoreCOW && f.K.Stats.ShareBreaks == 0 {
					t.Fatalf("cow fork: no share breaks recorded")
				}
				// A lazy fork may defer its whole heap (empty prefetch
				// set): then write touch-in materializes private pages
				// directly and no share ever forms — still counted.
				if mode == guest.RestoreLazy && f.K.Stats.LazyFaults == 0 {
					t.Fatalf("lazy fork: no lazy faults recorded")
				}
				m3.FlushContainerTLB(f.K.ContainerID)
				got, err := f.CanonicalFingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("fork mode %d fingerprint %#016x != eager restore %#016x", mode, got, want)
				}
				// The fully privatized fork holds no store references.
				if st := store.Stats(); st.SharedRefs != 0 || st.UniquePages != 0 {
					t.Fatalf("fork mode %d: store still holds refs after touch-in: %+v", mode, st)
				}
			}
		})
	}
}

// TestForkSiblingTeardown pins the fork-lineage accounting: evicting
// one COW sibling (Discard = guest teardown + the reclaim the supervisor
// shares) must not reclaim master frames still mapped by the other
// sibling, because masters carry StoreOwner rather than any
// container's ID.
func TestForkSiblingTeardown(t *testing.T) {
	for _, kind := range []Kind{RunC, CKI, PVM} {
		t.Run(kind.String(), func(t *testing.T) {
			const pages, hot = 8, 2
			m := forkMachine(t, Options{})
			c1, err := NewOnMachine(m, kind, Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			addr := forkWorkload(t, c1, pages, hot)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			idx := snapshot.NewDigestIndex(snap)
			if err := Discard(m, c1); err != nil {
				t.Fatal(err)
			}

			store := snapshot.NewPageStore(m.HostMem)
			a, err := ForkFromSnapshot(m, snap, idx, store, 2, guest.RestoreCOW)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ForkFromSnapshot(m, snap, idx, store, 3, guest.RestoreCOW)
			if err != nil {
				t.Fatal(err)
			}
			st := store.Stats()
			if st.UniquePages == 0 || st.SharedRefs == 0 {
				t.Fatalf("no sharing established: %+v", st)
			}
			// Every anonymous page of every fork dedups to one master.
			digest := snapshot.PageDigest(&snap.Image, &snap.Image.Procs[0], addr)
			master, ok := store.Lookup(digest)
			if !ok {
				t.Fatal("workload page digest not interned")
			}
			if got := m.HostMem.Owner(master); got != snapshot.StoreOwner {
				t.Fatalf("master frame owner = %d, want StoreOwner", got)
			}

			// A container holding live shares refuses to checkpoint (the
			// image cannot express a cross-container frame dependency).
			var ec *guest.ErrCheckpoint
			if _, err := Checkpoint(a); !errors.As(err, &ec) {
				t.Fatalf("checkpoint of a live-shared fork: %v, want ErrCheckpoint", err)
			}

			// Sibling a writes one page (break), then is evicted whole.
			// (b booted last, so the shared core holds b's context.)
			if err := a.Activate(); err != nil {
				t.Fatal(err)
			}
			if err := a.K.Touch(addr, mmu.Write); err != nil {
				t.Fatal(err)
			}
			if a.K.Stats.ShareBreaks != 1 || store.Stats().Breaks != 1 {
				t.Fatalf("break accounting: guest %d store %d", a.K.Stats.ShareBreaks, store.Stats().Breaks)
			}
			refsBefore := store.Refs(digest)
			if err := Discard(m, a); err != nil {
				t.Fatal(err)
			}
			if got := store.Refs(digest); got >= refsBefore || got == 0 {
				t.Fatalf("refs after eviction = %d (before %d): want fewer but nonzero", got, refsBefore)
			}

			// The surviving sibling still resolves every shared page.
			if !m.HostMem.Allocated(master) {
				t.Fatal("sibling eviction reclaimed a shared master frame")
			}
			if err := b.Activate(); err != nil {
				t.Fatal(err)
			}
			if err := b.K.TouchRange(addr, pages*mem.PageSize, mmu.Read); err != nil {
				t.Fatalf("surviving sibling read: %v", err)
			}
			fd, err := b.K.Open("/fn.db", false)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := b.K.Read(fd, 7); err != nil || string(got) != "fork me" {
				t.Fatalf("surviving sibling file = %q, %v", got, err)
			}

			// Last sibling out: the store drains completely.
			if err := Discard(m, b); err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.UniquePages != 0 || st.SharedRefs != 0 {
				t.Fatalf("store leaked masters after last eviction: %+v", st)
			}
			if m.HostMem.Allocated(master) {
				t.Fatal("master frame leaked after last eviction")
			}
		})
	}
}

// TestForkGateBatch pins the CKI amortization: a COW fork runs its
// whole mapping storm inside one gate batch, so it crosses the KSM
// gate far fewer times than an eager Restore of the same image, whose
// per-page faults and PTE stores each pay their own transition.
func TestForkGateBatch(t *testing.T) {
	m1 := forkMachine(t, Options{})
	c1, err := NewOnMachine(m1, CKI, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	forkWorkload(t, c1, 64, 4)
	snap, err := Checkpoint(c1)
	if err != nil {
		t.Fatal(err)
	}
	gateCalls := func(c *Container, err error) uint64 {
		if err != nil {
			t.Fatal(err)
		}
		ksm, _, _, ok := c.CKIInternals()
		if !ok {
			t.Fatal("no KSM internals on a CKI container")
		}
		return ksm.Stats.GateCalls
	}
	m := forkMachine(t, Options{})
	eager := gateCalls(Restore(m, snap))
	m = forkMachine(t, Options{})
	cow := gateCalls(ForkFromSnapshot(m, snap, snapshot.NewDigestIndex(snap),
		snapshot.NewPageStore(m.HostMem), snap.ContainerID, guest.RestoreCOW))
	if cow*2 >= eager {
		t.Fatalf("gate batching saved too little: cow fork %d gate calls vs eager restore %d", cow, eager)
	}
}

// TestForkAllocs pins that a fork rehashes and recopies nothing. With
// the snapshot's digest index built once, a second COW fork resolves
// its shares against that same index rather than a digest map of its
// own, and its tmpfs shares the image's bytes rather than copying them:
// a fork plus its Discard allocates a small fraction of the template's
// 4 MiB tmpfs.
func TestForkAllocs(t *testing.T) {
	const fileSize = 4 << 20
	m := forkMachine(t, Options{})
	c1, err := NewOnMachine(m, CKI, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := c1.K
	fd, err := k.Open("/fn.db", true)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(i*131 + i/mem.PageSize)
	}
	if _, err := k.Write(fd, data); err != nil {
		t.Fatal(err)
	}
	ino, err := k.FS.Lookup("/fn.db")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := k.MmapCall(8*mem.PageSize, guest.ProtRead, ino, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 8*mem.PageSize, mmu.Read); err != nil {
		t.Fatal(err)
	}
	snap, err := Checkpoint(c1)
	if err != nil {
		t.Fatal(err)
	}
	if err := Discard(m, c1); err != nil {
		t.Fatal(err)
	}
	idx := snapshot.NewDigestIndex(snap)
	store := snapshot.NewPageStore(m.HostMem)
	fork := func() *Container {
		f, err := ForkFromSnapshot(m, snap, idx, store, 2, guest.RestoreCOW)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	discard := func(f *Container) {
		if err := Discard(m, f); err != nil {
			t.Fatal(err)
		}
	}
	discard(fork())

	f := fork()
	if fp, ok := f.K.ForkSrc.(*forkPages); !ok || fp.digests != idx {
		t.Fatal("second fork does not resolve its shares against the snapshot's index")
	}
	fino, err := f.K.FS.Lookup("/fn.db")
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap.Image.Files {
		if fi := &snap.Image.Files[i]; fi.Path == "/fn.db" && &fino.Data[0] != &fi.Data[0] {
			t.Fatal("second fork copied the image's file bytes at restore")
		}
	}
	discard(f)

	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		discard(fork())
	}
	runtime.ReadMemStats(&after)
	if perFork := (after.TotalAlloc - before.TotalAlloc) / runs; perFork >= fileSize/4 {
		t.Fatalf("fork+discard allocates %d B, want < %d (a quarter of the tmpfs)", perFork, fileSize/4)
	}
}

// TestKSMOwnerOnlyUnderCKI: reclaim (Discard and the supervisor's
// restart) frees KSMOwner frames only for CKI containers, because no
// other runtime ever allocates one — through boot, workload,
// checkpoint, or a COW fork and its touch-in. CKI is the control: its
// KSM does own frames.
func TestKSMOwnerOnlyUnderCKI(t *testing.T) {
	set := append(AllKinds(), struct {
		Kind Kind
		Opts Options
	}{GVisor, Options{}})
	for _, cfg := range set {
		m := forkMachine(t, cfg.Opts)
		c1, err := NewOnMachine(m, cfg.Kind, cfg.Opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(c1.Name, func(t *testing.T) {
			const pages = 8
			addr := forkWorkload(t, c1, pages, 2)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ForkFromSnapshot(m, snap, snapshot.NewDigestIndex(snap),
				snapshot.NewPageStore(m.HostMem), 2, guest.RestoreCOW)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.K.TouchRange(addr, pages*mem.PageSize, mmu.Write); err != nil {
				t.Fatal(err)
			}
			ksm := 0
			for p := mem.PFN(0); p < mem.PFN(m.HostMem.Frames()); p++ {
				if o := m.HostMem.Owner(p); o == cki.KSMOwner(1) || o == cki.KSMOwner(2) {
					ksm++
				}
			}
			if cfg.Kind == CKI && ksm == 0 {
				t.Fatal("CKI containers own no KSM frames: the scan sees nothing")
			}
			if cfg.Kind != CKI && ksm != 0 {
				t.Fatalf("%d frames owned by a KSM under %s", ksm, c1.Name)
			}
		})
	}
}
