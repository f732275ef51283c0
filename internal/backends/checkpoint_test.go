package backends

import (
	"errors"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// checkpointWorkload builds up state worth checkpointing: files (one
// still open), mapped memory with mixed A/D bits, a live child and a
// zombie. Returns the mapped base so callers can keep poking it.
func checkpointWorkload(t *testing.T, c *Container) (addr uint64, fd, zpid int) {
	t.Helper()
	k := c.K
	fd, err := k.Open("/app.db", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(fd, []byte("snapshot me")); err != nil {
		t.Fatal(err)
	}
	logFD, err := k.Open("/app.log", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(logFD, []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(logFD); err != nil {
		t.Fatal(err)
	}
	addr, err = k.MmapCall(8*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Pages 0-3 dirty, page 4 accessed-only, 5-7 never touched.
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr+4*mem.PageSize, mmu.Read); err != nil {
		t.Fatal(err)
	}
	// A live sibling (eager fork: its copies are resident) and a zombie.
	if _, err := k.Fork(); err != nil {
		t.Fatal(err)
	}
	zpid, err = k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SwitchToPID(zpid); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(7); err != nil {
		t.Fatal(err)
	}
	return addr, fd, zpid
}

// TestCheckpointRestoreEveryRuntime is the tentpole round trip: build
// state, checkpoint, restore onto a fresh machine, verify the restored
// fingerprint (Restore does), and check the container keeps serving.
func TestCheckpointRestoreEveryRuntime(t *testing.T) {
	everyRuntime(t, func(t *testing.T, c *Container) {
		addr, fd, zpid := checkpointWorkload(t, c)
		snap, err := Checkpoint(c)
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if snap.Fingerprint == 0 {
			t.Fatal("zero fingerprint")
		}
		if got := snap.Image.ResidentPages(); got < 5 {
			t.Fatalf("resident pages in image = %d, want >= 5", got)
		}
		decoded, err := snapshot.Decode(snapshot.Encode(snap))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		m2, err := NewMachine(c.Opts.HostFrames, c.Opts.TLBEntries)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(m2, decoded)
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}

		// The restored container keeps serving: preserved descriptor,
		// preserved file bytes, preserved memory protections, and the
		// ordinary process lifecycle still works.
		k := r.K
		got, err := k.Pread(fd, 11, 0)
		if err != nil || string(got) != "snapshot me" {
			t.Fatalf("Pread via preserved fd = %q, %v", got, err)
		}
		lf, err := k.Open("/app.log", false)
		if err != nil {
			t.Fatal(err)
		}
		line, err := k.Read(lf, 6)
		if err != nil || string(line) != "line1\n" {
			t.Fatalf("log after restore = %q, %v", line, err)
		}
		if err := k.Touch(addr, mmu.Write); err != nil {
			t.Fatalf("write to restored page: %v", err)
		}
		if err := k.Touch(addr+6*mem.PageSize, mmu.Write); err != nil {
			t.Fatalf("fault-in of never-resident page: %v", err)
		}
		// The pre-checkpoint zombie survived and is still reapable by
		// its parent.
		if z := k.Proc(zpid); z == nil || !z.Exited {
			t.Fatalf("zombie %d not preserved: %+v", zpid, z)
		}
		if k.Getpid() != 1 {
			if err := k.SwitchToPID(1); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := k.Wait(); err != nil || got != zpid {
			t.Fatalf("zombie reap = %d, %v; want %d, nil", got, err, zpid)
		}
		// The ordinary process lifecycle still works post-restore.
		child, err := k.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SwitchToPID(child); err != nil {
			t.Fatal(err)
		}
		if err := k.Exit(0); err != nil {
			t.Fatal(err)
		}
		if k.Getpid() != 1 {
			if err := k.SwitchToPID(1); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := k.Wait(); err != nil || got != child {
			t.Fatalf("child reap = %d, %v; want %d, nil", got, err, child)
		}
	})
}

// TestCheckpointDeterministic: two captures of the same quiescent state
// encode byte-identically (the clock is not part of the image).
func TestCheckpointDeterministic(t *testing.T) {
	c := MustNew(CKI, Options{})
	checkpointWorkload(t, c)
	a, err := CheckpointBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CheckpointBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("back-to-back checkpoints differ")
	}
}

// TestRestoreRejectsCorruption: bit flips and truncations anywhere in
// the blob are detected by the checksum and surface as clean errors
// from Decode, before any restore could start.
func TestRestoreRejectsCorruption(t *testing.T) {
	c := MustNew(PVM, Options{})
	checkpointWorkload(t, c)
	blob, err := CheckpointBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 8, len(blob) / 2, len(blob) - 9, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := snapshot.Decode(bad); err == nil {
			t.Fatalf("flip at %d: decode accepted corrupt snapshot", off)
		}
	}
	for _, n := range []int{0, 7, 8, 20, len(blob) - 8, len(blob) - 1} {
		if _, err := snapshot.Decode(blob[:n]); err == nil {
			t.Fatalf("truncate to %d: decode accepted torn snapshot", n)
		}
	}
}

// TestCheckpointPreconditions: states v1 cannot rebuild exactly are
// refused with *guest.ErrCheckpoint, not mangled.
func TestCheckpointPreconditions(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		c := MustNew(RunC, Options{})
		if _, _, err := c.K.PipePair(); err != nil {
			t.Fatal(err)
		}
		var ce *guest.ErrCheckpoint
		if _, err := Checkpoint(c); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ErrCheckpoint", err)
		}
	})
	t.Run("cow", func(t *testing.T) {
		c := MustNew(RunC, Options{})
		addr, err := c.K.MmapCall(2*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.K.TouchRange(addr, 2*mem.PageSize, mmu.Write); err != nil {
			t.Fatal(err)
		}
		if _, err := c.K.ForkCOW(); err != nil {
			t.Fatal(err)
		}
		var ce *guest.ErrCheckpoint
		if _, err := Checkpoint(c); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ErrCheckpoint", err)
		}
	})
	t.Run("dead", func(t *testing.T) {
		c := MustNew(RunC, Options{})
		c.K.Panic("test")
		var ce *guest.ErrCheckpoint
		if _, err := Checkpoint(c); !errors.As(err, &ce) {
			t.Fatalf("err = %v, want ErrCheckpoint", err)
		}
	})
}

// TestDirtyTracking: the mediated-PTE chokepoint reports exactly the
// pages whose leaves were stored since the last swap.
func TestDirtyTracking(t *testing.T) {
	c := MustNew(CKI, Options{})
	k := c.K
	addr, err := k.MmapCall(16*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	k.TrackDirty(true)
	defer k.TrackDirty(false)
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	first := k.DirtySwap()
	if len(first) != 4 {
		t.Fatalf("dirty after 4 faults = %d pages (%#x), want 4", len(first), first)
	}
	if k.DirtyCount() != 0 {
		t.Fatal("DirtySwap did not reset")
	}
	// Re-touching resident pages stores no PTEs: nothing new gets dirty.
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if n := k.DirtyCount(); n != 0 {
		t.Fatalf("dirty after resident re-touch = %d, want 0", n)
	}
	if err := k.Touch(addr+8*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if got := k.DirtySwap(); len(got) != 1 || got[0] != addr+8*mem.PageSize {
		t.Fatalf("dirty = %#x, want [%#x]", got, addr+8*mem.PageSize)
	}
}

// TestFingerprintSensitivity: the canonical fingerprint moves when
// architectural state moves, and is stable when nothing changed.
func TestFingerprintSensitivity(t *testing.T) {
	c := MustNew(RunC, Options{})
	checkpointWorkload(t, c)
	a, err := c.CanonicalFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CanonicalFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("fingerprint not stable across reads")
	}
	addr, err := c.K.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.Touch(addr, mmu.Write); err != nil {
		t.Fatal(err)
	}
	after, err := c.CanonicalFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if after == a {
		t.Fatal("fingerprint unchanged after a new resident mapping")
	}
}
