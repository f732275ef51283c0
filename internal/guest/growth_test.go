package guest_test

import (
	"bytes"
	"testing"

	"repro/internal/guest"
)

// Tmpfs files grow with amortized capacity, and a shrinking Ftruncate
// keeps that capacity, so bytes past the end of a file may still sit in
// its buffer. A hole opened past the end must read back as zeros anyway.
func TestFileGrowthZeroFills(t *testing.T) {
	k := runc(t).K
	for _, c := range []struct {
		path string
		// extend grows the file, shrunk to 2 bytes, so that bytes 2-5
		// are a hole.
		extend func(fd int) error
		size   uint64
	}{
		{"/pwrite", func(fd int) error {
			_, err := k.Pwrite(fd, []byte("XY"), 6)
			return err
		}, 8},
		{"/ftruncate", func(fd int) error { return k.Ftruncate(fd, 6) }, 6},
	} {
		t.Run(c.path[1:], func(t *testing.T) {
			fd, err := k.Open(c.path, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Write(fd, []byte("abcdefgh")); err != nil {
				t.Fatal(err)
			}
			if err := k.Ftruncate(fd, 2); err != nil {
				t.Fatal(err)
			}
			if err := c.extend(fd); err != nil {
				t.Fatal(err)
			}
			if si, _ := k.Fstat(fd); si.Size != c.size {
				t.Errorf("size = %d, want %d", si.Size, c.size)
			}
			head, _ := k.Pread(fd, 2, 0)
			if string(head) != "ab" {
				t.Errorf("bytes 0-1 = %q, want \"ab\"", head)
			}
			hole, _ := k.Pread(fd, 4, 2)
			if !bytes.Equal(hole, make([]byte, 4)) {
				t.Errorf("bytes 2-5 = %q, want zeros", hole)
			}
		})
	}
}

// appendRecords writes n 256-byte records back to back from offset 0,
// the way a rollback journal grows.
func appendRecords(tb testing.TB, k *guest.Kernel, fd, n int) {
	rec := make([]byte, 256)
	for i := 0; i < n; i++ {
		if _, err := k.Pwrite(fd, rec, uint64(i)*256); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestFileAppendAllocs(t *testing.T) {
	k := runc(t).K
	fd, err := k.Open("/journal", true)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := k.FS.Lookup("/journal")
	if err != nil {
		t.Fatal(err)
	}
	// From an empty buffer, growth is geometric: O(log n) allocations
	// for n appends, not one per append.
	fresh := testing.AllocsPerRun(3, func() {
		ino.Data = nil
		appendRecords(t, k, fd, 4096)
	})
	if fresh > 32 {
		t.Errorf("4096 appends to a new file: %v allocs, want <= 32", fresh)
	}
	// Truncating to zero keeps the capacity, so refilling is free.
	refill := testing.AllocsPerRun(3, func() {
		if err := k.Ftruncate(fd, 0); err != nil {
			t.Fatal(err)
		}
		appendRecords(t, k, fd, 4096)
	})
	if refill != 0 {
		t.Errorf("refill after Ftruncate(0): %v allocs, want 0", refill)
	}
}

// BenchmarkFileAppend is one 256-byte journal append; the journal is
// truncated every 4096 records (1 MiB), as a commit does.
func BenchmarkFileAppend(b *testing.B) {
	k := runc(b).K
	fd, err := k.Open("/journal", true)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := uint64(i%4096) * 256
		if off == 0 {
			if err := k.Ftruncate(fd, 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := k.Pwrite(fd, rec, off); err != nil {
			b.Fatal(err)
		}
	}
}
