package guest_test

import (
	"bytes"
	"testing"

	"repro/internal/backends"
	"repro/internal/guest"
	"repro/internal/snapshot"
)

// A restored tmpfs shares the checkpoint image's bytes until the first
// write. Every write path of the restored kernel — overwrite, pwrite,
// append, shrink-then-grow (within the shared capacity) and
// truncate-grow — must copy first: the image, its CKISNAP1 encoding, a
// second restore and a sibling fork all keep the captured bytes.
func TestRestoredFilesShareUntilWrite(t *testing.T) {
	cases := []struct {
		path   string
		mutate func(k *guest.Kernel, fd int) error
		want   string // the restored kernel's contents afterwards
	}{
		{"/write", func(k *guest.Kernel, fd int) error {
			_, err := k.Write(fd, []byte("XY"))
			return err
		}, "XYiginal-/write"},
		{"/pwrite", func(k *guest.Kernel, fd int) error {
			_, err := k.Pwrite(fd, []byte("XY"), 3)
			return err
		}, "oriXYnal-/pwrite"},
		{"/append", func(k *guest.Kernel, fd int) error {
			if err := k.Lseek(fd, uint64(len("original-/append"))); err != nil {
				return err
			}
			_, err := k.Write(fd, []byte("+tail"))
			return err
		}, "original-/append+tail"},
		{"/shrink-pwrite", func(k *guest.Kernel, fd int) error {
			if err := k.Ftruncate(fd, 2); err != nil {
				return err
			}
			_, err := k.Pwrite(fd, []byte("XY"), 6)
			return err
		}, "or\x00\x00\x00\x00XY"},
		{"/shrink-truncate", func(k *guest.Kernel, fd int) error {
			if err := k.Ftruncate(fd, 2); err != nil {
				return err
			}
			return k.Ftruncate(fd, 6)
		}, "or\x00\x00\x00\x00"},
		{"/truncate-grow", func(k *guest.Kernel, fd int) error {
			return k.Ftruncate(fd, uint64(len("original-/truncate-grow"))+2)
		}, "original-/truncate-grow\x00\x00"},
	}
	original := func(path string) string { return "original-" + path }

	src := runc(t)
	for _, c := range cases {
		fd, err := src.K.Open(c.path, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.K.Write(fd, []byte(original(c.path))); err != nil {
			t.Fatal(err)
		}
		if err := src.K.Close(fd); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := backends.Checkpoint(src)
	if err != nil {
		t.Fatal(err)
	}
	blob := snapshot.Encode(snap)

	machine := func() *backends.Machine {
		m, err := backends.NewMachine(snap.Config.HostFrames, snap.Config.TLBEntries)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	restored, err := backends.Restore(machine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	// The sibling boots before the writes, so its inodes share the same
	// image bytes as the restored kernel's while they happen.
	m := machine()
	sibling, err := backends.ForkFromSnapshot(m, snap, snapshot.NewDigestIndex(snap),
		snapshot.NewPageStore(m.HostMem), snap.ContainerID, guest.RestoreCOW)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range cases {
		fd, err := restored.K.Open(c.path, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.mutate(restored.K, fd); err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if got := readAll(t, restored.K, c.path); got != c.want {
			t.Errorf("%s: restored kernel reads %q, want %q", c.path, got, c.want)
		}
	}

	for i := range snap.Image.Files {
		fi := &snap.Image.Files[i]
		if string(fi.Data) != original(fi.Path) {
			t.Errorf("image %s = %q after writes to a restore of it", fi.Path, fi.Data)
		}
	}
	if !bytes.Equal(snapshot.Encode(snap), blob) {
		t.Error("re-encoded image differs after writes to a restore of it")
	}
	again, err := backends.Restore(machine(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]*guest.Kernel{"second restore": again.K, "sibling fork": sibling.K} {
		for _, c := range cases {
			if got := readAll(t, k, c.path); got != original(c.path) {
				t.Errorf("%s %s = %q, want %q", name, c.path, got, original(c.path))
			}
		}
	}
}

// readAll returns a copy of the whole file at path.
func readAll(t *testing.T, k *guest.Kernel, path string) string {
	t.Helper()
	ino, err := k.FS.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := k.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close(fd)
	got, err := k.Pread(fd, int(ino.Size())+1, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return string(got)
}
