package guest_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/backends"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// The guest kernel is exercised through real containers so every test
// runs the full runtime flows. RunC keeps the focus on kernel logic;
// backends_test.go re-runs cross-cutting scenarios on all runtimes.

func runc(t testing.TB) *backends.Container {
	t.Helper()
	c, err := backends.New(backends.RunC, backends.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetpid(t *testing.T) {
	c := runc(t)
	if pid := c.K.Getpid(); pid != 1 {
		t.Errorf("init pid = %d, want 1", pid)
	}
	if c.K.Stats.Syscalls == 0 {
		t.Error("syscall not counted")
	}
}

func TestFileLifecycle(t *testing.T) {
	c := runc(t)
	k := c.K
	fd, err := k.Open("/data", true)
	if err != nil {
		t.Fatal(err)
	}
	n, err := k.Write(fd, []byte("hello world"))
	if err != nil || n != 11 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := k.Lseek(fd, 0); err != nil {
		t.Fatal(err)
	}
	data, err := k.Read(fd, 5)
	if err != nil || string(data) != "hello" {
		t.Fatalf("Read = %q, %v", data, err)
	}
	data, err = k.Read(fd, 100)
	if err != nil || string(data) != " world" {
		t.Fatalf("second Read = %q, %v", data, err)
	}
	si, err := k.Stat("/data")
	if err != nil || si.Size != 11 {
		t.Fatalf("Stat = %+v, %v", si, err)
	}
	if err := k.Fsync(fd); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Read(fd, 1); !errors.Is(err, guest.EBADF) {
		t.Errorf("read after close err = %v, want EBADF", err)
	}
	if err := k.Unlink("/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat("/data"); !errors.Is(err, guest.ENOENT) {
		t.Errorf("stat after unlink err = %v, want ENOENT", err)
	}
}

func TestPreadPwriteFtruncate(t *testing.T) {
	c := runc(t)
	k := c.K
	fd, err := k.Open("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Pwrite(fd, []byte("abcdef"), 4); err != nil {
		t.Fatal(err)
	}
	got, err := k.Pread(fd, 3, 5)
	if err != nil || string(got) != "bcd" {
		t.Fatalf("Pread = %q, %v", got, err)
	}
	si, _ := k.Fstat(fd)
	if si.Size != 10 {
		t.Errorf("size = %d, want 10", si.Size)
	}
	if err := k.Ftruncate(fd, 4); err != nil {
		t.Fatal(err)
	}
	si, _ = k.Fstat(fd)
	if si.Size != 4 {
		t.Errorf("size after truncate = %d, want 4", si.Size)
	}
	if err := k.Ftruncate(fd, 8); err != nil {
		t.Fatal(err)
	}
	got, _ = k.Pread(fd, 4, 4)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("extended region = %v, want zeros", got)
	}
}

func TestMmapTouchMunmap(t *testing.T) {
	c := runc(t)
	k := c.K
	addr, err := k.MmapCall(16*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	faultsBefore := k.Stats.PageFaults
	if err := k.TouchRange(addr, 16*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if got := k.Stats.PageFaults - faultsBefore; got != 16 {
		t.Errorf("page faults = %d, want 16", got)
	}
	// Second pass: no faults (resident, likely TLB hits).
	if err := k.TouchRange(addr, 16*mem.PageSize, mmu.Read); err != nil {
		t.Fatal(err)
	}
	if got := k.Stats.PageFaults - faultsBefore; got != 16 {
		t.Errorf("resident touches faulted: %d", got-16)
	}
	if err := k.MunmapCall(addr, 16*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr, mmu.Read); !errors.Is(err, guest.EFAULT) {
		t.Errorf("touch after munmap err = %v, want EFAULT", err)
	}
}

func TestMprotectEnforced(t *testing.T) {
	c := runc(t)
	k := c.K
	addr, err := k.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := k.MprotectCall(addr, 4*mem.PageSize, guest.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr, mmu.Write); !errors.Is(err, guest.EFAULT) {
		t.Errorf("write to RO err = %v, want EFAULT", err)
	}
	if err := k.Touch(addr, mmu.Read); err != nil {
		t.Errorf("read of RO region failed: %v", err)
	}
	// Partial-range mprotect splits the VMA.
	if err := k.MprotectCall(addr+mem.PageSize, mem.PageSize, guest.ProtRead|guest.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr+mem.PageSize, mmu.Write); err != nil {
		t.Errorf("write to re-enabled page failed: %v", err)
	}
	if err := k.Touch(addr, mmu.Write); !errors.Is(err, guest.EFAULT) {
		t.Error("first page lost its protection after split")
	}
}

func TestBrkGrowShrink(t *testing.T) {
	c := runc(t)
	k := c.K
	base, err := k.BrkCall(0)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := k.BrkCall(base + 8*mem.PageSize)
	if err != nil || nb != base+8*mem.PageSize {
		t.Fatalf("Brk grow = %#x, %v", nb, err)
	}
	if err := k.TouchRange(base, 8*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := k.BrkCall(base + 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(base+4*mem.PageSize, mmu.Read); !errors.Is(err, guest.EFAULT) {
		t.Errorf("freed heap page still accessible: %v", err)
	}
	if err := k.Touch(base, mmu.Read); err != nil {
		t.Errorf("kept heap page lost: %v", err)
	}
}

func TestHugePageVMA(t *testing.T) {
	c := runc(t)
	k := c.K
	addr, err := k.MmapCall(2*mem.HugePageSize, guest.ProtRead|guest.ProtWrite, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	before := k.Stats.PageFaults
	// Touch every 4K page of the first 2MiB: exactly one fault.
	if err := k.TouchRange(addr, mem.HugePageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if got := k.Stats.PageFaults - before; got != 1 {
		t.Errorf("huge region faults = %d, want 1", got)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	c := runc(t)
	k := c.K
	rfd, wfd, err := k.PipePair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(wfd, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := k.Read(rfd, 16)
	if err != nil || string(got) != "ping" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	// Empty pipe with a live writer: EAGAIN.
	if _, err := k.Read(rfd, 1); !errors.Is(err, guest.EAGAIN) {
		t.Errorf("empty pipe err = %v, want EAGAIN", err)
	}
	// Close the writer: EOF.
	if err := k.Close(wfd); err != nil {
		t.Fatal(err)
	}
	got, err = k.Read(rfd, 1)
	if err != nil || got != nil {
		t.Errorf("EOF read = %v, %v", got, err)
	}
	// Write to a reader-less pipe: EPIPE.
	rfd2, wfd2, _ := k.PipePair()
	if err := k.Close(rfd2); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(wfd2, []byte("x")); !errors.Is(err, guest.EPIPE) {
		t.Errorf("widowed pipe err = %v, want EPIPE", err)
	}
}

func TestPipeCapacity(t *testing.T) {
	c := runc(t)
	k := c.K
	_, wfd, err := k.PipePair()
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, guest.PipeCapacity+100)
	n, err := k.Write(wfd, big)
	if err != nil || n != guest.PipeCapacity {
		t.Fatalf("Write = %d, %v; want %d (short write)", n, err, guest.PipeCapacity)
	}
	if _, err := k.Write(wfd, []byte("x")); !errors.Is(err, guest.EAGAIN) {
		t.Errorf("full pipe err = %v, want EAGAIN", err)
	}
}

func TestSocketPair(t *testing.T) {
	c := runc(t)
	k := c.K
	a, b, err := k.SocketPair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(a, []byte("req")); err != nil {
		t.Fatal(err)
	}
	got, err := k.Read(b, 16)
	if err != nil || string(got) != "req" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if _, err := k.Write(b, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	got, _ = k.Read(a, 16)
	if string(got) != "resp" {
		t.Errorf("reply = %q", got)
	}
}

func TestForkWaitExit(t *testing.T) {
	c := runc(t)
	k := c.K
	// Give the parent some resident memory so fork has pages to copy.
	addr, err := k.MmapCall(8*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 8*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	parent := k.Cur
	childPID, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if childPID == parent.PID {
		t.Fatal("fork returned parent pid")
	}
	child := k.Proc(childPID)
	if child == nil || child.Parent != parent.PID {
		t.Fatalf("child bookkeeping wrong: %+v", child)
	}
	// Run the child, touch its copy, and exit.
	if err := k.SwitchToPID(childPID); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr, mmu.Write); err != nil {
		t.Errorf("child touch of copied page: %v", err)
	}
	if err := k.Exit(7); err != nil {
		t.Fatal(err)
	}
	if k.Cur != parent {
		t.Fatal("exit did not return to parent")
	}
	reaped, err := k.Wait()
	if err != nil || reaped != childPID {
		t.Errorf("Wait = %d, %v", reaped, err)
	}
	if _, err := k.Wait(); !errors.Is(err, guest.ECHILD) {
		t.Errorf("second Wait err = %v, want ECHILD", err)
	}
}

func TestExecve(t *testing.T) {
	c := runc(t)
	k := c.K
	oldBrk := k.Cur
	if err := k.Execve(8, 4); err != nil {
		t.Fatal(err)
	}
	if k.Cur != oldBrk {
		t.Fatal("execve changed process identity")
	}
	// Text is mapped read+exec, stack read+write.
	if err := k.Touch(guest.UserTextBase, mmu.Read); err != nil {
		t.Errorf("text not resident: %v", err)
	}
	if err := k.Touch(guest.UserTextBase, mmu.Write); !errors.Is(err, guest.EFAULT) {
		t.Errorf("text writable after execve: %v", err)
	}
	if err := k.Touch(guest.UserStackTop-mem.PageSize, mmu.Write); err != nil {
		t.Errorf("stack not writable: %v", err)
	}
}

func TestYieldRoundRobin(t *testing.T) {
	c := runc(t)
	k := c.K
	parent := k.Cur.PID
	child, err := k.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Yield(); err != nil {
		t.Fatal(err)
	}
	if k.Cur.PID != child {
		t.Fatalf("after yield running %d, want child %d", k.Cur.PID, child)
	}
	if err := k.Yield(); err != nil {
		t.Fatal(err)
	}
	if k.Cur.PID != parent {
		t.Fatalf("after second yield running %d, want parent %d", k.Cur.PID, parent)
	}
	if k.Stats.CtxSwitches < 2 {
		t.Errorf("ctx switches = %d, want >= 2", k.Stats.CtxSwitches)
	}
}

func TestVirtualTimeMonotone(t *testing.T) {
	c := runc(t)
	var last int64
	ops := []func(){
		func() { c.K.Getpid() },
		func() { _, _ = c.K.Open("/t", true) },
		func() { _, _ = c.K.Fork() },
		func() { _ = c.K.Yield() },
	}
	for i, op := range ops {
		op()
		now := int64(c.Clk.Now())
		if now <= last {
			t.Errorf("op %d did not advance virtual time (%d -> %d)", i, last, now)
		}
		last = now
	}
}
