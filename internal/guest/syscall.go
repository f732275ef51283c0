package guest

import (
	"repro/internal/clock"
	"repro/internal/faults"
)

// The syscall layer. Every call runs the runtime's entry flow, the
// handler body, and the exit flow, so its latency is the composition the
// paper measures: 90ns native under CKI/HVM/RunC-style runtimes, 336ns
// under PVM's redirection (Table 2, Fig. 10b).

// syscall wraps a handler body with the runtime's entry/exit flows.
// A died kernel serves nothing: every call returns EKERNELDIED without
// entering the (corrupt) kernel.
func (k *Kernel) syscall(body func() (uint64, error)) (uint64, error) {
	if k.dead {
		return 0, EKERNELDIED
	}
	k.Stats.Syscalls++
	start := k.Clk.Now()
	span := k.Spans.Begin("syscall")
	done := func() {
		k.Spans.End(span)
		k.Met.ObserveSyscall(k.Clk.Now() - start)
	}
	k.PV.SyscallEnter(k)
	if k.fire(faults.KernelPF) {
		// The handler dereferences a bad pointer in kernel mode with no
		// VMA to back it — the classic CVE-class crash of Fig. 2.
		k.Panic("unhandled #PF in kernel mode at syscall entry")
		done()
		return 0, EKERNELDIED
	}
	if k.fire(faults.StuckCLI) {
		// The handler wedges with interrupts masked; from here on timer
		// ticks pile up in the VIC until the supervisor's watchdog
		// declares the container hung.
		k.VIC.SetEnabled(false)
	}
	r, err := body()
	if k.dead {
		// The body hit a fatal injected fault; there is no kernel left
		// to run the exit flow.
		done()
		return 0, EKERNELDIED
	}
	k.PV.SyscallExit(k)
	done()
	k.maybePreempt()
	return r, err
}

// Getpid is the empty-syscall latency probe (getpid in §7.1).
func (k *Kernel) Getpid() int {
	pid, _ := k.syscall(func() (uint64, error) {
		k.charge(k.Costs.GetpidWork)
		return uint64(k.Cur.PID), nil
	})
	return int(pid)
}

// Open opens (or creates) a tmpfs file and returns a descriptor.
func (k *Kernel) Open(path string, create bool) (int, error) {
	fd, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyOpen)
		ino, err := k.FS.Lookup(path)
		if err != nil && create {
			ino, err = k.FS.Create(path)
		}
		if err != nil {
			return 0, err
		}
		f := &File{kind: kindRegular, inode: ino}
		return uint64(k.Cur.allocFD(f)), nil
	})
	return int(fd), err
}

// Close releases a descriptor.
func (k *Kernel) Close(fd int) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyClose)
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		k.dropFile(f)
		delete(k.Cur.fds, fd)
		return 0, nil
	})
	return err
}

func (k *Kernel) dropFile(f *File) {
	switch f.kind {
	case kindPipeR:
		f.pipe.readers--
	case kindPipeW:
		f.pipe.writers--
	case kindSock:
		f.sock.open = false
	}
}

// Read reads up to n bytes from fd. For a regular file the returned
// slice aliases the file's contents: it is valid until the next write or
// truncate of that file, so callers that keep the bytes must copy them.
func (k *Kernel) Read(fd, n int) ([]byte, error) {
	var out []byte
	_, err := k.syscall(func() (uint64, error) {
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		out, err = k.fileRead(f, n)
		return uint64(len(out)), err
	})
	return out, err
}

// Write writes data to fd.
func (k *Kernel) Write(fd int, data []byte) (int, error) {
	n, err := k.syscall(func() (uint64, error) {
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		wn, err := k.fileWrite(f, data)
		return uint64(wn), err
	})
	return int(n), err
}

// Pread reads at an explicit offset without moving the cursor. Like
// Read, the returned slice aliases the file and is valid until the next
// write or truncate of it.
func (k *Kernel) Pread(fd, n int, off uint64) ([]byte, error) {
	var out []byte
	_, err := k.syscall(func() (uint64, error) {
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind != kindRegular {
			return 0, EINVAL
		}
		saved := f.pos
		f.pos = off
		out, err = k.fileRead(f, n)
		f.pos = saved
		return uint64(len(out)), err
	})
	return out, err
}

// Pwrite writes at an explicit offset without moving the cursor.
func (k *Kernel) Pwrite(fd int, data []byte, off uint64) (int, error) {
	n, err := k.syscall(func() (uint64, error) {
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind != kindRegular {
			return 0, EINVAL
		}
		saved := f.pos
		f.pos = off
		wn, werr := k.fileWrite(f, data)
		f.pos = saved
		return uint64(wn), werr
	})
	return int(n), err
}

// Lseek repositions the file cursor (absolute offsets only).
func (k *Kernel) Lseek(fd int, off uint64) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyLseek)
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind != kindRegular {
			return 0, EINVAL
		}
		f.pos = off
		return off, nil
	})
	return err
}

// StatInfo is the subset of stat the workloads use.
type StatInfo struct {
	Ino  uint64
	Size uint64
}

// Stat looks up a path.
func (k *Kernel) Stat(path string) (StatInfo, error) {
	var si StatInfo
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyStat)
		ino, err := k.FS.Lookup(path)
		if err != nil {
			return 0, err
		}
		si = StatInfo{Ino: ino.Ino, Size: ino.Size()}
		return 0, nil
	})
	return si, err
}

// Fstat stats an open descriptor.
func (k *Kernel) Fstat(fd int) (StatInfo, error) {
	var si StatInfo
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyStat / 2)
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind != kindRegular {
			return 0, EINVAL
		}
		si = StatInfo{Ino: f.inode.Ino, Size: f.inode.Size()}
		return 0, nil
	})
	return si, err
}

// Fsync flushes a file (tmpfs: metadata bookkeeping only, but SQLite
// issues it constantly, so its cost shapes Fig. 14's write workloads).
func (k *Kernel) Fsync(fd int) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyFsync)
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind == kindRegular {
			f.inode.Dirty = false
		}
		return 0, nil
	})
	return err
}

// Unlink removes a file.
func (k *Kernel) Unlink(path string) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyUnlink)
		return 0, k.FS.Remove(path)
	})
	return err
}

// Ftruncate resizes a file.
func (k *Kernel) Ftruncate(fd int, size uint64) error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyTrunc)
		f, err := k.Cur.file(fd)
		if err != nil {
			return 0, err
		}
		if f.kind != kindRegular {
			return 0, EINVAL
		}
		if size <= f.inode.Size() {
			f.inode.Data = f.inode.Data[:size]
		} else {
			f.inode.grow(size)
		}
		return 0, nil
	})
	return err
}

// Poll models an epoll_wait that returns immediately with one ready
// descriptor (the server loops of the I/O workloads).
func (k *Kernel) Poll() error {
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyPoll)
		return 1, nil
	})
	return err
}

// PipePair creates a pipe and returns (read fd, write fd).
func (k *Kernel) PipePair() (int, int, error) {
	var rfd, wfd int
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodyPipe)
		p := &Pipe{capacity: PipeCapacity, readers: 1, writers: 1}
		rfd = k.Cur.allocFD(&File{kind: kindPipeR, pipe: p})
		wfd = k.Cur.allocFD(&File{kind: kindPipeW, pipe: p})
		return 0, nil
	})
	return rfd, wfd, err
}

// SocketPair creates a connected AF_UNIX stream pair.
func (k *Kernel) SocketPair() (int, int, error) {
	var afd, bfd int
	_, err := k.syscall(func() (uint64, error) {
		k.charge(sysBodySock)
		a := &Sock{open: true}
		b := &Sock{open: true}
		a.peer, b.peer = b, a
		afd = k.Cur.allocFD(&File{kind: kindSock, sock: a})
		bfd = k.Cur.allocFD(&File{kind: kindSock, sock: b})
		return 0, nil
	})
	return afd, bfd, err
}

// MmapCall is the syscall-wrapped Mmap.
func (k *Kernel) MmapCall(length uint64, prot Prot, file *Inode, huge bool) (uint64, error) {
	return k.syscall(func() (uint64, error) {
		return k.Mmap(k.Cur, 0, length, prot, file, 0, huge)
	})
}

// MunmapCall is the syscall-wrapped Munmap.
func (k *Kernel) MunmapCall(addr, length uint64) error {
	_, err := k.syscall(func() (uint64, error) {
		return 0, k.Munmap(k.Cur, addr, length)
	})
	return err
}

// MprotectCall is the syscall-wrapped Mprotect.
func (k *Kernel) MprotectCall(addr, length uint64, prot Prot) error {
	_, err := k.syscall(func() (uint64, error) {
		return 0, k.Mprotect(k.Cur, addr, length, prot)
	})
	return err
}

// BrkCall is the syscall-wrapped Brk.
func (k *Kernel) BrkCall(newBrk uint64) (uint64, error) {
	return k.syscall(func() (uint64, error) {
		return k.Brk(k.Cur, newBrk)
	})
}

// Hypercall issues a guest→host request through the runtime's gate and
// counts it (used directly by device code and the microbenchmarks).
func (k *Kernel) Hypercall(nr int, args ...uint64) (uint64, error) {
	if k.dead {
		return 0, EKERNELDIED
	}
	k.Stats.Hypercalls++
	start := k.Clk.Now()
	span := k.Spans.Begin("hypercall")
	r, err := k.PV.Hypercall(k, nr, args...)
	k.Spans.End(span)
	k.Met.ObserveHypercall(k.Clk.Now() - start)
	return r, err
}

// Compute charges pure user-mode computation time (and lets the timer
// preempt long-running loops).
func (k *Kernel) Compute(d clock.Time) {
	k.Phase("compute", d)
	k.maybePreempt()
}
