// Package guest implements the container guest kernel of the simulated
// machine: processes, virtual memory with demand paging, a tmpfs, pipes,
// UNIX sockets, and a syscall interface — everything the paper's
// workloads (lmbench, sqlite-bench, key-value stores, PARSEC-style
// memory kernels) exercise.
//
// The same kernel code runs under every container runtime. What differs
// per runtime is the Paravirt hook table (the analogue of Linux pv_ops,
// which the paper's prototype also uses, §5): how a syscall enters the
// kernel, how a page-table entry is written, how an address space is
// switched, and how the host is invoked. RunC installs direct native
// hooks; HVM routes PTE writes natively but pays EPT faults on first
// touch; PVM bounces syscalls and faults through the host and shadow
// paging; CKI calls its kernel security monitor through PKS gates.
package guest

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/interrupt"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/trace"
)

// Hypercall numbers for guest→host requests.
const (
	HcConsole    = 1 // write to console
	HcPause      = 2 // pause the vCPU (para-virtualized hlt)
	HcSetTimer   = 3 // program the virtual timer
	HcSendIPI    = 4 // cross-vCPU interrupt
	HcVirtioKick = 5 // notify a virtio queue
	HcMemExtend  = 6 // request more physical memory
	HcYield      = 7 // scheduling hint
)

// Paravirt is the runtime-specific hook table (pv_ops). Each method
// both performs the mechanical effect on simulated hardware state and
// charges the runtime's flow cost to the kernel's clock.
type Paravirt interface {
	// Name identifies the runtime ("RunC", "HVM-BM", "PVM-NST", ...).
	Name() string

	// SyscallEnter performs the user→kernel transition for a syscall.
	SyscallEnter(k *Kernel)
	// SyscallExit returns to user mode after a syscall.
	SyscallExit(k *Kernel)

	// FaultEnter delivers a user exception (page fault) to the guest
	// kernel; FaultExit returns to the faulting context.
	FaultEnter(k *Kernel)
	// FaultExit returns from the guest kernel's exception handler.
	FaultExit(k *Kernel)
	// PFHandlerCost is the runtime's fault-handler body cost (host
	// kernels are heavier than container guest kernels; virtualized
	// guests pay gPA-management extras).
	PFHandlerCost(k *Kernel) clock.Time

	// AllocFrame allocates one physical frame of the memory the guest
	// manages (hPA under CKI/RunC, gPA under HVM/PVM).
	AllocFrame(k *Kernel) (mem.PFN, error)
	// FreeFrame releases a frame.
	FreeFrame(k *Kernel, pfn mem.PFN)

	// DeclarePTP registers a frame as a page-table page at the given
	// level before it is linked into a table.
	DeclarePTP(k *Kernel, as *AddrSpace, ptp mem.PFN, level int) error
	// WritePTE stores one page-table entry of the guest's table; va is
	// the virtual address the entry serves (shadow paging syncs on it).
	WritePTE(k *Kernel, as *AddrSpace, level int, va uint64, ptp mem.PFN, idx int, v pagetable.PTE) error
	// RetirePTP unregisters a page-table page when an address space is
	// destroyed.
	RetirePTP(k *Kernel, as *AddrSpace, ptp mem.PFN) error
	// SwitchAS loads the address space (CR3) of the next process.
	SwitchAS(k *Kernel, as *AddrSpace) error
	// FlushPage invalidates one page's cached translation after a PTE
	// downgrade or unmap (invlpg natively; shadow/vTLB maintenance for
	// the virtualized runtimes).
	FlushPage(k *Kernel, as *AddrSpace, va uint64)

	// UserAccess performs one user-mode memory access under the
	// runtime's translation regime. Runtime-internal events (EPT
	// violations, shadow-page syncs) are resolved — and charged —
	// inside; only guest-visible faults are returned.
	UserAccess(k *Kernel, as *AddrSpace, va uint64, acc mmu.Access) *hw.Fault

	// Hypercall invokes the host kernel.
	Hypercall(k *Kernel, nr int, args ...uint64) (uint64, error)

	// DeliverTimerIRQ runs the runtime's timer-interrupt flow (host
	// tick redirected into the guest), driving preemption.
	DeliverTimerIRQ(k *Kernel)

	// FileBackedFaultExtra is the additional first-touch population
	// cost for file-backed mappings over anonymous ones (see the
	// Costs.MmapFileExtra* calibration note).
	FileBackedFaultExtra(k *Kernel) clock.Time
}

// Stats counts guest-kernel events; the benchmark harness reads these
// (e.g. Fig. 14's syscall-frequency series).
type Stats struct {
	Syscalls      uint64
	PageFaults    uint64
	ProtFaults    uint64
	CtxSwitches   uint64
	PTEWrites     uint64
	Hypercalls    uint64
	BytesRead     uint64
	BytesWritten  uint64
	ForkedProcs   uint64
	VirtioKicks   uint64
	FileBackedPFs uint64
	TimerTicks    uint64
	COWFaults     uint64
	Signals       uint64
	// InjectedFaults counts fault-plan firings observed by this kernel;
	// Panics counts transitions to the died state (0 or 1 per boot).
	InjectedFaults uint64
	Panics         uint64
	// TLBShootdowns counts cross-vCPU invalidations this kernel emitted;
	// VCPUMigrations counts vCPU moves of the container.
	TLBShootdowns  uint64
	VCPUMigrations uint64
	// ShareBreaks counts fork-time page shares dissolved by a first
	// write; LazyFaults counts pages materialized on first touch by the
	// lazy-restore path (see fork.go).
	ShareBreaks uint64
	LazyFaults  uint64
}

// ShootdownEmitter is the optional Paravirt upgrade a multi-vCPU
// backend implements: after the local FlushPage of a PTE downgrade, the
// kernel calls EmitShootdown so the runtime invalidates the stale
// translation on every sibling vCPU (the IPI protocol of internal/smp).
// Single-vCPU backends and test fakes simply don't implement it.
type ShootdownEmitter interface {
	EmitShootdown(k *Kernel, as *AddrSpace, va uint64)
}

// remoteFlush propagates a PTE downgrade to sibling vCPUs, if the
// runtime spans any.
func (k *Kernel) remoteFlush(as *AddrSpace, va uint64) {
	// The emitter bumps Stats.TLBShootdowns when a shootdown actually
	// runs (it no-ops on a single-vCPU container).
	if e, ok := k.PV.(ShootdownEmitter); ok {
		e.EmitShootdown(k, as, va)
	}
}

// Kernel is one container guest kernel instance bound to one vCPU.
type Kernel struct {
	PV    Paravirt
	CPU   *hw.CPU
	Clk   *clock.Clock
	Costs *clock.Costs
	// Mem is the physical memory the guest kernel manages (the host's
	// under RunC/CKI, a private gPA space under HVM/PVM).
	Mem *mem.PhysMem

	// ContainerID tags frame ownership and PCIDs.
	ContainerID int

	Cur      *Proc
	procs    map[int]*Proc
	nextPID  int
	nextASID int
	runq     []*Proc

	FS *FS

	kimg *kernelImage

	// cowRefs counts address spaces sharing a frame after ForkCOW.
	cowRefs map[mem.PFN]int

	// ForkSrc, when non-nil, is the fork-from-snapshot page source: it
	// supplies shared backing frames during RestoreImageMode and
	// observes share lifecycle events (the backend wires it to a
	// content-addressed page store). See fork.go.
	ForkSrc ForkPages

	Stats Stats

	// Spans, when non-nil, records hierarchical phase spans for cycle
	// attribution; Met, when non-nil, feeds the flow histograms. Both
	// are nil-safe and never advance the clock, so enabling them does
	// not change any flow's virtual cost.
	Spans *trace.SpanRecorder
	Met   *metrics.FlowMetrics
	// Audit, when non-nil, records mediated PTE updates (with old and
	// readback values) and PTP retirements into the machine audit log.
	// Nil-safe and clock-neutral like Spans/Met.
	Audit *audit.Recorder
	// VCPU is the virtual CPU this kernel currently runs on (0 on a
	// single-core machine; updated by Container.MigrateVCPU).
	VCPU int
	// VIC is the virtual interrupt controller; its enabled bit is the
	// in-memory cli/sti replacement of §4.1, visible to the host.
	VIC *interrupt.Controller
	// Timeslice enables preemptive round-robin scheduling when > 0:
	// a virtual timer tick is delivered (through the runtime's
	// interrupt flow) and the CPU moves to the next runnable process.
	Timeslice clock.Time
	timer     interrupt.Timer

	// Inj, when non-nil, is the fault plan consulted at the kernel's
	// injection sites (see package faults). nil injects nothing.
	Inj faults.Injector
	// dead marks a panicked guest kernel; every syscall thereafter
	// returns EKERNELDIED (see panic.go).
	dead     bool
	panicMsg string

	// dirty, when non-nil, logs pages whose leaf PTEs were stored
	// through the mediated Sink since the last DirtySwap (live
	// migration's pre-dump rounds; see checkpoint.go).
	dirty map[uint64]struct{}
}

// New creates a guest kernel. The caller (a runtime backend) supplies
// the paravirt hooks, the vCPU, and the physical memory view.
func New(pv Paravirt, cpu *hw.CPU, clk *clock.Clock, costs *clock.Costs, m *mem.PhysMem, containerID int) *Kernel {
	k := &Kernel{
		PV:          pv,
		CPU:         cpu,
		Clk:         clk,
		Costs:       costs,
		Mem:         m,
		ContainerID: containerID,
		procs:       make(map[int]*Proc),
		nextPID:     1,
		VIC:         interrupt.New(),
	}
	k.FS = newFS(k)
	return k
}

// Proc is a guest process.
type Proc struct {
	PID    int
	Parent int
	AS     *AddrSpace
	fds    map[int]*File
	nextFD int
	brk    uint64
	// Exited marks a zombie awaiting wait().
	Exited   bool
	ExitCode int
	// Affinity is a vCPU pin (-1 for none). No scheduler reads it;
	// CKISNAP1 snapshots encode it, so it survives checkpoint/restore.
	Affinity int
	// segv is the registered user fault handler (sigaction SIGSEGV).
	segv SegvHandler
}

// VMA protection bits.
type Prot int

// Protection flags for VMAs.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// VMA is one virtual memory area of a process.
type VMA struct {
	Start, End uint64 // [Start, End), page aligned
	Prot       Prot
	// File backs the mapping when non-nil; Off is the file offset of
	// Start. Anonymous otherwise.
	File *Inode
	Off  uint64
	// Huge requests 2 MiB mappings (the Fig. 12 "2M" mode).
	Huge bool
}

// AddrSpace is a process address space: a real page table in simulated
// physical memory plus the VMA list that drives demand paging.
type AddrSpace struct {
	Root mem.PFN
	PCID uint16
	vmas []*VMA
	// ptps tracks the page-table pages owned by this address space so
	// teardown can retire them.
	ptps []mem.PFN
	// mapped counts resident pages (for fork copying and stats).
	mapped map[uint64]mem.PFN
	// mmapCursor is the next free slot in the mmap arena.
	mmapCursor uint64
	// heapVMA caches the brk-managed VMA.
	heapVMA *VMA
	// shared maps resident VAs whose frames came from a fork-time page
	// share (read-only until broken); the value records whether the
	// frame is local to this guest's allocator (see fork.go).
	shared map[uint64]bool
	// lazy holds VAs of image pages whose materialization the lazy
	// restore deferred to first touch; they are not resident.
	lazy map[uint64]struct{}
}

// SharedResident reports how many resident pages are still fork-shared.
func (as *AddrSpace) SharedResident() int { return len(as.shared) }

// LazyPending reports how many image pages remain unmaterialized.
func (as *AddrSpace) LazyPending() int { return len(as.lazy) }

// ResidentFrame reports the physical frame backing va, if resident.
func (as *AddrSpace) ResidentFrame(va uint64) (mem.PFN, bool) {
	pfn, ok := as.mapped[va&^uint64(mem.PageMask)]
	return pfn, ok
}

// FindVMA returns the VMA containing va, or nil.
func (as *AddrSpace) FindVMA(va uint64) *VMA {
	for _, v := range as.vmas {
		if va >= v.Start && va < v.End {
			return v
		}
	}
	return nil
}

// Errno is a guest kernel error code, modelled on errno.
type Errno int

// Errno values used by the syscall layer.
const (
	EOK     Errno = 0
	ENOENT  Errno = 2
	EBADF   Errno = 9
	ECHILD  Errno = 10
	EAGAIN  Errno = 11
	ENOMEM  Errno = 12
	EFAULT  Errno = 14
	EEXIST  Errno = 17
	EINVAL  Errno = 22
	ENFILE  Errno = 23
	EPIPE   Errno = 32
	ENOSYS  Errno = 38
	ENOTDIR Errno = 20
	EISDIR  Errno = 21
	// EKERNELDIED is the sentinel every syscall returns after the guest
	// kernel panicked (numerically ENOTRECOVERABLE): the container is
	// dead but the host and its siblings are not — the Fig. 2 claim.
	EKERNELDIED Errno = 131
)

var errnoNames = map[Errno]string{
	ENOENT: "ENOENT", EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM",
	EFAULT: "EFAULT", EEXIST: "EEXIST", EINVAL: "EINVAL", EPIPE: "EPIPE",
	ENOSYS: "ENOSYS", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", ECHILD: "ECHILD",
	ENFILE: "ENFILE", EKERNELDIED: "EKERNELDIED",
}

func (e Errno) Error() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// charge advances the kernel's virtual clock.
func (k *Kernel) charge(d clock.Time) { k.Clk.Advance(d) }

// Phase charges d to the clock attributed to a named phase span. With
// no span recorder attached it is exactly charge(d): splitting one
// composite advance into per-phase advances never changes the total.
func (k *Kernel) Phase(name string, d clock.Time) {
	if k.Spans == nil {
		k.Clk.Advance(d)
		return
	}
	id := k.Spans.Begin(name)
	k.Clk.Advance(d)
	k.Spans.End(id)
}

// SpanBegin opens a named span on the attached recorder (-1 if none).
func (k *Kernel) SpanBegin(name string) int { return k.Spans.Begin(name) }

// SpanEnd closes a span opened with SpanBegin.
func (k *Kernel) SpanEnd(id int) { k.Spans.End(id) }
