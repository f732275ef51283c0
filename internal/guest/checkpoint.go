package guest

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
)

// Crash-consistent checkpoint/restore of one guest kernel.
//
// The checkpoint is CRIU-style: it serializes the *logical* kernel
// state — files, processes, VMAs, which pages are resident and what
// their accessed/dirty bits say — and the restore path rebuilds that
// state on a freshly booted container through the ordinary guest APIs.
// Every page-table page is therefore reconstructed through the
// runtime's mediated PTE path (the KSM validates each entry under CKI,
// PVM syncs its shadow, HVM repopulates its EPT), which is what makes a
// restored container indistinguishable from the original at the
// fingerprint level without ever copying raw table frames between
// machines. Physical frame numbers are *not* preserved — they cannot
// be, on a machine whose allocator is in a different state — so
// equality is checked over the PFN-isomorphic canonical form
// (audit.CanonicalFingerprint).

// ErrCheckpoint wraps every reason a kernel refuses to be captured.
type ErrCheckpoint struct{ Reason string }

func (e *ErrCheckpoint) Error() string { return "guest: cannot checkpoint: " + e.Reason }

// FDImage is one open regular-file descriptor.
type FDImage struct {
	FD     int
	Path   string
	Pos    uint64
	Append bool
}

// VMAImage is one virtual memory area.
type VMAImage struct {
	Start, End uint64
	Prot       Prot
	HasFile    bool
	Path       string
	Off        uint64
	Huge       bool
}

// PageImage records one resident page and its leaf accessed/dirty bits.
type PageImage struct {
	VA       uint64
	Accessed bool
	Dirty    bool
}

// ProcImage is one process.
type ProcImage struct {
	PID, Parent int
	Affinity    int
	Exited      bool
	ExitCode    int
	PCID        uint16
	Brk         uint64
	NextFD      int
	MmapCursor  uint64
	// HeapVMA indexes VMAs (-1 when the process has no brk heap).
	HeapVMA  int
	FDs      []FDImage
	VMAs     []VMAImage
	Resident []PageImage
}

// FileImage is one tmpfs inode with its full contents.
type FileImage struct {
	Path  string
	Ino   uint64
	Dir   bool
	Dirty bool
	Data  []byte
}

// Image is the complete logical state of one guest kernel. All slices
// are sorted (files by path, processes by PID, descriptors by fd,
// resident pages by VA), so encoding an Image is deterministic.
type Image struct {
	ContainerID int
	NextPID     int
	NextASID    int
	NextIno     uint64
	// CurPID is the running process (0 when none is runnable).
	CurPID    int
	RunQueue  []int
	Timeslice clock.Time
	Files     []FileImage
	Procs     []ProcImage
}

// ResidentPages counts resident 4 KiB-or-huge mappings in the image.
func (img *Image) ResidentPages() int {
	n := 0
	for i := range img.Procs {
		n += len(img.Procs[i].Resident)
	}
	return n
}

// costCheckpointPage is the per-resident-page scan cost of a
// checkpoint pass (walk the leaf entry, note A/D, queue the copy).
var costCheckpointPage = clock.FromNanos(180)

// CaptureImage snapshots the kernel's logical state at a quiescent
// point. The v1 format refuses states it cannot rebuild exactly: a dead
// kernel, open pipe/socket descriptors, outstanding COW sharings,
// registered SIGSEGV handlers, unlinked-but-open files, and pending
// virtual interrupts all return *ErrCheckpoint.
func (k *Kernel) CaptureImage() (*Image, error) {
	img := new(Image)
	if err := k.CaptureInto(img, new(CaptureScratch)); err != nil {
		return nil, err
	}
	return img, nil
}

// CaptureScratch is the sort scratch of a capture, kept by a caller
// that captures repeatedly.
type CaptureScratch struct {
	paths []string
	pids  []int
	fds   []int
	vas   []uint64
}

// CaptureInto is CaptureImage into a caller-owned image. Every slice of
// img — the run queue, the files and their contents, the processes and
// their descriptors, VMAs and resident pages — is overwritten in place,
// reusing its backing array, so a capture into the previous capture's
// image and scratch allocates nothing once both have grown. A refused
// capture returns *ErrCheckpoint and leaves img partly overwritten.
func (k *Kernel) CaptureInto(img *Image, sc *CaptureScratch) error {
	if k.dead {
		return &ErrCheckpoint{Reason: "kernel has panicked"}
	}
	if len(k.cowRefs) > 0 {
		return &ErrCheckpoint{Reason: "outstanding copy-on-write sharings"}
	}
	for _, p := range k.procs {
		if p.Exited || p.AS == nil {
			continue
		}
		if len(p.AS.shared) > 0 || len(p.AS.lazy) > 0 {
			return &ErrCheckpoint{Reason: fmt.Sprintf(
				"pid %d still holds fork-shared or lazily deferred pages", p.PID)}
		}
	}
	if !k.VIC.Enabled() || k.VIC.Pending() > 0 {
		return &ErrCheckpoint{Reason: "virtual interrupt controller not quiescent"}
	}
	*img = Image{
		ContainerID: k.ContainerID,
		NextPID:     k.nextPID,
		NextASID:    k.nextASID,
		NextIno:     k.FS.nextIno,
		Timeslice:   k.Timeslice,
		RunQueue:    img.RunQueue[:0],
		Files:       img.Files[:0],
		Procs:       img.Procs[:0],
	}
	if k.Cur != nil {
		img.CurPID = k.Cur.PID
	}
	for _, p := range k.runq {
		img.RunQueue = append(img.RunQueue, p.PID)
	}

	sc.paths = slices.Grow(sc.paths[:0], len(k.FS.files))
	for path := range k.FS.files {
		sc.paths = append(sc.paths, path)
	}
	slices.Sort(sc.paths)
	for _, path := range sc.paths {
		ino := k.FS.files[path]
		var fi *FileImage
		img.Files, fi = extend(img.Files)
		*fi = FileImage{
			Path: path, Ino: ino.Ino, Dir: ino.Dir, Dirty: ino.Dirty,
			Data: append(fi.Data[:0], ino.Data...),
		}
		k.charge(copyCost(len(ino.Data)))
	}

	sc.pids = k.AppendPIDs(sc.pids[:0])
	for _, pid := range sc.pids {
		var pi *ProcImage
		img.Procs, pi = extend(img.Procs)
		if err := k.captureProc(k.procs[pid], pi, sc); err != nil {
			return err
		}
	}
	return nil
}

// extend returns s grown by one element and a pointer to it. Within
// s's capacity the element is the one a previous capture left there, so
// the caller can reuse its inner slices; it must overwrite every field.
func extend[T any](s []T) ([]T, *T) {
	s = slices.Grow(s, 1)[:len(s)+1]
	return s, &s[len(s)-1]
}

// captureProc overwrites *pi with process p.
func (k *Kernel) captureProc(p *Proc, pi *ProcImage, sc *CaptureScratch) error {
	*pi = ProcImage{
		PID: p.PID, Parent: p.Parent, Affinity: p.Affinity,
		Exited: p.Exited, ExitCode: p.ExitCode,
		Brk: p.brk, NextFD: p.nextFD, HeapVMA: -1,
		FDs: pi.FDs[:0], VMAs: pi.VMAs[:0], Resident: pi.Resident[:0],
	}
	if p.segv != nil {
		return &ErrCheckpoint{Reason: fmt.Sprintf("pid %d has a registered SIGSEGV handler", p.PID)}
	}
	sc.fds = slices.Grow(sc.fds[:0], len(p.fds))
	for fd := range p.fds {
		sc.fds = append(sc.fds, fd)
	}
	slices.Sort(sc.fds)
	for _, fd := range sc.fds {
		f := p.fds[fd]
		if f.kind != kindRegular {
			return &ErrCheckpoint{Reason: fmt.Sprintf("pid %d fd %d is a pipe or socket", p.PID, fd)}
		}
		if k.FS.files[f.inode.Name] != f.inode {
			return &ErrCheckpoint{Reason: fmt.Sprintf("pid %d fd %d refers to an unlinked file", p.PID, fd)}
		}
		pi.FDs = append(pi.FDs, FDImage{FD: fd, Path: f.inode.Name, Pos: f.pos, Append: f.append_})
	}
	if p.Exited {
		// Zombies have no address space left to capture.
		return nil
	}
	as := p.AS
	pi.PCID = as.PCID
	pi.MmapCursor = as.mmapCursor
	for i, v := range as.vmas {
		vi := VMAImage{Start: v.Start, End: v.End, Prot: v.Prot, Off: v.Off, Huge: v.Huge}
		if v.File != nil {
			if k.FS.files[v.File.Name] != v.File {
				return &ErrCheckpoint{Reason: fmt.Sprintf("pid %d maps an unlinked file", p.PID)}
			}
			vi.HasFile, vi.Path = true, v.File.Name
		}
		pi.VMAs = append(pi.VMAs, vi)
		if v == as.heapVMA {
			pi.HeapVMA = i
		}
	}
	sc.vas = as.AppendResidentVAs(sc.vas[:0])
	for _, va := range sc.vas {
		w, err := pagetable.Translate(k.Mem, as.Root, va)
		if err != nil {
			return &ErrCheckpoint{Reason: fmt.Sprintf("pid %d: resident va %#x unmapped in tables", p.PID, va)}
		}
		leaf := pagetable.ReadEntry(k.Mem, w.Slot.PTP, w.Slot.Index)
		pi.Resident = append(pi.Resident, PageImage{
			VA:       va,
			Accessed: leaf&pagetable.FlagAccessed != 0,
			Dirty:    leaf&pagetable.FlagDirty != 0,
		})
		k.Phase("checkpoint_scan", costCheckpointPage)
	}
	return nil
}

// RestoreImageMode rebuilds the image on this freshly booted kernel.
// The caller must hand in a kernel straight out of boot (one init
// process, nothing resident); everything the image describes is
// reconstructed through the runtime's paravirt hooks, so the mediated
// PTE path — including CKI's KSM validation and top-copy maintenance —
// sees every rebuilt entry. mode is the page policy: RestoreEager
// demand-faults every resident page, RestoreCOW maps them shared
// read-only through the ForkPages hook instead, and RestoreLazy
// additionally defers every page outside prefetch (page-aligned VAs) to
// its first touch. Both sharing modes require a ForkPages hook to be
// installed. Preemption is disabled for the duration and re-armed to
// the image's timeslice at the end.
func (k *Kernel) RestoreImageMode(img *Image, mode RestoreMode, prefetch map[uint64]struct{}) error {
	if k.dead {
		return fmt.Errorf("guest: restore onto a dead kernel")
	}
	if img.ContainerID != k.ContainerID {
		return fmt.Errorf("guest: restore of container %d onto container %d", img.ContainerID, k.ContainerID)
	}
	if mode != RestoreEager && k.ForkSrc == nil {
		return fmt.Errorf("guest: fork-mode restore without a ForkPages hook")
	}
	k.Timeslice = 0
	k.timer.Period = 0

	// Tear down the boot init process; the image replaces it wholesale.
	if k.Cur != nil {
		if err := k.DestroyAddrSpace(k.Cur.AS); err != nil {
			return fmt.Errorf("guest: restore teardown: %w", err)
		}
	}
	k.procs = make(map[int]*Proc)
	k.Cur = nil
	k.runq = nil

	// Each inode shares the image's bytes until its first write copies
	// them (capacity capped, so no append reaches past them). The
	// virtual cost stays the copy a kernel restoring tmpfs pays.
	k.FS.files = make(map[string]*Inode)
	for i := range img.Files {
		fi := &img.Files[i]
		n := len(fi.Data)
		k.FS.files[fi.Path] = &Inode{
			Ino: fi.Ino, Name: fi.Path, Dir: fi.Dir, Dirty: fi.Dirty,
			Data: fi.Data[:n:n], shared: true,
		}
		k.charge(copyCost(len(fi.Data)))
	}
	k.FS.nextIno = img.NextIno

	for i := range img.Procs {
		if err := k.restoreProc(&img.Procs[i], mode, prefetch); err != nil {
			return err
		}
	}

	for _, pid := range img.RunQueue {
		p := k.procs[pid]
		if p == nil {
			return fmt.Errorf("guest: restore: runqueue pid %d unknown", pid)
		}
		k.runq = append(k.runq, p)
	}
	if img.CurPID != 0 {
		p := k.procs[img.CurPID]
		if p == nil {
			return fmt.Errorf("guest: restore: current pid %d unknown", img.CurPID)
		}
		k.Cur = p
		if err := k.PV.SwitchAS(k, p.AS); err != nil {
			return fmt.Errorf("guest: restore: final switch: %w", err)
		}
	}
	k.nextPID = img.NextPID
	k.nextASID = img.NextASID
	if img.Timeslice > 0 {
		k.EnablePreemption(img.Timeslice)
	}
	return nil
}

func (k *Kernel) restoreProc(pi *ProcImage, mode RestoreMode, prefetch map[uint64]struct{}) error {
	p := &Proc{
		PID: pi.PID, Parent: pi.Parent, Affinity: pi.Affinity,
		Exited: pi.Exited, ExitCode: pi.ExitCode,
		fds: make(map[int]*File), nextFD: pi.NextFD, brk: pi.Brk,
	}
	k.procs[p.PID] = p
	for _, fi := range pi.FDs {
		ino, err := k.FS.Lookup(fi.Path)
		if err != nil {
			return fmt.Errorf("guest: restore: pid %d fd %d path %q: %w", pi.PID, fi.FD, fi.Path, err)
		}
		p.fds[fi.FD] = &File{kind: kindRegular, inode: ino, pos: fi.Pos, append_: fi.Append}
	}
	if pi.Exited {
		return nil
	}
	as, err := k.NewAddrSpace()
	if err != nil {
		return fmt.Errorf("guest: restore: pid %d address space: %w", pi.PID, err)
	}
	// The image dictates the PCID (the boot-time ASID sequence differs);
	// nextASID is rewritten after the loop.
	as.PCID = pi.PCID
	as.mmapCursor = pi.MmapCursor
	p.AS = as
	for i := range pi.VMAs {
		vi := &pi.VMAs[i]
		v := &VMA{Start: vi.Start, End: vi.End, Prot: vi.Prot, Off: vi.Off, Huge: vi.Huge}
		if vi.HasFile {
			ino, err := k.FS.Lookup(vi.Path)
			if err != nil {
				return fmt.Errorf("guest: restore: pid %d vma %q: %w", pi.PID, vi.Path, err)
			}
			v.File = ino
		}
		if err := as.addVMA(v); err != nil {
			return fmt.Errorf("guest: restore: pid %d vma [%#x,%#x): %w", pi.PID, vi.Start, vi.End, err)
		}
		if i == pi.HeapVMA {
			as.heapVMA = v
		}
	}
	// Fault every resident page back in through the runtime's demand-
	// paging path, then replay the access that gives the leaf its
	// accessed/dirty bits via the MMU (the only writer of A/D). Fork
	// modes instead map pages shared read-only from the page store —
	// no fault round trip, no fill, no A/D replay (a shared leaf is
	// fresh by construction; the image's dirty bit only means the first
	// write will break the share, which it does anyway).
	k.Cur = p
	if err := k.PV.SwitchAS(k, as); err != nil {
		return fmt.Errorf("guest: restore: pid %d switch: %w", pi.PID, err)
	}
	if mode != RestoreEager {
		as.shared = make(map[uint64]bool)
		if mode == RestoreLazy {
			as.lazy = make(map[uint64]struct{})
		}
	}
	mp := k.mapper(as)
	for _, pg := range pi.Resident {
		v := as.FindVMA(pg.VA)
		if mode != RestoreEager && v != nil && !v.Huge {
			base := pg.VA &^ uint64(mem.PageMask)
			if mode == RestoreLazy {
				if _, hot := prefetch[base]; !hot {
					as.lazy[base] = struct{}{}
					continue
				}
			}
			if err := k.forkMapShared(as, mp, v, base); err != nil {
				return fmt.Errorf("guest: restore: pid %d page %#x: %v", pi.PID, pg.VA, err)
			}
			continue
		}
		if err := k.HandleUserFault(p, pg.VA, pg.Dirty); err != nil {
			return fmt.Errorf("guest: restore: pid %d page %#x: %v", pi.PID, pg.VA, err)
		}
		var acc mmu.Access
		switch {
		case pg.Dirty:
			acc = mmu.Write
		case pg.Accessed:
			acc = mmu.Read
		default:
			continue // freshly mapped leaves carry clear A/D already
		}
		if flt := k.PV.UserAccess(k, as, pg.VA, acc); flt != nil {
			return fmt.Errorf("guest: restore: pid %d page %#x replay: %v", pi.PID, pg.VA, flt)
		}
	}
	return nil
}

// PIDs returns every process ID, sorted (fingerprint walks and
// checkpoint tooling iterate processes in this order).
func (k *Kernel) PIDs() []int {
	return k.AppendPIDs(nil)
}

// AppendPIDs appends every process ID to dst, sorted, and returns the
// extended slice.
func (k *Kernel) AppendPIDs(dst []int) []int {
	start := len(dst)
	dst = slices.Grow(dst, len(k.procs))
	for pid := range k.procs {
		dst = append(dst, pid)
	}
	slices.Sort(dst[start:])
	return dst
}

// ResidentVAs returns the resident page addresses of the address
// space, sorted.
func (as *AddrSpace) ResidentVAs() []uint64 {
	return as.AppendResidentVAs(nil)
}

// AppendResidentVAs appends the resident page addresses to dst, sorted,
// and returns the extended slice.
func (as *AddrSpace) AppendResidentVAs(dst []uint64) []uint64 {
	start := len(dst)
	dst = slices.Grow(dst, len(as.mapped))
	for va := range as.mapped {
		dst = append(dst, va)
	}
	slices.Sort(dst[start:])
	return dst
}

// --- dirty-page tracking ------------------------------------------------

// TrackDirty switches dirty-page logging on or off. While on, every
// mediated leaf-level PTE store (the Sink chokepoint all runtimes'
// table updates funnel through) marks the page it serves; live
// migration's pre-dump rounds read and reset the set with DirtySwap.
// PD-level stores mark their whole 2 MiB region — the conservative
// granule hardware dirty-logging of non-leaf entries implies.
func (k *Kernel) TrackDirty(on bool) {
	if on {
		k.dirty = make(map[uint64]struct{})
	} else {
		k.dirty = nil
	}
}

// DirtyCount reports the number of pages marked since the last swap.
func (k *Kernel) DirtyCount() int { return len(k.dirty) }

// DirtySwap returns the marked pages (sorted) and resets the set.
func (k *Kernel) DirtySwap() []uint64 {
	if k.dirty == nil {
		return nil
	}
	out := make([]uint64, 0, len(k.dirty))
	for va := range k.dirty {
		out = append(out, va)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	k.dirty = make(map[uint64]struct{})
	return out
}

// markDirty is called from the mapper Sink on every mediated PTE store.
func (k *Kernel) markDirty(level int, va uint64) {
	if k.dirty == nil {
		return
	}
	switch level {
	case pagetable.LevelPT:
		k.dirty[va&^uint64(mem.PageMask)] = struct{}{}
	case pagetable.LevelPD:
		k.dirty[va&^uint64(mem.HugePageSize-1)] = struct{}{}
	}
}
