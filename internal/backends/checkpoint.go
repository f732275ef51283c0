package backends

// Checkpoint/restore orchestration (§ robustness): capture a running
// container's logical state into a snapshot.Snapshot, and rebuild a
// running container from one — on the same machine after a crash (warm
// restart) or on a different machine (migration).
//
// The restore path is CRIU-style: nothing is copied frame-by-frame.
// A fresh container is booted through the ordinary runtime boot hooks
// and the image is replayed through the guest kernel's own APIs, so
// every page-table store passes the runtime's mediated chokepoint
// again (KSM validation under CKI, shadow sync under PVM, EPT service
// under HVM). Physical frame numbers are therefore NOT preserved;
// equivalence is established by comparing PFN-isomorphic canonical
// fingerprints (audit.Canon), not raw machine state.

import (
	"fmt"
	"slices"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/snapshot"
	"repro/internal/tlb"
)

// snapConfig mirrors the container's boot options into the snapshot
// header so the restorer can boot an identically configured twin.
func snapConfig(c *Container) snapshot.Config {
	o := c.Opts
	return snapshot.Config{
		Kind:              uint8(c.Kind),
		Runtime:           c.Name,
		Nested:            o.Nested,
		NumVCPU:           o.NumVCPU,
		HostFrames:        o.HostFrames,
		GuestFrames:       o.GuestFrames,
		SegmentFrames:     o.SegmentFrames,
		TLBEntries:        o.TLBEntries,
		EPTHugePages:      o.EPTHugePages,
		WoOPT2:            o.WoOPT2,
		WoOPT3:            o.WoOPT3,
		EmulatePVMSyscall: o.EmulatePVMSyscall,
		HardenKSMGate:     o.HardenKSMGate,
		DesignPKU:         o.DesignPKU,
	}
}

// OptionsFromConfig rebuilds boot options from a snapshot header. The
// audit recorder is not part of the snapshot; a supervisor's warm
// restore boots with the dead container's (see restore).
func OptionsFromConfig(cfg snapshot.Config) Options {
	return Options{
		Nested:            cfg.Nested,
		NumVCPU:           cfg.NumVCPU,
		HostFrames:        cfg.HostFrames,
		GuestFrames:       cfg.GuestFrames,
		SegmentFrames:     cfg.SegmentFrames,
		TLBEntries:        cfg.TLBEntries,
		EPTHugePages:      cfg.EPTHugePages,
		WoOPT2:            cfg.WoOPT2,
		WoOPT3:            cfg.WoOPT3,
		EmulatePVMSyscall: cfg.EmulatePVMSyscall,
		HardenKSMGate:     cfg.HardenKSMGate,
		DesignPKU:         cfg.DesignPKU,
	}
}

// vcpuView is one (CPU, MMU) pair the container can run on.
type vcpuView struct {
	id  int
	cpu *hw.CPU
	mmu *mmu.Unit
}

// appendVCPUViews appends every vCPU of the machine the container sits
// on to dst: the SMP engine's set when one is attached (vCPU 0 wraps
// the machine core), else the machine core alone.
func (c *Container) appendVCPUViews(dst []vcpuView) []vcpuView {
	if c.smp != nil {
		for _, v := range c.smp.VCPUs {
			dst = append(dst, vcpuView{id: v.ID, cpu: v.CPU, mmu: v.MMU})
		}
		return dst
	}
	return append(dst, vcpuView{id: 0, cpu: c.CPU, mmu: c.MMU})
}

// slotVA recovers the base VA of a TLB slot from its VPN.
func slotVA(s tlb.Slot) uint64 {
	if s.Huge {
		return s.VPN << hugeShift
	}
	return s.VPN << mem.PageShift
}

const hugeShift = 21 // log2(mem.HugePageSize)

// captureScratch is what a checkpoint sorts and hashes into. It is
// apart from the snapshot it fills, so a kept snapshot does not pin it;
// a caller that captures repeatedly keeps one and reuses it.
type captureScratch struct {
	image guest.CaptureScratch
	can   audit.Canon
	views []vcpuView
	pids  []int
	vas   []uint64
	slots []tlb.Slot
}

// captureVCPUs overwrites dst with per-vCPU architectural state plus
// the container's user-range TLB tags, reusing each image's TLB slice.
// Only (PCID, VA) tags are stored: frame numbers are machine-bound, and
// TLB coherence guarantees the restorer can re-derive each entry by
// translating the VA through the rebuilt page tables.
func (c *Container) captureVCPUs(dst []snapshot.VCPUImage, sc *captureScratch) []snapshot.VCPUImage {
	id := c.K.ContainerID
	dst = dst[:0]
	sc.views = c.appendVCPUViews(sc.views[:0])
	for _, v := range sc.views {
		n := len(dst)
		dst = slices.Grow(dst, 1)[:n+1]
		img := &dst[n]
		*img = snapshot.VCPUImage{
			ID:         v.id,
			PCID:       v.cpu.PCID(),
			KernelMode: v.cpu.Mode() == hw.ModeKernel,
			PKRU:       uint32(v.cpu.PKRU()),
			TLB:        img.TLB[:0],
		}
		sc.slots = v.mmu.TLB.AppendEntries(sc.slots[:0])
		for _, s := range sc.slots {
			if int(s.PCID>>8) != id {
				continue
			}
			va := slotVA(s)
			if va >= guest.KernBase {
				continue
			}
			img.TLB = append(img.TLB, snapshot.TLBSlotImage{PCID: s.PCID, VA: va})
		}
	}
	return dst
}

// leafFlags packs the aggregated walk permissions and the leaf's
// current A/D bits into the canonical flag word.
func leafFlags(m *mem.PhysMem, w pagetable.Walk) uint64 {
	leaf := pagetable.ReadEntry(m, w.Slot.PTP, w.Slot.Index)
	var f uint64
	if w.Writable {
		f |= 1 << 0
	}
	if w.User {
		f |= 1 << 1
	}
	if w.NX {
		f |= 1 << 2
	}
	if w.Global {
		f |= 1 << 3
	}
	if w.Huge {
		f |= 1 << 4
	}
	if leaf&pagetable.FlagAccessed != 0 {
		f |= 1 << 5
	}
	if leaf&pagetable.FlagDirty != 0 {
		f |= 1 << 6
	}
	return f | uint64(w.PKey)<<8
}

// entryFlags packs a cached translation's permission bits.
func entryFlags(e tlb.Entry) uint64 {
	var f uint64
	if e.Writable {
		f |= 1 << 0
	}
	if e.User {
		f |= 1 << 1
	}
	if e.NX {
		f |= 1 << 2
	}
	if e.Global {
		f |= 1 << 3
	}
	if e.Huge {
		f |= 1 << 4
	}
	return f | uint64(e.PKey)<<8
}

// CanonicalFingerprint computes the PFN-isomorphic fingerprint of the
// container's architectural state: per-vCPU registers, then per live
// process (ascending PID) the root, the kernel-image mappings and every
// resident leaf mapping in ascending VA order, then the user-range TLB
// slots per vCPU in the tlb package's canonical slot order. Physical
// frames are renamed by first appearance (see audit.Canon), so a
// checkpoint and its restoration match even though the restored
// container landed in different frames.
func (c *Container) CanonicalFingerprint() (uint64, error) {
	return c.fingerprint(new(captureScratch))
}

// fingerprint is CanonicalFingerprint over reused scratch.
func (c *Container) fingerprint(sc *captureScratch) (uint64, error) {
	can := &sc.can
	can.Reset()
	id := c.K.ContainerID
	sc.views = c.appendVCPUViews(sc.views[:0])
	for _, v := range sc.views {
		can.VCPU(v.id, v.cpu.PCID(), v.cpu.Mode() == hw.ModeKernel, uint64(v.cpu.PKRU()))
	}
	k := c.K
	sc.pids = k.AppendPIDs(sc.pids[:0])
	for _, pid := range sc.pids {
		p := k.Proc(pid)
		if p.Exited {
			continue
		}
		as := p.AS
		can.Root(as.PCID, uint64(as.Root))
		sc.vas = append(sc.vas[:0], guest.KernBase, guest.KernBase+mem.HugePageSize)
		sc.vas = as.AppendResidentVAs(sc.vas)
		for _, va := range sc.vas {
			w, err := pagetable.Translate(k.Mem, as.Root, va)
			if err != nil {
				return 0, fmt.Errorf("backends: fingerprint walk pid %d va %#x: %w", pid, va, err)
			}
			can.Mapping(as.PCID, va, uint64(w.PFN), leafFlags(k.Mem, w))
		}
	}
	for _, v := range sc.views {
		sc.slots = v.mmu.TLB.AppendEntries(sc.slots[:0])
		for _, s := range sc.slots {
			if int(s.PCID>>8) != id {
				continue
			}
			va := slotVA(s)
			if va >= guest.KernBase {
				continue
			}
			can.TLBSlot(s.PCID, va, entryFlags(s.Entry))
		}
	}
	return can.Sum(), nil
}

// Checkpoint captures the container into a crash-consistent snapshot.
// The guest must be quiescent (no pending virtual interrupts, no
// in-flight COW sharing, no open pipe/socket descriptors); violations
// surface as *guest.ErrCheckpoint.
func Checkpoint(c *Container) (*snapshot.Snapshot, error) {
	snap := new(snapshot.Snapshot)
	if err := c.checkpoint(snap, new(captureScratch)); err != nil {
		return nil, err
	}
	return snap, nil
}

// checkpoint is Checkpoint into a caller-owned snapshot: every slice of
// snap is overwritten in place (see guest.Kernel.CaptureInto), so a
// capture into a previous capture's snapshot, with reused scratch,
// allocates nothing once both have grown. A refused capture leaves snap
// partly overwritten.
func (c *Container) checkpoint(snap *snapshot.Snapshot, sc *captureScratch) error {
	if err := c.K.CaptureInto(&snap.Image, &sc.image); err != nil {
		return err
	}
	fp, err := c.fingerprint(sc)
	if err != nil {
		return err
	}
	snap.Config = snapConfig(c)
	snap.ContainerID = c.K.ContainerID
	snap.Fingerprint = fp
	snap.VCPUs = c.captureVCPUs(snap.VCPUs, sc)
	return nil
}

// CheckpointBytes is Checkpoint followed by snapshot.Encode.
func CheckpointBytes(c *Container) ([]byte, error) {
	s, err := Checkpoint(c)
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(s), nil
}

// Restore rebuilds a running container from a snapshot on machine m.
// The container keeps its snapshotted ID (PCIDs and frame ownership
// tags encode it); on the same machine the caller must have reclaimed
// the dead predecessor's resources first (see Supervisor). The restored
// state is verified against the snapshot's canonical fingerprint before
// the container is handed back.
func Restore(m *Machine, snap *snapshot.Snapshot) (*Container, error) {
	return instantiate(m, snap, snap.ContainerID, guest.RestoreEager, nil, nil, nil)
}

// instantiate is the one snapshot bring-up behind Restore, the
// supervisor's warm restart and ForkFromSnapshot: boot container id on
// m from snap's config with the audit recorder rec attached (exactly as
// a cold boot with Options.Audit would; on a shared machine a nil rec
// detaches the co-resident containers' log), then replay the image in
// host context. Its inputs decide the rest:
//   - an id other than snap.ContainerID rewrites every identity in the
//     image (rewriteForFork);
//   - RestoreCOW and RestoreLazy map pages from store, resolved through
//     idx (snap's own digest index), and under CKI run the whole
//     mapping storm in one gate batch; RestoreEager reads neither;
//   - a kept identity with every page eager is verified against the
//     snapshot's canonical fingerprint. Any other bring-up differs from
//     it by construction (PCIDs, residency).
func instantiate(m *Machine, snap *snapshot.Snapshot, id int, mode guest.RestoreMode,
	idx *snapshot.DigestIndex, store *snapshot.PageStore, rec *audit.Recorder) (*Container, error) {
	if id<<8 > 0xff00 || id < 1 {
		return nil, fmt.Errorf("backends: container ID %d outside the PCID group range", id)
	}
	shared := mode != guest.RestoreEager
	if shared && (idx == nil || !idx.Of(snap)) {
		return nil, fmt.Errorf("backends: copy-on-write and lazy bring-up need the snapshot's own digest index")
	}
	opts := OptionsFromConfig(snap.Config)
	opts.Audit = rec
	c, err := NewOnMachine(m, Kind(snap.Config.Kind), opts, id)
	if err != nil {
		return nil, fmt.Errorf("backends: restore boot: %w", err)
	}
	img, vcpus := &snap.Image, snap.VCPUs
	if id != snap.ContainerID {
		img, vcpus = rewriteForFork(snap, id)
	}
	var prefetch map[uint64]struct{}
	if mode == guest.RestoreLazy {
		prefetch = prefetchSet(vcpus)
	}
	// Restore runs in host context, exactly like boot: the replayed
	// mapping traffic below is host-driven reconstruction, not guest
	// execution.
	c.CPU.SetMode(hw.ModeKernel)
	if f := c.CPU.Wrpkrs(0); f != nil {
		return nil, fmt.Errorf("backends: restore pkrs: %v", f)
	}
	if shared {
		c.K.ForkSrc = &forkPages{
			c:       c,
			store:   store,
			digests: idx,
			local:   c.K.Mem != m.HostMem || c.Kind == CKI,
		}
	}
	replay := func() error { return c.K.RestoreImageMode(img, mode, prefetch) }
	_, gate, _, isCKI := c.CKIInternals()
	batch := shared && isCKI
	if batch {
		// One gate transition for the whole mapping storm (§4.2 legs
		// amortized across every mediated PTE store of the fork).
		err = gate.Batch(replay)
	} else {
		err = replay()
	}
	if err != nil {
		return nil, fmt.Errorf("backends: restore image: %w", err)
	}
	if batch {
		// The batch exit leg restored guest PKRS; the remaining steps
		// run host-side again.
		if f := c.CPU.Wrpkrs(0); f != nil {
			return nil, fmt.Errorf("backends: restore pkrs: %v", f)
		}
	}
	if err := c.refreshTopCopies(); err != nil {
		return nil, err
	}
	if err := c.refillTLB(m, vcpus); err != nil {
		return nil, err
	}
	c.CPU.SetMode(hw.ModeUser)
	if shared || id != snap.ContainerID {
		return c, nil
	}
	fp, err := c.CanonicalFingerprint()
	if err != nil {
		return nil, err
	}
	if fp != snap.Fingerprint {
		return nil, fmt.Errorf("backends: restore fingerprint mismatch: got %#016x want %#016x",
			fp, snap.Fingerprint)
	}
	return c, nil
}

// RestoreBytes decodes blob (verifying the CKISNAP1 checksum) and
// restores it. Corrupt or truncated snapshots come back as clean
// errors, never panics — callers fall back to a cold restart.
func RestoreBytes(m *Machine, blob []byte) (*Container, error) {
	s, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	return Restore(m, s)
}

// refreshTopCopies re-synchronizes CKI's per-vCPU top-level table
// copies after a restore rebuilt the master tables: every declared root
// regains a coherent split view on every vCPU. A no-op for the other
// runtimes, whose address spaces have no per-vCPU split.
func (c *Container) refreshTopCopies() error {
	ksm, _, _, ok := c.CKIInternals()
	if !ok {
		return nil
	}
	k := c.K
	for _, pid := range k.PIDs() {
		p := k.Proc(pid)
		if p.Exited {
			continue
		}
		for v := 0; v < c.Opts.NumVCPU; v++ {
			if _, err := ksm.RefreshTopCopy(p.AS.Root, v); err != nil {
				return fmt.Errorf("backends: restore top-copy pid %d vcpu %d: %w", pid, v, err)
			}
		}
	}
	return nil
}

// refillTLB rebuilds the snapshotted warm-TLB state: the container's
// group is flushed (the restore's own mapping traffic must not leak
// extra entries), then every snapshotted (PCID, VA) tag is re-derived
// by walking the rebuilt tables and inserted into its vCPU's TLB. Each
// refill charges the walk references it performs, like a hardware fill.
func (c *Container) refillTLB(m *Machine, vcpus []snapshot.VCPUImage) error {
	m.FlushContainerTLB(c.K.ContainerID)
	roots := make(map[uint16]*guest.AddrSpace)
	for _, pid := range c.K.PIDs() {
		if p := c.K.Proc(pid); !p.Exited {
			roots[p.AS.PCID] = p.AS
		}
	}
	views := make(map[int]vcpuView)
	var one [1]vcpuView // the machine core: a non-SMP container's only vCPU
	for _, v := range c.appendVCPUViews(one[:0]) {
		views[v.id] = v
	}
	for _, vi := range vcpus {
		view, ok := views[vi.ID]
		if !ok {
			return fmt.Errorf("backends: snapshot references vCPU %d, machine has none", vi.ID)
		}
		for _, slot := range vi.TLB {
			as, ok := roots[slot.PCID]
			if !ok {
				return fmt.Errorf("backends: snapshot TLB tag for unknown PCID %#x", slot.PCID)
			}
			w, err := pagetable.Translate(c.K.Mem, as.Root, slot.VA)
			if err != nil {
				return fmt.Errorf("backends: refill translate pcid %#x va %#x: %w", slot.PCID, slot.VA, err)
			}
			c.Clk.Advance(c.Costs.PTWalkRef * clock.Time(w.Refs))
			view.mmu.TLB.Insert(slot.PCID, slot.VA, tlb.Entry{
				PFN:      w.PFN,
				Writable: w.Writable,
				User:     w.User,
				NX:       w.NX,
				Global:   w.Global,
				Huge:     w.Huge,
				PKey:     w.PKey,
			})
		}
	}
	return nil
}
