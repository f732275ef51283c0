// Package backends assembles runnable secure containers for each of the
// paper's runtimes — RunC (OS-level), HVM (hardware-assisted
// virtualization, bare-metal or nested), PVM (software-based
// virtualization), and CKI — on top of the simulated machine.
//
// Each backend is a guest.Paravirt implementation: the guest kernel code
// is identical across runtimes, and every performance and isolation
// difference comes from how these hooks implement the syscall path, the
// page-fault path, page-table updates, address-space switches and
// hypercalls. The per-flow costs are composed from clock.DefaultCosts
// and are asserted against the paper's Table 2 / Fig. 10 numbers by
// calibration_test.go.
package backends

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/host"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/smp"
	"repro/internal/tlb"
)

// Kind selects a container runtime.
type Kind int

// Runtimes.
const (
	RunC Kind = iota
	HVM
	PVM
	CKI
	// GVisor is the userspace-kernel design point of §2.4.3, included
	// to make the paper's design-space comparison (Fig. 3 / Table 1)
	// executable; it is not part of the quantitative evaluation set.
	GVisor
)

func (k Kind) String() string {
	switch k {
	case RunC:
		return "RunC"
	case HVM:
		return "HVM"
	case PVM:
		return "PVM"
	case CKI:
		return "CKI"
	case GVisor:
		return "gVisor"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName returns the kind whose String matches name without regard
// to case.
func KindByName(name string) (Kind, bool) {
	for k := RunC; k <= GVisor; k++ {
		if strings.EqualFold(k.String(), name) {
			return k, true
		}
	}
	return 0, false
}

// Label is the report name of a container of kind booted with opts:
// the kind, suffixed -BM or -NST for the virtualized kinds.
func Label(kind Kind, opts Options) string {
	switch {
	case kind == RunC || kind == GVisor:
		return kind.String()
	case opts.Nested:
		return kind.String() + "-NST"
	default:
		return kind.String() + "-BM"
	}
}

// Options configures a container.
type Options struct {
	// Nested deploys the container inside an L1 IaaS VM (§2.2). It
	// changes HVM radically (L0 intervention, shadow EPT), PVM and CKI
	// marginally, and is meaningless for RunC.
	Nested bool
	// NumVCPU sizes per-vCPU structures (default 1).
	NumVCPU int
	// HostFrames sizes host physical memory (default 1<<16 ≈ 256 MiB).
	HostFrames int
	// GuestFrames sizes the gPA space of HVM/PVM guests (default 1<<15).
	GuestFrames int
	// SegmentFrames sizes CKI's delegated hPA segment (default 1<<14).
	SegmentFrames int
	// TLBEntries overrides the simulated TLB capacity (default: the
	// tlb package's DefaultCapacity). The TLB-miss-intensive results
	// of Table 4 scale with it.
	TLBEntries int
	// EPTHugePages maps the HVM EPT at 2 MiB granularity (the "huge
	// page mapping for VM memory" mode of Fig. 12 / Table 4).
	EPTHugePages bool
	// WoOPT2 disables CKI's page-table-switch elimination (ablation,
	// Fig. 10b/15): two page-table switches are added per syscall.
	WoOPT2 bool
	// WoOPT3 blocks sysret/swapgs in the CKI guest (ablation): the
	// syscall exit detours through the KSM.
	WoOPT3 bool
	// EmulatePVMSyscall adds PVM's syscall redirection latency on top
	// of CKI (the §7.3 attribution experiment).
	EmulatePVMSyscall bool
	// HardenKSMGate re-adds the PTI-class flush and IBRS barrier to the
	// KSM call gate — the side-channel mitigations §3.3 eliminates
	// because only container-private data is mapped in the KSM. An
	// ablation quantifying what that elimination saves.
	HardenKSMGate bool
	// DesignPKU models the rejected alternative of §3.1: the guest
	// kernel deprivileged to user mode behind PKU instead of kernel
	// mode behind PKS. Syscalls pay wrpkru domain switches and host-
	// injected exceptions pay extra cross-ring switches (~750ns on the
	// paper's testbed).
	DesignPKU bool
	// Audit, when non-nil, records the machine-event log from the first
	// boot-time register write onward, so a replay of the log
	// reconstructs the exact live machine state (see internal/audit).
	// Nil-safe and free of virtual-time cost.
	Audit *audit.Recorder
}

func (o Options) withDefaults() Options {
	if o.NumVCPU == 0 {
		o.NumVCPU = 1
	}
	if o.HostFrames == 0 {
		o.HostFrames = 1 << 16
	}
	if o.GuestFrames == 0 {
		o.GuestFrames = 1 << 15
	}
	if o.SegmentFrames == 0 {
		o.SegmentFrames = 1 << 14
	}
	return o
}

// Container is a booted secure container: a guest kernel with one init
// process, ready to run workloads.
type Container struct {
	Kind  Kind
	Opts  Options
	Name  string
	Costs *clock.Costs
	Clk   *clock.Clock
	CPU   *hw.CPU
	Host  *host.Kernel
	// HostMem is the machine's physical memory.
	HostMem *mem.PhysMem
	// MMU is the host-side MMU (also the guest's under RunC/PVM/CKI,
	// whose translations are single-stage over host memory).
	MMU *mmu.Unit
	// K is the guest kernel; workloads run against it.
	K *guest.Kernel

	// obs is what the container is observed with (see Attach); inj is
	// its fault plan as given to InjectFaults, before audit wrapping.
	obs Observers
	inj faults.Injector

	pv backendPV
	// smp is the machine's multi-vCPU engine (nil on single-core
	// machines); vcpu is the vCPU the container currently runs on.
	smp  *smp.Engine
	vcpu int
	// sdTargets is the reused shootdown broadcast target buffer (one
	// per container; emitShootdown refills it in place per call).
	sdTargets []int
}

// backendPV extends guest.Paravirt with backend-level services the
// harness needs.
type backendPV interface {
	guest.Paravirt
	internalPV
	// DeliverVirtIRQ models a virtual interrupt (e.g. virtio completion)
	// reaching the guest, charging the runtime's delivery flow.
	DeliverVirtIRQ(k *guest.Kernel)
	// KickCost charges one virtio notification through the runtime's
	// transport (MMIO exit vs hypercall) and returns nil on success.
	VirtioKick(k *guest.Kernel) error
}

// Machine is the shared physical substrate containers are booted on:
// one host kernel, one physical memory, one core. New creates a private
// machine per container; NewCluster shares one among many.
type Machine struct {
	Costs   *clock.Costs
	Clk     *clock.Clock
	HostMem *mem.PhysMem
	Host    *host.Kernel
	CPU     *hw.CPU
	MMU     *mmu.Unit
	// SMP is the multi-vCPU engine, attached by EnableSMP. vCPU 0 wraps
	// CPU/MMU, so a machine with an engine behaves identically for
	// single-vCPU containers.
	SMP *smp.Engine
}

// EnableSMP attaches an n-vCPU engine to the machine and wires the
// host's HcSendIPI fan-out into the per-vCPU pending queues. Idempotent
// when the existing engine is already at least n vCPUs wide.
func (m *Machine) EnableSMP(n int) error {
	if m.SMP != nil {
		if m.SMP.NumVCPU() >= n {
			return nil
		}
		return fmt.Errorf("backends: SMP engine already attached with %d vCPUs, want %d", m.SMP.NumVCPU(), n)
	}
	e, err := smp.New(m.Clk, m.Costs, m.HostMem, m.CPU, m.MMU, n)
	if err != nil {
		return err
	}
	m.SMP = e
	m.Host.IPISink = e.Post
	return nil
}

// FlushContainerTLB scrubs the core's TLB — and every SMP vCPU's — of
// entries belonging to container id. Guest PCIDs encode the container
// in their high byte, which also covers the KSM-area translations (the
// gate touches those under the guest's PCID). Reclaiming a container
// calls this so its replacement never resolves through a corpse's page
// tables.
func (m *Machine) FlushContainerTLB(id int) {
	pred := func(pcid uint16) bool { return int(pcid>>8) == id }
	m.MMU.Audit.Emit(audit.EvTLBFlushGroup, 0, 0, uint64(id), 0, 0)
	m.MMU.TLB.FlushIf(pred)
	if m.SMP != nil {
		m.SMP.FlushAllTLBs(pred)
	}
}

// reclaim returns a dead or discarded container's resources to the
// machine: its PCID group leaves every TLB, then its frames are freed,
// and under CKI its KSM's frames too. Only a KSM allocates under
// KSMOwner, and each FreeOwned walks every allocated chunk of host
// memory, so the other runtimes skip that walk.
func (m *Machine) reclaim(kind Kind, id int) {
	m.FlushContainerTLB(id)
	m.HostMem.FreeOwned(id)
	if kind == CKI {
		m.HostMem.FreeOwned(cki.KSMOwner(id))
	}
}

// NewMachine builds a machine. The CPU always carries the PKS hardware
// extensions: they are inert while PKRS is zero, so non-CKI runtimes
// behave identically on it.
func NewMachine(hostFrames, tlbEntries int) (*Machine, error) {
	if hostFrames <= 0 {
		hostFrames = 1 << 16
	}
	costs := clock.DefaultCosts()
	hostMem := mem.New(hostFrames)
	hk, err := host.New(hostMem, costs)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Costs:   costs,
		Clk:     new(clock.Clock),
		HostMem: hostMem,
		Host:    hk,
		CPU:     hw.NewCPU(0, true),
		MMU:     mmu.New(hostMem, costs),
	}
	if tlbEntries > 0 {
		m.MMU.TLB = tlb.New(tlbEntries)
	}
	m.CPU.SetTLBHooks(m.MMU.Hooks())
	return m, nil
}

// New boots a container of the given kind on its own private machine.
func New(kind Kind, opts Options) (*Container, error) {
	opts = opts.withDefaults()
	m, err := NewMachine(opts.HostFrames, opts.TLBEntries)
	if err != nil {
		return nil, err
	}
	return NewOnMachine(m, kind, opts, 1)
}

// NewOnMachine boots a container with the given ID on a shared machine.
// A multi-vCPU container attaches (or reuses) the machine's SMP engine.
func NewOnMachine(m *Machine, kind Kind, opts Options, containerID int) (*Container, error) {
	opts = opts.withDefaults()
	if opts.NumVCPU > 1 {
		if err := m.EnableSMP(opts.NumVCPU); err != nil {
			return nil, err
		}
	}
	c := &Container{
		Kind:    kind,
		Opts:    opts,
		Costs:   m.Costs,
		Clk:     m.Clk,
		Host:    m.Host,
		HostMem: m.HostMem,
		MMU:     m.MMU,
		CPU:     m.CPU,
		smp:     m.SMP,
	}
	c.Name = Label(kind, opts)
	// First attachment stage: the CPU/MMU/engine recorders go live before
	// the boot-time register writes below, so a replay of the log starts
	// from the same fresh-core state the live machine saw.
	c.Attach(Observers{Audit: opts.Audit})
	// Boot runs in host context. CR3 is cleared so the boot flows see
	// the fresh-core state: on a shared machine the core may still hold
	// the previously active container's root, whose address space does
	// not map this container's KSM areas.
	c.CPU.SetMode(hw.ModeKernel)
	if f := c.CPU.Wrpkrs(0); f != nil {
		return nil, f
	}
	if f := c.CPU.WriteCR3(0, 0); f != nil {
		return nil, f
	}
	var pv backendPV
	var err error
	switch kind {
	case RunC:
		pv = newRunCPV(c)
	case HVM:
		pv, err = newHVMPV(c, containerID)
	case PVM:
		pv, err = newPVMPV(c, containerID)
	case CKI:
		pv, err = newCKIPV(c, containerID)
	case GVisor:
		pv, err = newGVisorPV(c, containerID)
	default:
		return nil, fmt.Errorf("backends: unknown kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("backends: booting %s: %w", c.Name, err)
	}
	c.pv = pv
	c.K = guest.New(pv, c.CPU, c.Clk, m.Costs, pv.guestMemory(), containerID)
	// Second stage: the guest kernel and (for CKI) the gate now exist, so
	// the mediated PTE writes of pv.boot land in the log too.
	c.Attach(Observers{Audit: opts.Audit})
	if err := pv.boot(c.K); err != nil {
		return nil, fmt.Errorf("backends: boot hook for %s: %w", c.Name, err)
	}
	if _, err := c.K.StartInit(); err != nil {
		return nil, fmt.Errorf("backends: init process for %s: %w", c.Name, err)
	}
	c.CPU.SetMode(hw.ModeUser)
	return c, nil
}

// Activate restores this container's CPU context after another
// container (or the host) ran on the shared core: the host scheduler's
// world switch plus the runtime's address-space reload.
func (c *Container) Activate() error {
	c.Clk.Advance(c.Costs.RegsSwap + c.Costs.ModeSwitch)
	c.CPU.SetMode(hw.ModeKernel)
	if c.CPU.PKSExt {
		if f := c.CPU.Wrpkrs(0); f != nil {
			return f
		}
	}
	if b, ok := c.pv.(*ckiPV); ok {
		if err := b.hostActivate(c.K); err != nil {
			return err
		}
	} else if err := c.pv.SwitchAS(c.K, c.K.Cur.AS); err != nil {
		return err
	}
	c.CPU.SetMode(hw.ModeUser)
	return nil
}

// InjectFaults attaches a fault plan to this container's guest-side
// injection sites (guest kernel and virtual interrupt controller).
// Host-level sites on a shared machine affect every co-resident
// container and are wired separately via Machine.InjectFaults.
func (c *Container) InjectFaults(inj faults.Injector) {
	c.inj = inj
	// Route firings through the audit chokepoint so injected faults are
	// first-class log events the divergence finder can name.
	inj = audit.WrapInjector(inj, c.obs.Audit)
	c.K.Inj = inj
	c.K.VIC.Inj = inj
}

// InjectFaults attaches a fault plan to the machine-wide sites: the
// host frame allocator and hypercall dispatch. These are shared — a
// firing here is visible to every container on the machine.
func (m *Machine) InjectFaults(inj faults.Injector) {
	m.HostMem.Inj = inj
	m.Host.Inj = inj
}

// MustNew is New, panicking on error (experiments and tests).
func MustNew(kind Kind, opts Options) *Container {
	c, err := New(kind, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// CKIInternals exposes the KSM, call gate and switcher of a CKI
// container for security experiments; ok is false for other runtimes.
func (c *Container) CKIInternals() (ksm *cki.KSM, gate *cki.Gate, sw *cki.Switcher, ok bool) {
	b, isCKI := c.pv.(*ckiPV)
	if !isCKI {
		return nil, nil, nil, false
	}
	return b.ksm, b.gate, b.sw, true
}

// MigrateVCPU moves the container's execution to another virtual CPU.
// The host scheduler saves register state on the old core, the runtime
// pays its own reload flow on the new one (a cold-TLB refill natively,
// a VMCS reload on top under HVM, a verified per-vCPU CR3 copy under
// CKI — the Fig. 8c machinery), and the container's CPU/MMU bindings
// move to the target vCPU when the machine has an SMP engine.
func (c *Container) MigrateVCPU(v int) error {
	if v < 0 || v >= c.Opts.NumVCPU {
		return fmt.Errorf("backends: vCPU %d out of range (%d configured)", v, c.Opts.NumVCPU)
	}
	c.Clk.Advance(c.Costs.RegsSwap + c.pv.migrationCost())
	mode := c.CPU.Mode()
	root, pcid := c.CPU.CR3(), c.CPU.PCID()
	if c.smp != nil && v < c.smp.NumVCPU() {
		t := c.smp.VCPUs[v]
		t.Stats.MigrationsIn++
		c.CPU = t.CPU
		c.MMU = t.MMU
		c.K.CPU = t.CPU
	}
	c.vcpu = v
	c.K.VCPU = v
	c.K.Stats.VCPUMigrations++
	// Context restore runs in kernel mode (the host's scheduler moving
	// the vCPU thread).
	c.CPU.SetMode(hw.ModeKernel)
	if c.CPU.PKSExt {
		if f := c.CPU.Wrpkrs(0); f != nil {
			return f
		}
	}
	if b, ok := c.pv.(vcpuAware); ok {
		b.setVCPU(v)
	}
	if b, ok := c.pv.(*ckiPV); ok {
		// Reload this vCPU's validated top-level copy.
		if err := b.hostActivate(c.K); err != nil {
			return err
		}
	} else if f := c.CPU.WriteCR3(root, pcid); f != nil {
		return f
	}
	c.CPU.SetMode(mode)
	return nil
}

// VCPU reports the container's current virtual CPU.
func (c *Container) VCPU() int { return c.vcpu }

// SMPEngine exposes the machine's multi-vCPU engine (nil on
// single-core machines) for experiments and stat collection.
func (c *Container) SMPEngine() *smp.Engine { return c.smp }

// watchdogWedgeTicks is how many pending ticks a hung shootdown
// initiator piles onto its masked VIC — comfortably above the default
// watchdog HangTicks, so the supervisor declares the kernel hung.
const watchdogWedgeTicks = 8

// vcpuMask packs a target list into an IPI destination bitmask.
func vcpuMask(targets []int) uint64 {
	var m uint64
	for _, t := range targets {
		m |= 1 << uint(t)
	}
	return m
}

// emitShootdown drives the TLB-shootdown protocol for one mediated PTE
// downgrade. Containers spanning a single vCPU have no remote TLBs and
// return immediately (FlushPage already invalidated locally). A hung
// initiator — every resend lost — spins forever on real hardware; here
// the virtual-IF bit is masked and ticks pile up so the supervisor's
// watchdog catches and recycles the container.
func (c *Container) emitShootdown(k *guest.Kernel, spec smp.ShootdownSpec) {
	if c.smp == nil || c.Opts.NumVCPU < 2 {
		return
	}
	spec.Initiator = c.vcpu
	c.sdTargets = c.smp.OthersInto(c.sdTargets[:0], c.vcpu, c.Opts.NumVCPU)
	spec.Targets = c.sdTargets
	if len(spec.Targets) == 0 {
		return
	}
	spec.Inj = k.Inj
	k.Stats.TLBShootdowns++
	if _, err := c.smp.Shootdown(spec); err != nil {
		k.VIC.SetEnabled(false)
		for i := 0; i < watchdogWedgeTicks; i++ {
			k.VIC.Post(hw.VectorTimer)
		}
	}
}

// DeliverVirtIRQ exposes the runtime's virtual-interrupt delivery flow.
// An injected faults.IRQDrop loses the interrupt in the virtual
// controller: the guest never pays the delivery flow, and the audit log
// of a chaos run diverges at exactly this point — the seed-sensitive
// site that makes different-seed runs distinguishable under ckireplay.
func (c *Container) DeliverVirtIRQ() {
	if c.K.Fire(faults.IRQDrop) {
		return
	}
	c.pv.DeliverVirtIRQ(c.K)
}

// VirtioKick charges one virtio doorbell through the runtime transport.
func (c *Container) VirtioKick() error { return c.pv.VirtioKick(c.K) }

// AllKinds enumerates six runtime configurations: HVM-NST, PVM-NST,
// RunC, HVM-BM, PVM-BM and CKI. The backends tests and the root
// integration test and Example iterate over it. The paper's
// tables and figures pick their runtimes by label from the bench
// package's own table instead.
func AllKinds() []struct {
	Kind Kind
	Opts Options
} {
	return []struct {
		Kind Kind
		Opts Options
	}{
		{HVM, Options{Nested: true}},
		{PVM, Options{Nested: true}},
		{RunC, Options{}},
		{HVM, Options{}},
		{PVM, Options{}},
		{CKI, Options{}},
	}
}

// internalPV is the additional surface each backend implements for
// container assembly.
type internalPV interface {
	// guestMemory returns the physical memory the guest kernel manages.
	guestMemory() *mem.PhysMem
	// boot runs once before the init process is created.
	boot(k *guest.Kernel) error
	// migrationCost is what moving the vCPU to another core costs this
	// runtime on top of the host's register swap.
	migrationCost() clock.Time
}

// vcpuAware backends track which vCPU they run on (per-vCPU state:
// CKI's validated CR3 copies and call-gate binding, HVM's private
// virtual TLBs). setVCPU runs after the container's CPU/MMU have been
// rebound to the target vCPU.
type vcpuAware interface{ setVCPU(v int) }
