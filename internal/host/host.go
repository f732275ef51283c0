// Package host implements the host kernel (hypervisor side) of the
// simulated machine: physical-memory provisioning for containers,
// hypercall dispatch, hardware-interrupt handling, and the virtio device
// backends. In a nested cloud this code plays the role of the L1 kernel;
// the extra L0 round trips of nested HVM are charged by the HVM backend,
// not here, because CKI and PVM exits never reach L0 (§3.3).
package host

import (
	"errors"
	"fmt"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/mem"
)

// Stats counts host-kernel events.
type Stats struct {
	Hypercalls  uint64
	IRQs        uint64
	Consoles    uint64
	Pauses      uint64
	TimerSets   uint64
	IPIs        uint64
	VirtioKicks uint64
}

// Kernel is the host kernel of one simulated machine.
type Kernel struct {
	Mem   *mem.PhysMem
	Costs *clock.Costs
	// Root is the host's own page-table root (PCID 0). Its contents are
	// minimal: the host's flows never fault in the simulation.
	Root mem.PFN

	// Inj, when non-nil, can fail hypercall dispatch with a transient
	// ErrHypercallFault (faults.Hypercall).
	Inj faults.Injector

	// IPISink, when non-nil, receives every per-target IPI of an
	// HcSendIPI fan-out (the SMP engine installs it to post VectorIPI
	// into the target vCPU's pending queue).
	IPISink func(target, vector int)

	Stats Stats
}

// ErrHypercallFault is the transient failure injected at the hypercall
// dispatch site.
var ErrHypercallFault = errors.New("host: transient hypercall failure (injected)")

// New creates a host kernel over m.
func New(m *mem.PhysMem, costs *clock.Costs) (*Kernel, error) {
	root, err := m.Alloc(mem.NoOwner)
	if err != nil {
		return nil, fmt.Errorf("host: allocating root: %w", err)
	}
	return &Kernel{
		Mem:   m,
		Costs: costs,
		Root:  root,
	}, nil
}

// DelegateSegment provisions a contiguous physical segment to container
// owner — the hPA delegation CKI's guest memory managers run on (§4.3).
func (k *Kernel) DelegateSegment(frames, owner int) (mem.Segment, error) {
	return k.Mem.AllocSegment(frames, owner)
}

// Hypercall numbers handled here mirror guest.Hc*. The dispatch cost is
// charged by the runtime's gate; this method charges only per-request
// body work.
const (
	HcConsole    = 1
	HcPause      = 2
	HcSetTimer   = 3
	HcSendIPI    = 4
	HcVirtioKick = 5
	HcMemExtend  = 6
	HcYield      = 7
)

// hypercall body costs (host kernel software).
var (
	bodyConsole = clock.FromNanos(180)
	bodyPause   = clock.FromNanos(220)
	bodyTimer   = clock.FromNanos(90)
	bodyIPI     = clock.FromNanos(140)
	bodyKick    = clock.FromNanos(120)
	bodyExtend  = clock.FromNanos(700)
)

// Hypercall services a guest request. The args convention per call is
// documented at each case.
func (k *Kernel) Hypercall(clk *clock.Clock, nr int, args ...uint64) (uint64, error) {
	k.Stats.Hypercalls++
	if k.Inj != nil && k.Inj.Fire(faults.Hypercall) {
		return 0, ErrHypercallFault
	}
	switch nr {
	case HcConsole:
		clk.Advance(bodyConsole)
		k.Stats.Consoles++
		return 0, nil
	case HcPause:
		clk.Advance(bodyPause)
		k.Stats.Pauses++
		return 0, nil
	case HcSetTimer:
		clk.Advance(bodyTimer)
		k.Stats.TimerSets++
		return 0, nil
	case HcSendIPI:
		// args convention: (targetMask, vector). The host validates and
		// fans the IPI out core by core, charging the APIC programming
		// per target; legacy single-target callers pass no args.
		if len(args) >= 2 && args[0] != 0 {
			mask, vector := args[0], int(args[1])
			for t := 0; mask != 0; t, mask = t+1, mask>>1 {
				if mask&1 == 0 {
					continue
				}
				clk.Advance(bodyIPI)
				k.Stats.IPIs++
				if k.IPISink != nil {
					k.IPISink(t, vector)
				}
			}
			return 0, nil
		}
		clk.Advance(bodyIPI)
		k.Stats.IPIs++
		return 0, nil
	case HcVirtioKick:
		clk.Advance(bodyKick)
		k.Stats.VirtioKicks++
		// The queue drain itself is driven by the caller (the virtqueue
		// wrapper) so the device can run in guest-visible memory.
		return 0, nil
	case HcMemExtend:
		clk.Advance(bodyExtend)
		if len(args) != 2 {
			return 0, fmt.Errorf("host: HcMemExtend wants (frames, owner)")
		}
		seg, err := k.Mem.AllocSegment(int(args[0]), int(args[1]))
		if err != nil {
			return 0, err
		}
		return uint64(seg.Base), nil
	case HcYield:
		clk.Advance(bodyTimer)
		return 0, nil
	default:
		return 0, fmt.Errorf("host: unknown hypercall %d", nr)
	}
}

// HandleIRQ performs the host's generic hardware-interrupt bookkeeping.
func (k *Kernel) HandleIRQ(clk *clock.Clock, vector int) {
	k.Stats.IRQs++
	clk.Advance(k.Costs.IRQHostWork)
}
