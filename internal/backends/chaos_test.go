package backends

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// Fault injection, panic containment, and supervision. These tests pin
// the paper's Fig. 2 claim: a guest-kernel crash is a DoS of exactly
// one container; the host, the physical allocator, and co-resident
// containers (including their KSM invariants) are untouched.

// smallWork is a mixed read/write/syscall/memory workload round.
func smallWork(c *Container) error {
	k := c.K
	fd, err := k.Open("/chaos", true)
	if err != nil {
		return err
	}
	if _, err := k.Write(fd, []byte("0123456789abcdef")); err != nil {
		return err
	}
	if _, err := k.Pread(fd, 8, 0); err != nil {
		return err
	}
	if err := k.Close(fd); err != nil {
		return err
	}
	addr, err := k.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		return err
	}
	if err := k.MunmapCall(addr, 4*mem.PageSize); err != nil {
		return err
	}
	if pid := k.Getpid(); pid == 0 && k.Died() {
		return guest.EKERNELDIED
	}
	return nil
}

func TestFig2DoSContainment(t *testing.T) {
	cl, err := NewCluster(1 << 17)
	if err != nil {
		t.Fatal(err)
	}
	// One container per runtime family: CKI (per-container kernel with
	// KSM), HVM (hardware virtualization), PVM (software
	// virtualization). A is the crash victim.
	a, err := cl.Add(CKI, Options{SegmentFrames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Add(HVM, Options{GuestFrames: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	cc, err := cl.Add(CKI, Options{SegmentFrames: 2048})
	if err != nil {
		t.Fatal(err)
	}

	// A's 3rd syscall raises an unhandled kernel-mode #PF.
	plan := faults.NewPlan(42, faults.Rule{Site: faults.KernelPF, Nth: 3})
	a.InjectFaults(plan)

	// Snapshot sibling C's KSM state before the crash.
	ksmC, _, _, ok := cc.CKIInternals()
	if !ok {
		t.Fatal("sibling C is not CKI")
	}
	rejBefore := ksmC.Stats.Rejections

	var dieErr error
	if err := cl.Run(0, func(c *Container) error {
		for i := 0; i < 10; i++ {
			if _, err := c.K.Open("/f", true); err != nil {
				dieErr = err
				return nil
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dieErr, guest.EKERNELDIED) {
		t.Fatalf("victim syscall err = %v, want EKERNELDIED", dieErr)
	}
	if !a.K.Died() {
		t.Fatal("victim kernel not marked died")
	}
	if !strings.Contains(a.K.PanicReason(), "#PF") {
		t.Errorf("panic reason = %q", a.K.PanicReason())
	}
	// Every subsequent syscall on A keeps returning the sentinel.
	for i := 0; i < 3; i++ {
		if _, err := a.K.Open("/again", true); !errors.Is(err, guest.EKERNELDIED) {
			t.Fatalf("post-panic syscall err = %v, want EKERNELDIED", err)
		}
	}
	if err := a.K.Touch(guest.UserMmapBase, mmu.Read); !errors.Is(err, guest.EKERNELDIED) {
		t.Fatalf("post-panic touch err = %v, want EKERNELDIED", err)
	}

	// Siblings B and C keep serving a read/write/syscall workload.
	for r := 0; r < 5; r++ {
		for i := 1; i <= 2; i++ {
			if err := cl.Run(i, smallWork); err != nil {
				t.Fatalf("sibling %d round %d: %v", i, r, err)
			}
		}
	}
	// C's KSM invariants are untouched by A's death: no new rejections,
	// and its root PTP is still declared and loadable.
	if ksmC.Stats.Rejections != rejBefore {
		t.Errorf("sibling KSM rejections changed: %d -> %d", rejBefore, ksmC.Stats.Rejections)
	}
	if !ksmC.IsDeclared(cc.K.Cur.AS.Root) {
		t.Error("sibling root PTP no longer declared")
	}
	if _, err := ksmC.LoadCR3(cc.VCPU(), cc.K.Cur.AS.Root); err != nil {
		t.Errorf("sibling CR3 validation broken: %v", err)
	}

	// The supervisor restarts A within its backoff budget (virtual
	// time) and the replacement serves again.
	pol := DefaultRestartPolicy()
	sup := NewSupervisor(cl, pol)
	if err := sup.Supervise(4, func(_ int, c *Container) error { return smallWork(c) }); err != nil {
		t.Fatal(err)
	}
	h := sup.Health[0]
	if h.Crashes != 1 {
		t.Errorf("victim crashes = %d, want 1", h.Crashes)
	}
	if h.Restarts != 1 {
		t.Fatalf("victim restarts = %d, want 1", h.Restarts)
	}
	if h.MTTR() < pol.InitialBackoff || h.MTTR() > pol.MaxBackoff {
		t.Errorf("MTTR %v outside backoff budget [%v, %v]", h.MTTR(), pol.InitialBackoff, pol.MaxBackoff)
	}
	if h.RoundsOK == 0 {
		t.Error("restarted victim never served a round")
	}
	replacement := cl.Containers[0]
	if replacement == a {
		t.Fatal("victim was not replaced")
	}
	if err := cl.Run(0, smallWork); err != nil {
		t.Errorf("replacement cannot serve: %v", err)
	}
	// Siblings were never disturbed.
	for i := 1; i <= 2; i++ {
		if sup.Health[i].Crashes != 0 || sup.Health[i].Collateral != 0 {
			t.Errorf("sibling %d recorded crashes=%d collateral=%d",
				i, sup.Health[i].Crashes, sup.Health[i].Collateral)
		}
	}
}

// TestRunCCollateral pins the Fig. 2 contrast: an OS-level container
// shares the host kernel, so its kernel panic kills every co-resident
// container.
func TestRunCCollateral(t *testing.T) {
	cl, err := NewCluster(1 << 17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Add(RunC, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Add(CKI, Options{SegmentFrames: 2048}); err != nil {
		t.Fatal(err)
	}
	cl.Containers[0].InjectFaults(faults.NewPlan(7, faults.Rule{Site: faults.KernelPF, Nth: 2}))

	sup := NewSupervisor(cl, DefaultRestartPolicy())
	if err := sup.Supervise(3, func(_ int, c *Container) error { return smallWork(c) }); err != nil {
		t.Fatal(err)
	}
	if sup.Health[0].Crashes == 0 {
		t.Fatal("RunC container never crashed")
	}
	if sup.Health[1].Collateral == 0 {
		t.Error("CKI sibling survived a host kernel panic (RunC shares the host kernel)")
	}
	if sup.Health[1].Crashes != 0 {
		t.Errorf("sibling death misattributed as own crash (%d)", sup.Health[1].Crashes)
	}
}

// TestWatchdogDeclaresHungContainer: a StuckCLI fault leaves the guest
// with interrupts masked; ticks pile up in the VIC until the watchdog
// panics and the supervisor replaces it.
func TestWatchdogDeclaresHungContainer(t *testing.T) {
	cl, err := NewCluster(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Add(CKI, Options{SegmentFrames: 2048})
	if err != nil {
		t.Fatal(err)
	}
	c.InjectFaults(faults.NewPlan(3, faults.Rule{Site: faults.StuckCLI, Nth: 5}))

	pol := DefaultRestartPolicy()
	pol.WatchdogSlice = 10 * clock.Microsecond
	sup := NewSupervisor(cl, pol)
	if err := sup.Supervise(40, func(_ int, c *Container) error {
		c.K.Compute(20 * clock.Microsecond)
		return smallWork(c)
	}); err != nil {
		t.Fatal(err)
	}
	h := sup.Health[0]
	if h.Crashes == 0 {
		t.Fatal("watchdog never fired")
	}
	if !strings.Contains(h.LastPanic, "watchdog") {
		t.Errorf("panic reason = %q, want watchdog", h.LastPanic)
	}
	if h.Restarts == 0 {
		t.Error("hung container was not restarted")
	}
}

// TestRestartReclaimsFrames: crash/restart cycles must not leak
// physical memory or exhaust the contiguous segment region.
func TestRestartReclaimsFrames(t *testing.T) {
	cl, err := NewCluster(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Add(CKI, Options{SegmentFrames: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.InjectFaults(faults.NewPlan(1, faults.Rule{Site: faults.KernelPF, Every: 10}))

	baseline := cl.M.HostMem.InUse()
	sup := NewSupervisor(cl, DefaultRestartPolicy())
	if err := sup.Supervise(60, func(_ int, c *Container) error { return smallWork(c) }); err != nil {
		t.Fatal(err)
	}
	if sup.Health[0].Restarts < 3 {
		t.Fatalf("restarts = %d, want several (Every=10 syscalls)", sup.Health[0].Restarts)
	}
	// Each generation boots into reclaimed frames: in-use memory stays
	// near the single-container baseline instead of growing per crash.
	if inUse := cl.M.HostMem.InUse(); inUse > baseline*2 {
		t.Errorf("frames leaked across restarts: baseline %d, now %d", baseline, inUse)
	}
}

// TestBackoffGrowsAndCaps: repeated crashes double the downtime until
// MaxBackoff; MaxRestarts eventually gives up.
func TestBackoffGrowsAndCaps(t *testing.T) {
	cl, err := NewCluster(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Add(HVM, Options{GuestFrames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	// Crash on the first syscall of every generation.
	c.InjectFaults(faults.NewPlan(5, faults.Rule{Site: faults.KernelPF, Every: 1}))
	pol := DefaultRestartPolicy()
	pol.InitialBackoff = clock.Millisecond
	pol.MaxBackoff = 4 * clock.Millisecond
	pol.MaxRestarts = 3
	sup := NewSupervisor(cl, pol)
	if err := sup.Supervise(20, func(_ int, c *Container) error { return smallWork(c) }); err != nil {
		t.Fatal(err)
	}
	h := sup.Health[0]
	if !h.GaveUp {
		t.Fatal("supervisor never gave up despite MaxRestarts=3")
	}
	if h.Restarts != 3 {
		t.Errorf("restarts = %d, want exactly MaxRestarts", h.Restarts)
	}
	// Downtimes 1ms + 2ms + 4ms (capped) = 7ms total, plus scheduling
	// slack from round boundaries.
	if h.TotalDowntime < 7*clock.Millisecond {
		t.Errorf("total downtime %v, want >= 7ms (1+2+4 backoff)", h.TotalDowntime)
	}
}

// TestClusterAddActivates is the regression test for the Add
// bookkeeping fix: Add must leave the new container genuinely
// activated (deprivileged under CKI), because the first Run on it
// skips Activate.
func TestClusterAddActivates(t *testing.T) {
	cl, err := NewCluster(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Add(CKI, Options{SegmentFrames: 2048}); err != nil {
		t.Fatal(err)
	}
	// Before the fix, boot left PKRS=0: the guest retained full KSM
	// rights and the first Run would execute deprivileged-guest code
	// with monitor privileges.
	if got := cl.M.CPU.PKRS(); got != cki.PKRSGuest {
		t.Fatalf("PKRS after Add = %v, want PKRSGuest %v", got, cki.PKRSGuest)
	}
	// The first Run (active container, Activate skipped) still serves.
	if err := cl.Run(0, smallWork); err != nil {
		t.Fatal(err)
	}
	if got := cl.M.CPU.PKRS(); got != cki.PKRSGuest {
		t.Errorf("PKRS after first Run = %v, want PKRSGuest", got)
	}
}

// TestFaultPlanDeterministicTrace: same seed + plan ⇒ byte-identical
// virtual-time audit log and span list, including the injected faults;
// the panic they cause is counted by the kernel.
func TestFaultPlanDeterministicTrace(t *testing.T) {
	run := func() (string, *Container) {
		rec := audit.NewRecorder(nil)
		c := MustNew(CKI, Options{HostFrames: 1 << 14, SegmentFrames: 2048, Audit: rec})
		spans := trace.NewSpanRecorder(c.Clk)
		c.Attach(Observers{Spans: spans, Audit: rec})
		c.InjectFaults(faults.NewPlan(0xc0ffee,
			faults.Rule{Site: faults.VirtioKick, Every: 3},
			faults.Rule{Site: faults.FrameAlloc, Every: 7},
			faults.Rule{Site: faults.KernelPF, Nth: 40},
		))
		for i := 0; i < 60; i++ {
			_ = smallWork(c)
		}
		var b strings.Builder
		b.WriteString(c.Clk.Now().String() + "\n")
		for _, e := range rec.Events() {
			b.WriteString(e.String() + "\n")
		}
		js, err := trace.SpansJSON(spans.Spans())
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)
		return b.String(), c
	}
	a, c := run()
	if b, _ := run(); a != b {
		t.Fatalf("same seed produced different traces:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, audit.EvInjected.String()) {
		t.Error("audit log missing injected-fault events")
	}
	if !c.K.Died() || c.K.Stats.Panics != 1 || c.K.Stats.InjectedFaults == 0 {
		t.Errorf("died=%v panics=%d injected=%d, want a panic caused by injected faults",
			c.K.Died(), c.K.Stats.Panics, c.K.Stats.InjectedFaults)
	}
}
