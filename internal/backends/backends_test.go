package backends

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// everyRuntime runs f against each runtime configuration of the paper's
// comparison set plus CKI-NST.
func everyRuntime(t *testing.T, f func(t *testing.T, c *Container)) {
	t.Helper()
	set := append(AllKinds(), struct {
		Kind Kind
		Opts Options
	}{CKI, Options{Nested: true}})
	for _, cfg := range set {
		cfg := cfg
		c := MustNew(cfg.Kind, cfg.Opts)
		t.Run(c.Name, func(t *testing.T) { f(t, c) })
	}
}

// Every kind round-trips through String and KindByName in any case, and
// an out-of-range kind names its number instead of passing for CKI.
func TestKindByName(t *testing.T) {
	for k := RunC; k <= GVisor; k++ {
		for _, name := range []string{k.String(), strings.ToLower(k.String()), strings.ToUpper(k.String())} {
			if got, ok := KindByName(name); !ok || got != k {
				t.Errorf("KindByName(%q) = %v, %v; want %v", name, got, ok, k)
			}
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName accepted bogus")
	}
	if s := Kind(9).String(); s != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q, want Kind(9)", s)
	}
}

// TestWorkloadParityAcrossRuntimes: the same program must behave
// identically on every runtime — only its virtual time differs.
func TestWorkloadParityAcrossRuntimes(t *testing.T) {
	everyRuntime(t, func(t *testing.T, c *Container) {
		k := c.K
		// Files.
		fd, err := k.Open("/app.db", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(fd, []byte("state")); err != nil {
			t.Fatal(err)
		}
		got, err := k.Pread(fd, 5, 0)
		if err != nil || string(got) != "state" {
			t.Fatalf("Pread = %q, %v", got, err)
		}
		// Memory.
		addr, err := k.MmapCall(32*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.TouchRange(addr, 32*mem.PageSize, mmu.Write); err != nil {
			t.Fatal(err)
		}
		if k.Stats.PageFaults < 32 {
			t.Errorf("faults = %d, want >= 32", k.Stats.PageFaults)
		}
		// Protection semantics.
		if err := k.MprotectCall(addr, mem.PageSize, guest.ProtRead); err != nil {
			t.Fatal(err)
		}
		if err := k.Touch(addr, mmu.Write); !errors.Is(err, guest.EFAULT) {
			t.Errorf("RO write err = %v, want EFAULT", err)
		}
		// Processes.
		child, err := k.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SwitchToPID(child); err != nil {
			t.Fatal(err)
		}
		if err := k.Touch(addr+mem.PageSize, mmu.Write); err != nil {
			t.Errorf("child copy broken: %v", err)
		}
		if err := k.Exit(0); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLatencyOrdering: the headline qualitative result — CKI's flows are
// as fast as native and strictly faster than PVM and (for faults) HVM.
func TestLatencyOrdering(t *testing.T) {
	syscall := map[string]float64{}
	fault := map[string]float64{}
	everyRuntime(t, func(t *testing.T, c *Container) {
		syscall[c.Name] = c.MeasureSyscall().Nanos()
		f, err := c.MeasureAnonFault(32)
		if err != nil {
			t.Fatal(err)
		}
		fault[c.Name] = f.Nanos()
	})
	if !(syscall["CKI-BM"] <= syscall["RunC"] && syscall["CKI-BM"] < syscall["PVM-BM"]/3) {
		t.Errorf("syscall ordering wrong: %v", syscall)
	}
	if !(fault["CKI-BM"] < fault["HVM-BM"] && fault["CKI-BM"] < fault["PVM-BM"]) {
		t.Errorf("fault ordering wrong: %v", fault)
	}
	if !(fault["HVM-NST"] > 5*fault["HVM-BM"]) {
		t.Errorf("nested HVM fault should collapse: %v", fault)
	}
	if !(fault["PVM-NST"] < 2*fault["PVM-BM"]) {
		t.Errorf("nested PVM fault should stay close to BM: %v", fault)
	}
}

func TestHVMEPTViolationsCounted(t *testing.T) {
	c := MustNew(HVM, Options{})
	b := c.pv.(*hvmPV)
	before := b.EPTViolations
	addr, err := c.K.MmapCall(16*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.TouchRange(addr, 16*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	got := b.EPTViolations - before
	// At least one violation per data page (16), plus PTP touches.
	if got < 16 {
		t.Errorf("EPT violations = %d, want >= 16", got)
	}
	// Second touch round: zero new violations.
	before = b.EPTViolations
	if err := c.K.TouchRange(addr, 16*mem.PageSize, mmu.Read); err != nil {
		t.Fatal(err)
	}
	if b.EPTViolations != before {
		t.Errorf("resident pages re-violated: %d", b.EPTViolations-before)
	}
}

func TestHVMEPTHugeAmortizes(t *testing.T) {
	small := MustNew(HVM, Options{})
	huge := MustNew(HVM, Options{EPTHugePages: true})
	touch := func(c *Container) uint64 {
		b := c.pv.(*hvmPV)
		addr, err := c.K.MmapCall(256*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		before := b.EPTViolations
		if err := c.K.TouchRange(addr, 256*mem.PageSize, mmu.Write); err != nil {
			t.Fatal(err)
		}
		return b.EPTViolations - before
	}
	vSmall, vHuge := touch(small), touch(huge)
	if vHuge*10 > vSmall {
		t.Errorf("EPT hugepages did not amortize: %d vs %d violations", vHuge, vSmall)
	}
}

func TestPVMShadowConsistency(t *testing.T) {
	c := MustNew(PVM, Options{})
	b := c.pv.(*pvmPV)
	k := c.K
	addr, err := k.MmapCall(8*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 8*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if b.ShadowOps == 0 {
		t.Fatal("no shadow operations recorded")
	}
	// Unmapping must drop the shadow mapping too.
	if err := k.MunmapCall(addr, 8*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr, mmu.Read); !errors.Is(err, guest.EFAULT) {
		t.Errorf("stale shadow mapping survived munmap: %v", err)
	}
}

func TestPVMSyscallRedirectionCost(t *testing.T) {
	// The redirection penalty is per-syscall and additive: N syscalls
	// cost ~N× the single-syscall delta against RunC.
	pvm := MustNew(PVM, Options{})
	runc := MustNew(RunC, Options{})
	const n = 100
	start := pvm.Clk.Now()
	for i := 0; i < n; i++ {
		pvm.K.Getpid()
	}
	pvmTotal := (pvm.Clk.Now() - start).Nanos()
	start = runc.Clk.Now()
	for i := 0; i < n; i++ {
		runc.K.Getpid()
	}
	runcTotal := (runc.Clk.Now() - start).Nanos()
	perCall := (pvmTotal - runcTotal) / n
	if perCall < 200 || perCall > 300 {
		t.Errorf("redirection penalty = %.0fns/call, want ~243ns", perCall)
	}
}

func TestCKIStatsPlumbing(t *testing.T) {
	c := MustNew(CKI, Options{})
	b := c.pv.(*ckiPV)
	if b.KSM().Stats.Declares == 0 {
		t.Error("no PTP declarations during boot")
	}
	addr, err := c.K.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	updatesBefore := b.KSM().Stats.PTEUpdates
	if err := c.K.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if b.KSM().Stats.PTEUpdates == updatesBefore {
		t.Error("guest mappings bypassed the KSM")
	}
	if b.KSM().Stats.Rejections != 0 {
		t.Errorf("benign workload triggered %d KSM rejections", b.KSM().Stats.Rejections)
	}
}

func TestCKISegmentHotplug(t *testing.T) {
	// Exhaust the initial delegated segment; the runtime must grow via
	// HcMemExtend rather than fail.
	c := MustNew(CKI, Options{SegmentFrames: 1200, HostFrames: 1 << 16})
	k := c.K
	hcBefore := c.Host.Stats.Hypercalls
	addr, err := k.MmapCall(2048*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 2048*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if c.Host.Stats.Hypercalls == hcBefore {
		t.Error("no hotplug hypercall despite segment exhaustion")
	}
}

func TestCKIDestroyAddrSpaceRetiresTree(t *testing.T) {
	c := MustNew(CKI, Options{})
	b := c.pv.(*ckiPV)
	k := c.K
	if err := k.Execve(4, 4); err != nil {
		t.Fatal(err)
	}
	// Execve destroyed the old AS: its top PTP must be gone from the
	// KSM, and the KSM must not have recorded rejections.
	if b.KSM().Stats.Rejections != 0 {
		t.Errorf("teardown caused %d rejections", b.KSM().Stats.Rejections)
	}
	if err := k.Execve(4, 4); err != nil {
		t.Fatalf("second execve: %v", err)
	}
}

func TestVirtioKickCostOrdering(t *testing.T) {
	// The kick transport is where HVM-NST dies: one MMIO exit forwarded
	// through L0 (§7.3).
	costs := map[string]float64{}
	everyRuntime(t, func(t *testing.T, c *Container) {
		start := c.Clk.Now()
		if err := c.VirtioKick(); err != nil {
			t.Fatal(err)
		}
		costs[c.Name] = (c.Clk.Now() - start).Nanos()
	})
	// CKI's hypercall doorbell beats both HVM's MMIO exit and PVM's
	// MMIO-emulated doorbell (which are comparably expensive).
	if !(costs["CKI-BM"] < costs["HVM-BM"] && costs["CKI-BM"] < costs["PVM-BM"]) {
		t.Errorf("BM kick ordering wrong: %v", costs)
	}
	if !(costs["HVM-NST"] > 6000) {
		t.Errorf("HVM-NST kick = %.0fns, want > 6µs", costs["HVM-NST"])
	}
	if !(costs["CKI-NST"] < 1000) {
		t.Errorf("CKI-NST kick = %.0fns, want < 1µs", costs["CKI-NST"])
	}
}

func TestEmulatePVMSyscallOnCKI(t *testing.T) {
	// §7.3: grafting PVM's syscall latency onto CKI.
	base := MustNew(CKI, Options{})
	emul := MustNew(CKI, Options{EmulatePVMSyscall: true})
	d := emul.MeasureSyscall().Nanos() - base.MeasureSyscall().Nanos()
	if d < 200 || d > 290 {
		t.Errorf("emulated redirection delta = %.0fns, want ~246ns", d)
	}
}
