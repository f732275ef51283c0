package repro

// End-to-end integration: one scenario that crosses every layer — boot
// all runtimes, run a mixed workload (files, memory, processes, network,
// preemption), verify identical semantics, and check that the virtual
// times land in the order the paper's evaluation establishes.

import (
	"errors"
	"testing"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// mixedWorkload runs the same program on any container and returns the
// virtual time it took.
func mixedWorkload(t *testing.T, c *backends.Container) clock.Time {
	t.Helper()
	k := c.K
	start := c.Clk.Now()

	// Filesystem phase.
	if err := k.Mkdir("/app"); err != nil {
		t.Fatal(err)
	}
	fd, err := k.OpenAt("/app/store.db", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := k.Pwrite(fd, make([]byte, 256), uint64(i)*256); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Fsync(fd); err != nil {
		t.Fatal(err)
	}

	// Memory phase: demand paging + protection churn.
	addr, err := k.MmapCall(96*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 96*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := k.MprotectCall(addr, 16*mem.PageSize, guest.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(addr, mmu.Write); !errors.Is(err, guest.EFAULT) {
		t.Fatalf("protection not enforced: %v", err)
	}

	// Process phase: COW fork + preemptive round robin.
	child, err := k.ForkCOW()
	if err != nil {
		t.Fatal(err)
	}
	k.EnablePreemption(80 * clock.Microsecond)
	for i := 0; i < 12; i++ {
		k.Compute(30 * clock.Microsecond)
		if err := k.Touch(addr+32*mem.PageSize, mmu.Write); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SwitchToPID(child); err != nil {
		t.Fatal(err)
	}
	if err := k.Exit(0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Wait(); err != nil {
		t.Fatal(err)
	}

	// Network phase: a few request/response rounds over virtio.
	srvFD, ext, err := k.ExternalConn(func() {
		if err := c.VirtioKick(); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.DeliverVirtIRQ()
		ext.Send([]byte("req"))
		if _, err := k.Read(srvFD, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Write(srvFD, []byte("resp")); err != nil {
			t.Fatal(err)
		}
		if _, ok := ext.Recv(); !ok {
			t.Fatal("response lost")
		}
	}
	return c.Clk.Now() - start
}

func TestIntegrationAllRuntimes(t *testing.T) {
	times := map[string]clock.Time{}
	for _, cfg := range append(backends.AllKinds(), struct {
		Kind backends.Kind
		Opts backends.Options
	}{backends.GVisor, backends.Options{}}) {
		c := backends.MustNew(cfg.Kind, cfg.Opts)
		rec := trace.NewSpanRecorder(c.Clk)
		c.Attach(backends.Observers{Spans: rec})
		times[c.Name] = mixedWorkload(t, c)
		// Sanity on the recorded flows.
		phases := map[string]int{}
		for _, s := range rec.Spans() {
			phases[s.Phase]++
		}
		if phases["pagefault"] == 0 || phases["syscall"] == 0 {
			t.Errorf("%s: flows incomplete: %v", c.Name, phases)
		}
		// CKI containers must have clean KSM ledgers after all of this.
		if ksm, _, _, ok := c.CKIInternals(); ok && ksm.Stats.Rejections != 0 {
			t.Errorf("%s: %d KSM rejections in a legal workload", c.Name, ksm.Stats.Rejections)
		}
	}
	// The evaluation's ordering, end to end on a mixed workload.
	if !(times["CKI-BM"] < times["PVM-BM"] && times["PVM-BM"] < times["HVM-NST"]) {
		t.Errorf("ordering violated: %v", times)
	}
	if times["HVM-NST"] < 2*times["CKI-BM"] {
		t.Errorf("nested HVM too close to CKI: %v", times)
	}
	if r := float64(times["CKI-BM"]) / float64(times["RunC"]); r > 1.6 {
		t.Errorf("CKI/RunC = %.2f on mixed workload, want < 1.6 (I/O phase dominates the gap)", r)
	}
}
