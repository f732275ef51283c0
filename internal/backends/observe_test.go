package backends

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/trace"
)

func driveObserved(t *testing.T, c *Container) {
	t.Helper()
	c.K.Getpid()
	addr, err := c.K.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.K.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if err := c.K.MunmapCall(addr, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
}

// Attaching the observability layer must not move the virtual clock by
// a single picosecond: an observed container and an identical
// unobserved one end the same workload at the same virtual time.
func TestObserveCostsZeroVirtualTime(t *testing.T) {
	for _, kind := range []Kind{RunC, HVM, PVM, CKI, GVisor} {
		base := MustNew(kind, Options{NumVCPU: 2})
		obs := MustNew(kind, Options{NumVCPU: 2})
		reg := metrics.NewRegistry()
		rec := trace.NewSpanRecorder(obs.Clk)
		obs.Attach(Observers{Spans: rec, Flow: metrics.NewFlowMetrics(reg, metrics.L("runtime", obs.Name))})

		driveObserved(t, base)
		driveObserved(t, obs)
		if base.Clk.Now() != obs.Clk.Now() {
			t.Errorf("%s: observed clock %v != unobserved %v",
				obs.Name, obs.Clk.Now(), base.Clk.Now())
		}
		if rec.Len() == 0 {
			t.Errorf("%s: observer attached but recorded nothing", obs.Name)
		}

		// Detaching restores the nil fast path and stops recording.
		obs.Attach(Observers{})
		before := rec.Len()
		driveObserved(t, base)
		driveObserved(t, obs)
		if base.Clk.Now() != obs.Clk.Now() {
			t.Errorf("%s: clocks diverged after detach", obs.Name)
		}
		if rec.Len() != before {
			t.Errorf("%s: recorder grew after detach", obs.Name)
		}
	}
}

// CollectMetrics harvests labelled counters that agree with the guest
// kernel's own statistics.
func TestCollectMetricsMatchesKernelStats(t *testing.T) {
	c := MustNew(CKI, Options{NumVCPU: 2})
	driveObserved(t, c)
	reg := metrics.NewRegistry()
	c.CollectMetrics(reg)
	got := reg.Counter("guest_syscalls_total", "Syscalls served by the guest kernel.",
		metrics.L("runtime", c.Name)).Value()
	if got != c.K.Stats.Syscalls {
		t.Errorf("guest_syscalls_total = %d, kernel counted %d", got, c.K.Stats.Syscalls)
	}
	if got == 0 {
		t.Error("no syscalls collected")
	}
	// TLB rows exist and hits+misses are consistent with the MMU.
	var hits, misses uint64
	for _, ps := range c.MMU.TLB.PCIDStats() {
		hits += ps.Hits
		misses += ps.Misses
	}
	if hits == 0 {
		t.Error("no per-PCID TLB hits recorded")
	}
	// Collecting into a nil registry is a no-op, not a crash.
	c.CollectMetrics(nil)
}

// A supervisor restart hands the dead container's observers to its
// replacement on both the cold and the warm path: the replacement keeps
// recording spans, flow latencies and audit events into the same sinks,
// and keeps the fault plan. The warm restore must also leave the
// machine-level audit of the co-resident container attached.
func TestRestartKeepsObservers(t *testing.T) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		t.Run(name, func(t *testing.T) {
			cl, err := NewCluster(1 << 17)
			if err != nil {
				t.Fatal(err)
			}
			rec := audit.NewRecorder(nil)
			reg := metrics.NewRegistry()
			sr := trace.NewSpanRecorder(cl.M.Clk)
			for i := 0; i < 2; i++ {
				c, err := cl.Add(CKI, Options{SegmentFrames: 2048, GuestFrames: 1 << 12, Audit: rec})
				if err != nil {
					t.Fatal(err)
				}
				c.Attach(Observers{
					Spans: sr,
					Flow:  metrics.NewFlowMetrics(reg, metrics.L("container", metrics.IntStr(c.K.ContainerID))),
					Audit: rec,
				})
			}
			want := cl.Containers[0].obs
			plan := faults.NewPlan(1, faults.Rule{Site: faults.VirtioKick, Every: 1 << 30})
			cl.Containers[0].InjectFaults(plan)

			pol := DefaultRestartPolicy()
			if warm {
				pol = warmPolicy()
			}
			sup := NewSupervisor(cl, pol)
			crashed := false
			for r := 0; sup.Health[0].Restarts == 0; r++ {
				if r == 50 {
					t.Fatal("container 1 never restarted")
				}
				if err := sup.Supervise(1, func(_ int, c *Container) error {
					// Crash after one good round, so a warm snapshot exists.
					if c.K.ContainerID == 1 && !crashed && sup.Health[0].RoundsOK > 0 {
						crashed = true
						c.K.Panic("test: induced crash")
						return guest.EKERNELDIED
					}
					return smallWork(c)
				}); err != nil {
					t.Fatal(err)
				}
			}
			if h := sup.Health[0]; (h.WarmRestores == 1) != warm {
				t.Fatalf("warm=%d cold=%d, want a %s restart", h.WarmRestores, h.ColdRestarts, name)
			}

			// Every boot, the replacement's included, clears CR3 in the
			// log before its first mapping: two initial boots plus one.
			boots := 0
			for _, e := range rec.Events() {
				if e.Kind == audit.EvWriteCR3 && e.A == 0 {
					boots++
				}
			}
			if boots != 3 {
				t.Errorf("audit log holds %d boot-time CR3 clears, want 3: the restart booted unlogged", boots)
			}

			repl := cl.Containers[0]
			if repl.obs != want || repl.inj != plan {
				t.Fatalf("replacement observers %+v plan %v, want %+v plan %v", repl.obs, repl.inj, want, plan)
			}
			lat := want.Flow.SyscallLat.Count()
			spans, events := sr.Len(), rec.Len()
			if err := cl.Run(0, smallWork); err != nil {
				t.Fatal(err)
			}
			if want.Flow.SyscallLat.Count() == lat || sr.Len() == spans || rec.Len() == events {
				t.Errorf("replacement stopped observing: syscall latencies %d->%d, spans %d->%d, events %d->%d",
					lat, want.Flow.SyscallLat.Count(), spans, sr.Len(), events, rec.Len())
			}
			co := cl.Containers[1]
			if co.CPU.Audit != rec || co.MMU.Audit != rec || co.K.Audit != rec {
				t.Errorf("co-resident container lost the machine audit: cpu %p mmu %p kernel %p, want %p",
					co.CPU.Audit, co.MMU.Audit, co.K.Audit, rec)
			}
		})
	}
}
