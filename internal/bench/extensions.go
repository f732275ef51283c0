package bench

import (
	"io"

	"repro/internal/backends"
	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/hw"
)

// Extension experiments beyond the paper's tables and figures: the
// design-space ablations §3.1/§3.3 argue from, and the §9 future-work
// directions. Registered alongside the paper experiments so ckibench
// regenerates them too.

// Extensions returns the extension experiments. It is the registry of
// every experiment with a JSON artifact: adding one means adding an
// artifact entry here whose report implements Report.
func Extensions() []Experiment {
	return []Experiment{
		{ID: "ext-pku", Title: "Design-PKU vs Design-PKS (rejected alternative, §3.1)", Run: ExtPKU},
		{ID: "ext-gate", Title: "KSM gate side-channel hardening ablation (§3.3)", Run: ExtGate},
		{ID: "ext-future", Title: "Future work: driver sandbox & in-kernel syscalls (§9)", Run: ExtFuture},
		{ID: "ext-cow", Title: "Eager vs copy-on-write fork across runtimes", Run: ExtCOW},
		{ID: "ext-density", Title: "CKI container density (Challenge-1 at scale)", Run: ExtDensity},
		{ID: "ext-preempt", Title: "Timer-tick (preemption) tax per runtime", Run: ExtPreempt},
		artifact("chaos", "Fault-injection survival across runtimes (Fig. 2)", &Artifact{
			Path:  "BENCH_chaos.json",
			Flags: []string{"-seeds"},
			Run:   runChaosArtifact,
		}),
		artifact("smp", "Multi-core scaling & TLB-shootdown latency (SMP engine)", &Artifact{
			Path:  "BENCH_smp.json",
			Flags: []string{"-trace-out", "-spans-out", "-metrics-out", "-audit-out"},
			Run:   report(RunSMP),
		}),
		artifact("snapshot", "Checkpoint/restore, live migration & warm-restart MTTR", &Artifact{
			Path:  "BENCH_snapshot.json",
			Flags: []string{"-checkpoint-interval", "-snap-out"},
			Run:   report(RunSnapshot),
		}),
		artifact("fleet", "Datacenter fleet serving: capacity curves & tail latency", &Artifact{
			Path:     "BENCH_fleet.json",
			Flags:    []string{"-nodes", "-sched", "-arrival-rate", "-trace-file", "-scrape-interval", "-slo-out"},
			Validate: validateFleet,
			Run:      report(RunFleet),
		}),
		artifact("slo", "Live telemetry: SLO burn-rate alerts & flight-recorder postmortems", &Artifact{
			Path:  "BENCH_slo.json",
			Flags: []string{"-nodes", "-scrape-interval", "-slo-out", "-bundle-out"},
			Run:   report(RunSLO),
		}),
		artifact("tail", "Per-request causal tracing: critical-path tail-latency attribution", &Artifact{
			Path:  "BENCH_tail.json",
			Flags: []string{"-nodes"},
			Run:   report(RunTail),
		}),
		artifact("serverless", "Serverless churn: fork-from-snapshot cold-start fast path", &Artifact{
			Path:  "BENCH_serverless.json",
			Flags: []string{"-nodes", "-churn-rate", "-fork-mode"},
			Validate: func(o Options) error {
				_, err := serverlessFleetModes(o.ForkMode)
				return err
			},
			Run: report(RunServerless),
		}),
		artifact("wallclock", "Host cost of the simulator: hot paths & parallel speedup", &Artifact{
			Path:      "BENCH_wallclock.json",
			HostTimed: true,
			Run:       runWallclockArtifact,
		}),
		{ID: "breakdown", Title: "Cycle attribution: per-phase span trees vs measured totals", Run: ExtBreakdown},
	}
}

// ExtPKU quantifies the rejected PKU-based design: same domain
// isolation, but the guest kernel lives in user mode, so exceptions are
// injected across rings (~750ns extra) and syscalls pay PKU domain
// switches.
func ExtPKU(scale int, w io.Writer) error {
	t := NewTable("Design-PKU vs Design-PKS (CKI)", "flow", "Design-PKS", "Design-PKU", "paper note")
	pks := backends.MustNew(backends.CKI, backends.Options{})
	pku := backends.MustNew(backends.CKI, backends.Options{DesignPKU: true})
	t.Row("syscall (ns)",
		pks.MeasureSyscall().String(), pku.MeasureSyscall().String(),
		"PKU adds wrpkru + ring crossings")
	a, err := pks.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	b, err := pku.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	t.Row("anon pgfault (ns)", a.String(), b.String(),
		"paper: injection adds ~750ns to a ~1000ns fault")
	_, err = t.WriteTo(w)
	return err
}

// ExtGate quantifies what eliminating PTI/IBRS from the KSM gate saves
// (§3.3: "hundreds of CPU cycles").
func ExtGate(scale int, w io.Writer) error {
	t := NewTable("KSM gate hardening ablation", "flow", "lean gate", "hardened gate", "delta")
	lean := backends.MustNew(backends.CKI, backends.Options{})
	hard := backends.MustNew(backends.CKI, backends.Options{HardenKSMGate: true})
	a, err := lean.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	b, err := hard.MeasureAnonFault(64)
	if err != nil {
		return err
	}
	t.Row("anon pgfault (ns)", a.String(), b.String(), (b - a).String())
	t.Note("the lean gate is safe because only container-private data is mapped in the KSM")
	_, err = t.WriteTo(w)
	return err
}

// ExtFuture demonstrates the §9 directions with measured numbers.
func ExtFuture(scale int, w io.Writer) error {
	costs := clock.DefaultCosts()
	t := NewTable("Future work on the same PKS machinery", "scenario", "cost/op (ns)", "baseline (ns)")
	t.Row("ring-0 driver sandbox call", cki.SandboxCallCost(costs).String(),
		cki.MicrokernelCallCost(costs).String()+" (microkernel IPC)")

	// In-kernel syscall elision, measured live.
	c := backends.MustNew(backends.CKI, backends.Options{})
	app := &cki.InKernelApp{CPU: c.CPU, Clk: c.Clk, Costs: costs}
	mode := c.CPU.Mode()
	c.CPU.SetMode(hw.ModeKernel)
	start := c.Clk.Now()
	if err := app.Call(costs.GetpidWork); err != nil {
		return err
	}
	inKernel := c.Clk.Now() - start
	c.CPU.SetMode(mode)
	t.Row("in-kernel getpid-class service", inKernel.String(),
		app.SyscallCost(costs.GetpidWork).String()+" (user-mode syscall)")
	_, err := t.WriteTo(w)
	return err
}
