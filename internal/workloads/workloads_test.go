package workloads

import (
	"testing"

	"repro/internal/backends"
)

// These tests assert the *shape* of every application-level result the
// paper reports: who wins, by roughly what factor, and where the
// crossovers fall. Absolute ns are covered by the backend calibration
// tests; here the virtual times emerge from the composed mechanisms.
// bench.TestPaperClaims holds the same bands against the committed
// benchmark/golden/paper.txt, so a regenerated golden that drifts out
// of a band fails there too.

func runOn(t *testing.T, r Runner, kind backends.Kind, opts backends.Options) Result {
	t.Helper()
	c := backends.MustNew(kind, opts)
	res, err := r.Run(c)
	if err != nil {
		t.Fatalf("%s on %s: %v", r.Name(), c.Name, err)
	}
	return res
}

// ratio returns a's time over b's time.
func ratio(a, b Result) float64 { return float64(a.Time) / float64(b.Time) }

func TestFig12MemoryIntensiveShape(t *testing.T) {
	for _, app := range Fig12Apps(1) {
		app := app
		t.Run(app.AppName, func(t *testing.T) {
			cki := runOn(t, app, backends.CKI, backends.Options{})
			runc := runOn(t, app, backends.RunC, backends.Options{})
			hvmBM := runOn(t, app, backends.HVM, backends.Options{})
			hvmNST := runOn(t, app, backends.HVM, backends.Options{Nested: true})
			pvm := runOn(t, app, backends.PVM, backends.Options{})

			// CKI within a few percent of RunC (paper: <3%... <5% here
			// to absorb the churn ops' gate costs).
			if r := ratio(cki, runc); r > 1.06 {
				t.Errorf("CKI/RunC = %.3f, want <= ~1.05", r)
			}
			// Orderings.
			rNST, rBM, rPVM := ratio(hvmNST, cki), ratio(hvmBM, cki), ratio(pvm, cki)
			if !(rNST > rBM && rBM >= 0.98 && rPVM > 1.0) {
				t.Errorf("ordering broken: NST %.2f BM %.2f PVM %.2f", rNST, rBM, rPVM)
			}
			// Paper bands: HVM-NST 1.3×–3.6× CKI; HVM-BM ≤1.25×; PVM ≤1.95×.
			if rNST < 1.25 || rNST > 4.0 {
				t.Errorf("HVM-NST/CKI = %.2f, want within [1.25, 4.0]", rNST)
			}
			if rBM > 1.25 {
				t.Errorf("HVM-BM/CKI = %.2f, want <= 1.25", rBM)
			}
			if rPVM > 1.95 {
				t.Errorf("PVM/CKI = %.2f, want <= 1.95", rPVM)
			}
		})
	}
}

func TestFig12WorstCases(t *testing.T) {
	// "Up to 72% vs HVM-NST" → some app ≥ ~3.3×; "up to 47% vs PVM" →
	// some app ≥ ~1.8×.
	maxNST, maxPVM := 0.0, 0.0
	for _, app := range Fig12Apps(1) {
		cki := runOn(t, app, backends.CKI, backends.Options{})
		nst := runOn(t, app, backends.HVM, backends.Options{Nested: true})
		pvm := runOn(t, app, backends.PVM, backends.Options{})
		if r := ratio(nst, cki); r > maxNST {
			maxNST = r
		}
		if r := ratio(pvm, cki); r > maxPVM {
			maxPVM = r
		}
	}
	if maxNST < 3.2 {
		t.Errorf("max HVM-NST/CKI = %.2f, want >= 3.2 (72%% reduction)", maxNST)
	}
	if maxPVM < 1.75 {
		t.Errorf("max PVM/CKI = %.2f, want >= 1.75 (47%% reduction)", maxPVM)
	}
}

func TestFig12HugepageMode(t *testing.T) {
	// With 2 MiB EPT mappings the HVM-BM overhead becomes minor (faults
	// amortize), but PVM still exits per 4K fault, so CKI keeps its
	// btree/dedup margins (§7.2).
	app := Fig12Apps(1)[0] // btree
	cki := runOn(t, app, backends.CKI, backends.Options{})
	hvm2M := runOn(t, app, backends.HVM, backends.Options{EPTHugePages: true})
	pvm := runOn(t, app, backends.PVM, backends.Options{})
	if r := ratio(hvm2M, cki); r > 1.10 {
		t.Errorf("HVM-BM(2M)/CKI = %.2f, want <= 1.10 (amortized)", r)
	}
	if r := ratio(pvm, cki); r < 1.3 {
		t.Errorf("PVM/CKI = %.2f with hugepages, want still >= 1.3", r)
	}
}

func TestFig13Sweeps(t *testing.T) {
	// BTree: overhead (vs RunC) decreases as the lookup/insert ratio
	// grows, for every secure container (Fig. 13a).
	prev := map[string]float64{}
	for _, r := range []int{0, 4, 16} {
		app := BTreeSweep{Inserts: 150, Ratio: r}
		runc := runOn(t, app, backends.RunC, backends.Options{})
		for _, cfg := range []struct {
			kind backends.Kind
			opts backends.Options
			name string
		}{
			{backends.HVM, backends.Options{Nested: true}, "HVM-NST"},
			{backends.PVM, backends.Options{}, "PVM"},
			{backends.CKI, backends.Options{}, "CKI"},
		} {
			res := runOn(t, app, cfg.kind, cfg.opts)
			over := ratio(res, runc) - 1
			if p, ok := prev[cfg.name]; ok && over > p+0.02 {
				t.Errorf("%s overhead grew with lookup ratio: %.3f -> %.3f", cfg.name, p, over)
			}
			prev[cfg.name] = over
		}
	}
	// CKI overhead must stay low across all parameters (Fig. 13 text).
	if prev["CKI"] > 0.05 {
		t.Errorf("CKI overhead at high lookup ratio = %.3f, want < 0.05", prev["CKI"])
	}

	// XSBench: overhead is higher with fewer particles (Fig. 13b).
	few := XSBenchSweep{GridPages: 200, Particles: 50}
	many := XSBenchSweep{GridPages: 200, Particles: 800}
	overheadNST := func(x XSBenchSweep) float64 {
		return ratio(runOn(t, x, backends.HVM, backends.Options{Nested: true}),
			runOn(t, x, backends.RunC, backends.Options{}))
	}
	if oFew, oMany := overheadNST(few), overheadNST(many); oFew <= oMany {
		t.Errorf("XSBench overhead did not shrink with particles: %.2f -> %.2f", oFew, oMany)
	}
}

func TestTable4TLBShape(t *testing.T) {
	for _, app := range Table4Apps(1) {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			runc := runOn(t, app, backends.RunC, backends.Options{})
			hvm := runOn(t, app, backends.HVM, backends.Options{})
			pvm := runOn(t, app, backends.PVM, backends.Options{})
			cki := runOn(t, app, backends.CKI, backends.Options{})
			rHVM := ratio(hvm, runc)
			if app.Name() == "GUPS" {
				// Paper: 67.8/54.9 = +23%; accept 1.12–1.35.
				if rHVM < 1.12 || rHVM > 1.35 {
					t.Errorf("GUPS HVM/RunC = %.3f, want ~1.23", rHVM)
				}
			} else {
				// BTree-Lookup: damped to ~+6%; accept 1.01–1.15.
				if rHVM < 1.01 || rHVM > 1.15 {
					t.Errorf("BTree-Lookup HVM/RunC = %.3f, want ~1.06", rHVM)
				}
			}
			// PVM and CKI track RunC closely (1-D walks).
			if r := ratio(pvm, runc); r > 1.05 {
				t.Errorf("PVM/RunC = %.3f, want ~1.0", r)
			}
			if r := ratio(cki, runc); r > 1.05 {
				t.Errorf("CKI/RunC = %.3f, want ~1.0", r)
			}
		})
	}
}

func TestFig11LmbenchShape(t *testing.T) {
	cases := LMBenchCases(1)
	lat := map[string]map[string]float64{} // case → runtime → per-op ns
	for _, lc := range cases {
		lat[lc.CaseName] = map[string]float64{}
		for _, cfg := range []struct {
			kind backends.Kind
			name string
		}{
			{backends.RunC, "RunC"}, {backends.HVM, "HVM"},
			{backends.PVM, "PVM"}, {backends.CKI, "CKI"},
		} {
			res := runOn(t, lc, cfg.kind, backends.Options{})
			lat[lc.CaseName][cfg.name] = res.PerOp().Nanos()
		}
	}
	rel := func(cs, rt string) float64 { return lat[cs][rt] / lat[cs]["RunC"] }

	// Short syscalls: PVM roughly doubles read latency (§7.1).
	if r := rel("read", "PVM"); r < 1.5 || r > 2.6 {
		t.Errorf("PVM read = %.2f× RunC, want ~2×", r)
	}
	// HVM tracks RunC on lmbench (no VM exits in these paths).
	for _, cs := range []string{"read", "write", "stat", "ctxsw-2p/0k", "pipe", "AF_UNIX"} {
		if r := rel(cs, "HVM"); r > 1.15 {
			t.Errorf("HVM %s = %.2f× RunC, want ~1×", cs, r)
		}
	}
	// CKI end-to-end overhead small everywhere (PKS gates are fast).
	for cs := range lat {
		if r := rel(cs, "CKI"); r > 1.30 {
			t.Errorf("CKI %s = %.2f× RunC, want <= 1.3×", cs, r)
		}
	}
	// PVM memory management & process paths suffer badly.
	for _, cs := range []string{"pagefault", "fork+exit", "fork+execve"} {
		if r := rel(cs, "PVM"); r < 2.0 {
			t.Errorf("PVM %s = %.2f× RunC, want >= 2×", cs, r)
		}
	}
	// PVM context switching pays the CR3 hypercall.
	if r := rel("ctxsw-2p/0k", "PVM"); r < 1.5 {
		t.Errorf("PVM ctxsw = %.2f× RunC, want >= 1.5×", r)
	}
}

func TestFig14SQLiteShape(t *testing.T) {
	for _, sc := range Fig14Cases(1) {
		sc := sc
		t.Run(sc.CaseName, func(t *testing.T) {
			runc := runOn(t, sc, backends.RunC, backends.Options{})
			pvm := runOn(t, sc, backends.PVM, backends.Options{})
			hvm := runOn(t, sc, backends.HVM, backends.Options{})
			cki := runOn(t, sc, backends.CKI, backends.Options{})
			over := ratio(pvm, runc) - 1
			switch {
			case sc.Read:
				// Reads run from the page cache: negligible overhead,
				// near-zero syscall frequency (Fig. 14 bottom).
				if over > 0.05 {
					t.Errorf("PVM read overhead = %.1f%%, want ~0", over*100)
				}
				if f := float64(cki.Syscalls) / float64(cki.Ops); f > 0.05 {
					t.Errorf("read syscalls/op = %.3f, want ~0", f)
				}
			case sc.Batch <= 1:
				// Unbatched writes: the paper's 19–24% PVM loss.
				if over < 0.15 || over > 0.29 {
					t.Errorf("PVM write overhead = %.1f%%, want 19–24%%", over*100)
				}
			default:
				// Batched: smaller per-op impact (Fig. 15: 17–22%).
				if over < 0.06 || over > 0.29 {
					t.Errorf("PVM batched overhead = %.1f%%, want ~10–25%%", over*100)
				}
			}
			// CKI and HVM match RunC (native syscalls, tmpfs, no exits).
			if r := ratio(cki, runc); r > 1.03 {
				t.Errorf("CKI/RunC = %.3f, want ~1.0", r)
			}
			if r := ratio(hvm, runc); r > 1.03 {
				t.Errorf("HVM/RunC = %.3f, want ~1.0", r)
			}
		})
	}
}

func TestFig15SyscallOptBreakdown(t *testing.T) {
	// The fillseq ablation ladder: PVM > CKI-wo-OPT2 > CKI-wo-OPT3 > CKI.
	sc := Fig14Cases(1)[0]
	base := runOn(t, sc, backends.CKI, backends.Options{})
	wo2 := runOn(t, sc, backends.CKI, backends.Options{WoOPT2: true})
	wo3 := runOn(t, sc, backends.CKI, backends.Options{WoOPT3: true})
	pvm := runOn(t, sc, backends.PVM, backends.Options{})
	if !(pvm.Time > wo2.Time && wo2.Time > wo3.Time && wo3.Time > base.Time) {
		t.Errorf("ablation ladder broken: PVM %v > wo-OPT2 %v > wo-OPT3 %v > CKI %v",
			pvm.Time, wo2.Time, wo3.Time, base.Time)
	}
	// PVM fillseq overhead over CKI ~24% (Fig. 15 leftmost bar).
	if over := ratio(pvm, base) - 1; over < 0.15 || over > 0.32 {
		t.Errorf("PVM-vs-CKI fillseq overhead = %.1f%%, want ~24%%", over*100)
	}
}

func TestFig16KickAmortization(t *testing.T) {
	// Per-request service time must fall with coalescing depth for the
	// exit-heavy runtimes (the mechanism behind Fig. 16's saturation).
	run := func(kind backends.Kind, opts backends.Options, batch int) float64 {
		app := KVApp{AppName: "probe", Requests: 64, Batch: batch, WorkNs: 900, ValueBytes: 500}
		return runOn(t, app, kind, opts).PerOp().Nanos()
	}
	nst1 := run(backends.HVM, backends.Options{Nested: true}, 1)
	nst16 := run(backends.HVM, backends.Options{Nested: true}, 16)
	if nst16 > nst1/2 {
		t.Errorf("HVM-NST batching: %.0f -> %.0f ns/req, want >2× drop", nst1, nst16)
	}
	cki1 := run(backends.CKI, backends.Options{}, 1)
	if cki1 > nst1/4 {
		t.Errorf("CKI unbatched %.0f vs HVM-NST %.0f ns/req, want >=4× gap", cki1, nst1)
	}
}

func TestFig16ThroughputRatios(t *testing.T) {
	// Saturated per-request service times invert into the paper's
	// throughput ratios: CKI-NST vs HVM-NST ≈ 6.8× (memcached) and
	// ≈ 2.0× (redis); CKI-BM vs PVM-BM ≈ 1.8× and ≈ 1.4×.
	per := func(app KVApp, kind backends.Kind, opts backends.Options) float64 {
		return runOn(t, app, kind, opts).PerOp().Nanos()
	}
	mc := Memcached(64)
	rd := Redis(64)
	mcRatioNST := per(mc, backends.HVM, backends.Options{Nested: true}) /
		per(mc, backends.CKI, backends.Options{Nested: true})
	if mcRatioNST < 4.5 || mcRatioNST > 9 {
		t.Errorf("memcached CKI-NST/HVM-NST throughput gain = %.1f×, want ~6.8×", mcRatioNST)
	}
	rdRatioNST := per(rd, backends.HVM, backends.Options{Nested: true}) /
		per(rd, backends.CKI, backends.Options{Nested: true})
	if rdRatioNST < 1.5 || rdRatioNST > 3.2 {
		t.Errorf("redis CKI-NST/HVM-NST gain = %.1f×, want ~2.0×", rdRatioNST)
	}
	mcRatioPVM := per(mc, backends.PVM, backends.Options{}) /
		per(mc, backends.CKI, backends.Options{})
	if mcRatioPVM < 1.4 || mcRatioPVM > 2.4 {
		t.Errorf("memcached CKI-BM/PVM-BM gain = %.1f×, want ~1.8×", mcRatioPVM)
	}
	rdRatioPVM := per(rd, backends.PVM, backends.Options{}) /
		per(rd, backends.CKI, backends.Options{})
	if rdRatioPVM < 1.15 || rdRatioPVM > 1.9 {
		t.Errorf("redis CKI-BM/PVM-BM gain = %.1f×, want ~1.4×", rdRatioPVM)
	}
}

func TestFig5IOShape(t *testing.T) {
	for _, app := range Fig5Apps(1) {
		app := app
		t.Run(app.AppName, func(t *testing.T) {
			runc := runOn(t, app, backends.RunC, backends.Options{})
			cki := runOn(t, app, backends.CKI, backends.Options{})
			hvmNST := runOn(t, app, backends.HVM, backends.Options{Nested: true})
			pvmNST := runOn(t, app, backends.PVM, backends.Options{Nested: true})
			// HVM-NST collapses on I/O; worst for the un-coalesced RR.
			rNST := ratio(hvmNST, cki)
			if rNST < 1.5 {
				t.Errorf("HVM-NST/CKI = %.2f, want >= 1.5", rNST)
			}
			if app.AppName == "netperf-RR" && rNST < 4 {
				t.Errorf("netperf-RR HVM-NST/CKI = %.2f, want >= 4 (1.8–4.3× band)", rNST)
			}
			// PVM-NST sits between CKI and HVM-NST.
			rPVM := ratio(pvmNST, cki)
			if !(rPVM > 1.0 && rPVM < rNST) {
				t.Errorf("PVM-NST/CKI = %.2f not between 1 and HVM-NST %.2f", rPVM, rNST)
			}
			// CKI close to RunC even on I/O (the kick hypercall and
			// switcher IRQ path are its only extras).
			if r := ratio(cki, runc); r > 1.5 {
				t.Errorf("CKI/RunC = %.2f, want <= 1.5", r)
			}
		})
	}
}

func TestEmulatedPVMSyscallOnCKIThroughputDip(t *testing.T) {
	// §7.3: emulating PVM syscall latency on CKI costs at most ~4.4%
	// of KV throughput — syscall redirection alone does not explain
	// PVM's gap; the virtio path does the rest.
	mc := Memcached(64)
	base := runOn(t, mc, backends.CKI, backends.Options{})
	emul := runOn(t, mc, backends.CKI, backends.Options{EmulatePVMSyscall: true})
	dip := ratio(emul, base) - 1
	if dip < 0.01 || dip > 0.30 {
		t.Errorf("PVM-syscall emulation dip = %.1f%%, want small (~4.4%%)", dip*100)
	}
	pvm := runOn(t, mc, backends.PVM, backends.Options{})
	if !(pvm.Time > emul.Time) {
		t.Error("full PVM should still be slower than CKI+emulated syscalls")
	}
}
