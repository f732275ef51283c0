package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readCommitted reads a committed artifact, named relative to the
// repository root.
func readCommitted(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", path))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestArtifactContracts walks the registry: every experiment with a
// reproducible artifact runs at -parallel 1 and 8, both reports must
// encode to the committed file byte for byte, the report must satisfy
// its Invariants, and its table must render every runtime.
func TestArtifactContracts(t *testing.T) {
	for _, e := range Extensions() {
		a := e.Artifact
		if a == nil || a.HostTimed {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want := readCommitted(t, a.Path)
			var rep Report
			for _, parallel := range []int{1, 8} {
				var err error
				rep, err = a.Run(Options{Scale: 1, Parallel: parallel})
				if err != nil {
					t.Fatalf("-parallel %d: %v", parallel, err)
				}
				var got bytes.Buffer
				if err := WriteJSON(rep, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("-parallel %d: report differs from the committed %s (regenerate it with ckibench -exp %s -json)",
						parallel, a.Path, e.ID)
				}
			}
			if err := rep.Invariants(); err != nil {
				t.Error(err)
			}
			var table strings.Builder
			if err := rep.WriteTable(&table); err != nil {
				t.Fatal(err)
			}
			for _, rt := range []string{"RunC", "HVM-BM", "PVM-BM", "CKI-BM", "gVisor"} {
				if !strings.Contains(table.String(), rt) {
					t.Errorf("table missing runtime %s:\n%s", rt, table.String())
				}
			}
		})
	}
}

// TestPaperGolden renders every paper table and figure except fig2 in
// the "--- id: title ---" framing of the benchmark's paper workload and
// compares the bytes with the committed benchmark/golden/paper.txt.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range All() {
		if e.ID == "fig2" {
			continue
		}
		fmt.Fprintf(&got, "--- %s: %s ---\n", e.ID, e.Title)
		if err := e.Run(1, &got); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	want := readCommitted(t, "benchmark/golden/paper.txt")
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			t.Fatalf("paper output differs from benchmark/golden/paper.txt at line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	t.Fatalf("paper output has %d lines, benchmark/golden/paper.txt has %d", len(g), len(w))
}

// committed returns a loader that decodes the committed artifact at
// path into a fresh report on every call.
func committed[T any](t *testing.T, path string) func() *T {
	b := readCommitted(t, path)
	return func() *T {
		rep := new(T)
		if err := json.Unmarshal(b, rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
}

// TestFleetArtifactsRoundTrip: the four fleet-family artifacts decode
// into their reports (ckimon and ckitrace read them back) and re-encode
// byte for byte, and each decoded header is the experiment's committed
// FleetShape.
func TestFleetArtifactsRoundTrip(t *testing.T) {
	check := func(path string, rep Report, got, want FleetShape) {
		t.Helper()
		var b bytes.Buffer
		if err := WriteJSON(rep, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), readCommitted(t, path)) {
			t.Errorf("%s does not re-encode byte for byte after decoding", path)
		}
		if got != want {
			t.Errorf("%s: header %+v, want %+v", path, got, want)
		}
	}
	fl := committed[FleetReport](t, "BENCH_fleet.json")()
	check("BENCH_fleet.json", fl, fl.FleetShape, fleetGrid.at(1, 0))
	slo := committed[SLOReport](t, "BENCH_slo.json")()
	check("BENCH_slo.json", slo, slo.FleetShape, sloFleet.at(1, 0))
	tail := committed[TailReport](t, "BENCH_tail.json")()
	check("BENCH_tail.json", tail, tail.FleetShape, tailFleet.at(1, 0))
	sl := committed[ServerlessReport](t, "BENCH_serverless.json")()
	check("BENCH_serverless.json", sl, sl.FleetShape, serverlessFleet.at(1, 0))
}

// TestFleetZeroOpts: zero-valued options mean the committed defaults
// (scale 1, the committed fleet size), so each fleet-family experiment
// run from its zero Opts reproduces its committed artifact.
func TestFleetZeroOpts(t *testing.T) {
	runs := map[string]func() (Report, error){
		"BENCH_fleet.json":      func() (Report, error) { return RunFleet(FleetOpts{Parallel: DefaultParallel()}) },
		"BENCH_slo.json":        func() (Report, error) { return RunSLO(SLOOpts{Parallel: DefaultParallel()}) },
		"BENCH_tail.json":       func() (Report, error) { return RunTail(TailOpts{Parallel: DefaultParallel()}) },
		"BENCH_serverless.json": func() (Report, error) { return RunServerless(ServerlessOpts{Parallel: DefaultParallel()}) },
	}
	for path, run := range runs {
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var b bytes.Buffer
		if err := WriteJSON(rep, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), readCommitted(t, path)) {
			t.Errorf("a zero-options run differs from the committed %s", path)
		}
	}
}

// checkShape asserts that a fresh report satisfies its Invariants and
// that every named mutation of a fresh report violates them: the
// invariants catch what they claim to.
func checkShape[R Report](t *testing.T, load func() R, mutations map[string]func(R)) {
	t.Helper()
	if err := load().Invariants(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range mutations {
		rep := load()
		mutate(rep)
		if rep.Invariants() == nil {
			t.Errorf("invariants accepted a report with %s", name)
		}
	}
}

func TestChaosSurvivalShape(t *testing.T) {
	checkShape(t, committed[ChaosSurvival](t, "BENCH_chaos.json"), map[string]func(*ChaosSurvival){
		"no crash": func(r *ChaosSurvival) {
			for i := range r.Containers {
				r.Containers[i].Crashes = 0
			}
		},
		"a runtime that never served": func(r *ChaosSurvival) { r.Containers[3].RoundsOK = 0 },
		"a missing runtime":           func(r *ChaosSurvival) { r.Containers = r.Containers[1:] },
	})
}

func TestSMPReportShape(t *testing.T) {
	checkShape(t, committed[SMPReport](t, "BENCH_smp.json"), map[string]func(*SMPReport){
		"a missing cell":                       func(r *SMPReport) { r.Rows = r.Rows[:len(r.Rows)-1] },
		"a multi-vCPU cell without shootdowns": func(r *SMPReport) { r.Rows[1].Shootdowns = 0 },
		"a 1-vCPU speedup other than 1":        func(r *SMPReport) { r.Rows[0].Speedup = 1.5 },
		"zero throughput":                      func(r *SMPReport) { r.Rows[2].Throughput = 0 },
	})
}

func TestSnapshotReportShape(t *testing.T) {
	rep, err := RunSnapshot(1, DefaultParallel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointBlob("CKI-BM") == nil {
		t.Fatal("no CKI checkpoint image for -snap-out")
	}
	load := func() *SnapshotReport {
		c := *rep
		c.Rows, c.blobs = slices.Clone(rep.Rows), slices.Clone(rep.blobs)
		return &c
	}
	cki := slices.IndexFunc(rep.Rows, func(r SnapshotRow) bool { return r.Runtime == "CKI-BM" })
	checkShape(t, load, map[string]func(*SnapshotReport){
		"warm MTTR not below cold on CKI": func(r *SnapshotReport) { r.Rows[cki].WarmMTTRNs = r.Rows[cki].ColdMTTRNs },
		"a torn checkpoint image":         func(r *SnapshotReport) { r.blobs[0] = r.blobs[0][:len(r.blobs[0])-1] },
		"zero downtime":                   func(r *SnapshotReport) { r.Rows[2].DowntimeNs = 0 },
	})
}

func TestFleetReportShape(t *testing.T) {
	storm := func(r *FleetReport) *FleetRow {
		i := slices.IndexFunc(r.Rows, func(row FleetRow) bool { return row.Load == "storm" })
		return &r.Rows[i]
	}
	checkShape(t, committed[FleetReport](t, "BENCH_fleet.json"), map[string]func(*FleetReport){
		"a storm that evicted nothing": func(r *FleetReport) { storm(r).Evicted = 0 },
		"p99 above p999":               func(r *FleetReport) { r.Rows[0].P99Ms = r.Rows[0].P999Ms + 1 },
		"no overload backpressure": func(r *FleetReport) {
			for i := range r.Rows {
				if r.Rows[i].Load == "1.30x" {
					r.Rows[i].Rejected = 0
				}
			}
		},
		"a degenerate replay digest": func(r *FleetReport) { r.Replay[0].Spans = 0 },
	})
}

func TestSLOReportShape(t *testing.T) {
	checkShape(t, committed[SLOReport](t, "BENCH_slo.json"), map[string]func(*SLOReport){
		"a page fired after the storm": func(r *SLOReport) {
			for i, a := range r.Rows[0].Alerts {
				if a.SLO == "reject-rate" && a.Severity == "page" {
					r.Rows[0].Alerts[i].FiredAtNs = r.Rows[0].StormEndNs + 1
				}
			}
		},
		"no watchdog bundle": func(r *SLOReport) {
			for i := range r.Rows[1].Bundles {
				r.Rows[1].Bundles[i].Reason = "alert"
			}
		},
		"a short burn curve": func(r *SLOReport) { r.Rows[2].BurnCurve = r.Rows[2].BurnCurve[1:] },
		"a replay alert bundle without spans": func(r *SLOReport) {
			r.Rows[0].Bundles[2].Spans, r.Rows[0].Bundles[2].Events = 0, 0
		},
		"a replay watchdog bundle without events": func(r *SLOReport) { r.Rows[3].Bundles[1].Events = 0 },
	})
}

func TestServerlessReportShape(t *testing.T) {
	cki := func(r *ServerlessReport, mode string) *ServerlessRow {
		i := slices.IndexFunc(r.Rows, func(row ServerlessRow) bool { return row.Runtime == "CKI-BM" && row.Mode == mode })
		return &r.Rows[i]
	}
	checkShape(t, committed[ServerlessReport](t, "BENCH_serverless.json"), map[string]func(*ServerlessReport){
		"a CKI lazy p99 not below eager": func(r *ServerlessReport) { cki(r, "lazy").P99Ms = cki(r, "eager").P99Ms },
		"an eager restore slower than a cold boot": func(r *ServerlessReport) {
			r.Calibration[0].EagerRestoreNs = r.Calibration[0].ColdBootNs
		},
		"an undrained page store": func(r *ServerlessReport) { r.Churn[1].Drained = false },
	})
}

func TestTailReportShape(t *testing.T) {
	checkShape(t, committed[TailReport](t, "BENCH_tail.json"), map[string]func(*TailReport){
		"a non-conserving quantile":     func(r *TailReport) { r.Rows[0].Quantiles[1].Components.QueuePs++ },
		"non-conserving totals":         func(r *TailReport) { r.Rows[1].Totals.ServicePs-- },
		"a non-conserving waterfall":    func(r *TailReport) { r.Rows[2].Waterfalls[0].Components.BootPs++ },
		"an exemplar with no waterfall": func(r *TailReport) { r.Rows[3].Exemplars[0].RequestID = "0000000000000001" },
		"a negative storm tax":          func(r *TailReport) { r.Rows[4].StormTaxP999Ms = -1 },
	})
}
