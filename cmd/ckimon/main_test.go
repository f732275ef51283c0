package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestValidateModes covers the mode rules: exactly one of
// -slo/-in/-bundle/-attr, refinements (-series, -tail; set lists the
// flags given) only with -in.
func TestValidateModes(t *testing.T) {
	cases := []struct {
		name                  string
		slo, in, bundle, attr string
		set                   []string
		tail                  int
		wantErr               bool
	}{
		{"slo", "r.json", "", "", "", nil, 20, false},
		{"in", "", "tl.ckits", "", "", nil, 20, false},
		{"bundle", "", "", "b.json", "", nil, 20, false},
		{"attr", "", "", "", "BENCH_tail.json", nil, 20, false},
		{"in refined", "", "tl.ckits", "", "", []string{"series", "tail"}, 5, false},
		{"in tail zero", "", "tl.ckits", "", "", []string{"tail"}, 0, false},

		{"no mode", "", "", "", "", nil, 20, true},
		{"two modes slo+in", "r.json", "tl.ckits", "", "", nil, 20, true},
		{"two modes slo+attr", "r.json", "", "", "BENCH_tail.json", nil, 20, true},
		{"two modes attr+bundle", "", "", "b.json", "BENCH_tail.json", nil, 20, true},
		{"series without in", "r.json", "", "", "", []string{"series"}, 20, true},
		{"series with attr", "", "", "", "BENCH_tail.json", []string{"series"}, 20, true},
		{"tail with attr", "", "", "", "BENCH_tail.json", []string{"tail"}, 5, true},
		{"tail default with slo", "r.json", "", "", "", []string{"tail"}, 20, true},
		{"tail negative", "", "tl.ckits", "", "", []string{"tail"}, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, n := range tc.set {
				set[n] = true
			}
			err := validateModes(tc.slo, tc.in, tc.bundle, tc.attr, set, tc.tail)
			if (err != nil) != tc.wantErr {
				t.Errorf("validateModes(%+v) = %v, wantErr=%v", tc, err, tc.wantErr)
			}
		})
	}
}

// binPath is the built ckimon; timelines and bundles are the CKITS1
// timelines and postmortem bundles one `ckibench -exp slo` run wrote.
var (
	binPath            string
	timelines, bundles []string
)

// TestMain builds the real binaries once and records the slo side
// outputs: exit codes are asserted against the binary directly, because
// `go run` collapses every failure to exit 1 and would mask usage
// errors (2) as runtime errors (1).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckimon-bin")
	if err != nil {
		panic(err)
	}
	setup := func(name string, args ...string) {
		if out, err := exec.Command(name, args...).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(name + ": " + err.Error() + "\n" + string(out))
		}
	}
	binPath = filepath.Join(dir, "ckimon")
	tl, pm := filepath.Join(dir, "timelines"), filepath.Join(dir, "bundles")
	setup("go", "build", "-o", dir, ".", "../ckibench")
	setup(filepath.Join(dir, "ckibench"), "-exp", "slo", "-slo-out", tl, "-bundle-out", pm)
	timelines, _ = filepath.Glob(filepath.Join(tl, "*.ckits"))
	bundles, _ = filepath.Glob(filepath.Join(pm, "*.json"))
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built binary and returns its exit code and output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(binPath, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("ckimon %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

// attrFixture writes a minimal BENCH_tail report.
func attrFixture(t *testing.T) string {
	t.Helper()
	rep := &bench.TailReport{
		FleetShape: bench.FleetShape{Seed: 1, Nodes: 2, SlotsPerNode: 1},
		Sched:      "spread",
		Rows: []bench.TailRow{{
			Runtime: "RunC", Completed: 1, StormStartNs: 100, StormEndNs: 200,
			Quantiles: []bench.TailQuantile{
				{Q: "p50", LatencyMs: 1, RequestID: "00000000000000ab",
					Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000}},
			},
			Waterfalls: []bench.TailWaterfall{{
				RequestID: "00000000000000ab", Rank: 1, LatencyMs: 1,
				Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000},
			}},
		}},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_tail.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes pins the exit-code contract: 2 for usage errors, 1
// for runtime failures, 0 with the expected rendering otherwise. The
// committed BENCH_slo.json and BENCH_tail.json stand for fresh runs
// (TestArtifactContracts keeps them byte-identical to one), and every
// timeline and bundle of the slo run TestMain recorded must render.
func TestExitCodes(t *testing.T) {
	if len(timelines) == 0 || len(bundles) == 0 {
		t.Fatalf("ckibench -exp slo wrote %d timelines and %d bundles", len(timelines), len(bundles))
	}
	fixture := attrFixture(t)
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(timelines[0])
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.ckits")
	if err := os.WriteFile(truncated, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	type exitCase struct {
		name string
		args []string
		code int
		want string
	}
	cases := []exitCase{
		{"attr renders", []string{"-attr", fixture}, 0, "who pays the tail"},
		{"attr summary", []string{"-attr", fixture}, 0, "Tail-latency attribution"},
		{"no mode", nil, 2, "exactly one of"},
		{"attr with slo", []string{"-attr", fixture, "-slo", "r.json"}, 2, "exactly one of"},
		{"attr with series", []string{"-attr", fixture, "-series", "x"}, 2, "refine -in"},
		{"attr with tail", []string{"-attr", fixture, "-tail", "5"}, 2, "refine -in"},
		{"slo with default tail", []string{"-slo", "../../BENCH_slo.json", "-tail", "20"}, 2, "refine -in"},
		{"attr missing file", []string{"-attr", missing}, 1, "no such file"},
		{"attr empty report", []string{"-attr", empty}, 1, "no rows"},
		{"committed slo report", []string{"-slo", "../../BENCH_slo.json"}, 0, "SLO burn-rate alerting"},
		{"committed tail attribution", []string{"-attr", "../../BENCH_tail.json"}, 0, "who pays the tail"},
		{"truncated timeline", []string{"-in", truncated, "-tail", "3"}, 1, "bad CKITS1 data"},
	}
	for _, f := range timelines {
		cases = append(cases, exitCase{"timeline " + filepath.Base(f), []string{"-in", f, "-tail", "3"}, 0, "earlier windows elided"})
	}
	for _, f := range bundles {
		cases = append(cases, exitCase{"bundle " + filepath.Base(f), []string{"-bundle", f}, 0, "series captured"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := run(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit = %d, want %d; output:\n%s", code, tc.code, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}
