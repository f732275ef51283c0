package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestValidateSet covers the flag-combination rules: the four modes
// are mutually exclusive and every refinement flag needs its mode.
func TestValidateSet(t *testing.T) {
	mk := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	cases := []struct {
		name    string
		set     map[string]bool
		wantErr bool
	}{
		{"defaults", mk(), false},
		{"static flow", mk("flow", "runtime"), false},
		{"metrics", mk("metrics"), false},
		{"profile breakdown", mk("in", "breakdown"), false},
		{"profile top ranged", mk("in", "top", "since", "until"), false},
		{"tail list", mk("tail"), false},
		{"tail request", mk("tail", "request"), false},

		{"metrics with in", mk("metrics", "in"), true},
		{"metrics with tail", mk("metrics", "tail"), true},
		{"metrics with request", mk("metrics", "request"), true},
		{"tail with in", mk("tail", "in"), true},
		{"tail with view", mk("tail", "breakdown"), true},
		{"tail with flow", mk("tail", "flow"), true},
		{"tail with range", mk("tail", "since"), true},
		{"request without tail", mk("request"), true},
		{"request with in", mk("in", "breakdown", "request"), true},
		{"in without view", mk("in"), true},
		{"in two views", mk("in", "top", "chrome"), true},
		{"in with flow", mk("in", "folded", "flow"), true},
		{"breakdown ranged", mk("in", "breakdown", "since"), true},
		{"view without in", mk("chrome"), true},
		{"range without in", mk("until"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSet(tc.set)
			if (err != nil) != tc.wantErr {
				t.Errorf("validateSet(%v) = %v, wantErr=%v", tc.set, err, tc.wantErr)
			}
		})
	}
}

// binPath is the built ckitrace; spansPath and metricsPath are the smp
// span profile and metrics snapshot ckibench recorded for the tests, and
// droppedPath is spansPath with one span dropped from a service window.
var binPath, spansPath, metricsPath, droppedPath string

// TestMain builds the real binaries once and records the smp profile:
// exit codes are asserted against the binary directly, because `go run`
// collapses every failure to exit 1 and would mask usage errors (2) as
// runtime errors (1).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckitrace-bin")
	if err != nil {
		panic(err)
	}
	setup := func(name string, args ...string) {
		if out, err := exec.Command(name, args...).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(name + ": " + err.Error() + "\n" + string(out))
		}
	}
	binPath = filepath.Join(dir, "ckitrace")
	spansPath = filepath.Join(dir, "smp.spans.json")
	metricsPath = filepath.Join(dir, "smp.metrics.json")
	droppedPath = filepath.Join(dir, "dropped.spans.json")
	setup("go", "build", "-o", dir, ".", "../ckibench")
	setup(filepath.Join(dir, "ckibench"), "-exp", "smp", "-spans-out", spansPath, "-metrics-out", metricsPath)
	if err := dropWindowSpan(spansPath, droppedPath); err != nil {
		os.RemoveAll(dir)
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// dropWindowSpan copies the span profile at src to dst without the
// first root span inside the first run's service window: a planted
// accounting defect -breakdown must catch.
func dropWindowSpan(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	prof, err := bench.ParseSMPProfile(b)
	if err != nil {
		return err
	}
	r := prof.Runs[0]
	i := slices.IndexFunc(r.Spans, func(s trace.Span) bool {
		return s.Parent == -1 && !s.Async &&
			int64(s.At) >= r.ServiceLoPs && int64(s.At+s.Dur) <= r.ServiceHiPs
	})
	if i < 0 {
		return errors.New("no root span in the first run's service window")
	}
	r.Spans = slices.Delete(r.Spans, i, i+1)
	if b, err = prof.JSON(); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
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
		t.Fatalf("ckitrace %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

// tailFixture writes a minimal BENCH_tail report and returns its path
// plus the one waterfall's request id.
func tailFixture(t *testing.T) (string, string) {
	t.Helper()
	const id = "00000000000000ab"
	rep := &bench.TailReport{
		FleetShape: bench.FleetShape{Seed: 1, Scale: 1, Nodes: 2, SlotsPerNode: 1, QueueLimit: 1, MeanReqs: 1},
		Sched:      "spread",
		Rows: []bench.TailRow{{
			Runtime: "RunC", Completed: 1,
			Quantiles: []bench.TailQuantile{
				{Q: "p50", LatencyMs: 1, RequestID: id, Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000}},
				{Q: "p99", LatencyMs: 1, RequestID: id, Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000}},
				{Q: "p999", LatencyMs: 1, RequestID: id, Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000}},
			},
			Waterfalls: []bench.TailWaterfall{{
				RequestID: id, Rank: 1, LatencyMs: 1,
				Components: bench.TailComponents{ServicePs: 1000, TotalPs: 1000, Placements: 1},
				Steps: []bench.TailStep{
					{Kind: "arrival"}, {Kind: "placement", Outcome: "started"},
					{Kind: "service", DurPs: 1000}, {Kind: "complete", AtPs: 1000},
				},
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
	return path, id
}

// TestExitCodes pins the exit-code contract of the flow and tail modes:
// 2 for usage errors, 1 for runtime failures, 0 with the expected
// rendering otherwise.
func TestExitCodes(t *testing.T) {
	fixture, id := tailFixture(t)
	missing := filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"static default", nil, 0, "TOTAL"},
		{"smp breakdown", []string{"-in", spansPath, "-breakdown"}, 0, "TOTAL"},
		{"smp breakdown dropped span", []string{"-in", droppedPath, "-breakdown"}, 1, "unattributed time"},
		{"smp top", []string{"-in", spansPath, "-top", "5"}, 0, "RunC 1vcpu — top 5 phases by self time"},
		{"smp folded", []string{"-in", spansPath, "-folded"}, 0, "RunC/1vcpu;access"},
		{"smp metrics", []string{"-metrics", metricsPath}, 0, "smp_request_latency_ns"},
		{"tail list", []string{"-tail", fixture}, 0, id},
		{"tail waterfall", []string{"-tail", fixture, "-request", id}, 0, "storm cell, slowness rank 1"},
		{"request without tail", []string{"-request", id}, 2, "-request requires -tail"},
		{"tail with view", []string{"-tail", fixture, "-breakdown"}, 2, "cannot be combined"},
		{"tail bad id", []string{"-tail", fixture, "-request", "not-hex"}, 2, "bad request id"},
		{"tail zero id", []string{"-tail", fixture, "-request", "0"}, 2, "reserved"},
		{"tail missing file", []string{"-tail", missing}, 1, "no such file"},
		{"tail unknown request", []string{"-tail", fixture, "-request", "00000000000000ff"}, 1, "no waterfall"},
		{"unknown flow", []string{"-flow", "teleport"}, 2, "unknown flow"},
		{"unknown runtime", []string{"-runtime", "bogus"}, 2, "unknown runtime"},
		{"runc hypercall", []string{"-flow", "hypercall", "-runtime", "runc"}, 2, "RunC has no hypercalls"},
		{"hvm-nst syscall", []string{"-flow", "syscall", "-runtime", "hvm-nst"}, 0, "syscall / HVM-NST"},
		{"gvisor", []string{"-runtime", "gvisor"}, 0, "pgfault / gVisor"},
		{"all hypercall skips runc", []string{"-flow", "hypercall", "-runtime", "all"}, 0, "hypercall / CKI"},
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

// TestWaterfallRender pins the waterfall rendering shape: the
// component summary and every lifecycle step present.
func TestWaterfallRender(t *testing.T) {
	fixture, id := tailFixture(t)
	code, out := run(t, "-tail", fixture, "-request", id)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"request " + id, "components", "service", "100.0%", "TOTAL",
		"waterfall", "arrival", "placement", "[started]", "complete",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
}
