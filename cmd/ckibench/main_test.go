package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestValidate covers every usage-error rule: flag combinations that
// used to be silently ignored must now be rejected (exit 2 in main).
func TestValidate(t *testing.T) {
	ok := func(c config) config {
		if c.Scale == 0 {
			c.Scale = 1
		}
		if c.Parallel == 0 {
			c.Parallel = 1
		}
		if c.Seeds == 0 {
			c.Seeds = 1
		}
		if c.Interval == 0 {
			c.Interval = 1
		}
		return c
	}
	cases := []struct {
		name    string
		cfg     config
		wantErr bool
	}{
		{"defaults", ok(config{}), false},
		{"smp json", ok(config{exp: "smp", jsonOut: true}), false},
		{"chaos json", ok(config{exp: "chaos", jsonOut: true}), false},
		{"wallclock json", ok(config{exp: "wallclock", jsonOut: true}), false},
		{"smp artifacts", ok(config{exp: "smp", Options: bench.Options{TraceOut: "t.json", SpansOut: "s.json", MetricsOut: "m.json"}}), false},
		{"smp audit", ok(config{exp: "smp", Options: bench.Options{AuditOut: "a.log"}}), false},
		{"chaos sweep", ok(config{exp: "chaos", jsonOut: true, Options: bench.Options{Seeds: 16}}), false},
		{"parallel 8", ok(config{exp: "smp", jsonOut: true, Options: bench.Options{Parallel: 8}}), false},
		{"snapshot json", ok(config{exp: "snapshot", jsonOut: true}), false},
		{"snapshot blob out", ok(config{exp: "snapshot", Options: bench.Options{SnapOut: "cki.snap"}}), false},
		{"snapshot interval", ok(config{exp: "snapshot", Options: bench.Options{Interval: 5}}), false},
		{"fleet json", ok(config{exp: "fleet", jsonOut: true}), false},
		{"fleet nodes", ok(config{exp: "fleet", Options: bench.Options{Nodes: 8}}), false},
		{"fleet sched binpack", ok(config{exp: "fleet", Options: bench.Options{Sched: "binpack"}}), false},
		{"fleet sched spread", ok(config{exp: "fleet", Options: bench.Options{Sched: "spread"}}), false},
		{"fleet arrival rate", ok(config{exp: "fleet", Options: bench.Options{ArrivalRate: 50_000}}), false},
		{"fleet trace file", ok(config{exp: "fleet", Options: bench.Options{TraceFile: "rates.trace"}}), false},
		{"fleet everything", ok(config{exp: "fleet", jsonOut: true, Options: bench.Options{Nodes: 8, Sched: "spread", ArrivalRate: 1000, Parallel: 8}}), false},
		{"slo json", ok(config{exp: "slo", jsonOut: true}), false},
		{"slo nodes", ok(config{exp: "slo", Options: bench.Options{Nodes: 10}}), false},
		{"slo scrape interval", ok(config{exp: "slo", scrapeIv: "250us"}), false},
		{"slo scrape interval bare ps", ok(config{exp: "slo", scrapeIv: "2500000"}), false},
		{"slo outputs", ok(config{exp: "slo", jsonOut: true, Options: bench.Options{SLOOut: "tl", BundleOut: "bd"}}), false},
		{"fleet scrape interval", ok(config{exp: "fleet", scrapeIv: "1.5ms"}), false},
		{"fleet timeline", ok(config{exp: "fleet", scrapeIv: "50us", Options: bench.Options{SLOOut: "tl.ckits"}}), false},
		{"tail json", ok(config{exp: "tail", jsonOut: true}), false},
		{"tail nodes", ok(config{exp: "tail", Options: bench.Options{Nodes: 8}}), false},
		{"tail parallel", ok(config{exp: "tail", jsonOut: true, Options: bench.Options{Parallel: 8}}), false},
		{"serverless json", ok(config{exp: "serverless", jsonOut: true}), false},
		{"serverless nodes", ok(config{exp: "serverless", Options: bench.Options{Nodes: 8}}), false},
		{"serverless fork-mode", ok(config{exp: "serverless", Options: bench.Options{ForkMode: "lazy"}}), false},
		{"serverless churn-rate", ok(config{exp: "serverless", Options: bench.Options{ChurnRate: 30_000}}), false},
		{"serverless everything", ok(config{exp: "serverless", jsonOut: true, Options: bench.Options{Nodes: 8, ForkMode: "cow", ChurnRate: 5000, Parallel: 8}}), false},

		{"parallel 0", config{Options: bench.Options{Scale: 1, Parallel: 0, Seeds: 1}}, true},
		{"parallel negative", config{Options: bench.Options{Scale: 1, Parallel: -2, Seeds: 1}}, true},
		{"seeds 0", config{Options: bench.Options{Scale: 1, Parallel: 1, Seeds: 0}}, true},
		{"trace-out without smp", ok(config{Options: bench.Options{TraceOut: "t.json"}}), true},
		{"spans-out wrong exp", ok(config{exp: "chaos", Options: bench.Options{SpansOut: "s.json"}}), true},
		{"metrics-out wrong exp", ok(config{exp: "fig12", Options: bench.Options{MetricsOut: "m.json"}}), true},
		{"audit-out without smp", ok(config{Options: bench.Options{AuditOut: "a.log"}}), true},
		{"audit-out with prof flags", ok(config{exp: "smp", Options: bench.Options{TraceOut: "t.json", AuditOut: "a.log"}}), true},
		{"seeds without chaos", ok(config{exp: "smp", jsonOut: true, Options: bench.Options{Seeds: 4}}), true},
		{"seeds without json", ok(config{exp: "chaos", Options: bench.Options{Seeds: 4}}), true},
		{"json wrong exp", ok(config{exp: "fig12", jsonOut: true}), true},
		{"json all experiments", ok(config{jsonOut: true}), true},
		{"interval 0", config{exp: "snapshot", Options: bench.Options{Scale: 1, Parallel: 1, Seeds: 1, Interval: 0}}, true},
		{"interval negative", config{exp: "snapshot", Options: bench.Options{Scale: 1, Parallel: 1, Seeds: 1, Interval: -3}}, true},
		{"scale 0", config{exp: "smp", Options: bench.Options{Scale: 0, Parallel: 1, Seeds: 1, Interval: 1}}, true},
		{"scale negative", ok(config{exp: "snapshot", Options: bench.Options{Scale: -1}}), true},
		{"snap-out wrong exp", ok(config{exp: "chaos", Options: bench.Options{SnapOut: "cki.snap"}}), true},
		{"snap-out without exp", ok(config{Options: bench.Options{SnapOut: "cki.snap"}}), true},
		{"interval wrong exp", ok(config{exp: "smp", jsonOut: true, Options: bench.Options{Interval: 4}}), true},
		{"nodes without fleet", ok(config{Options: bench.Options{Nodes: 8}}), true},
		{"nodes wrong exp", ok(config{exp: "smp", Options: bench.Options{Nodes: 8}}), true},
		{"nodes negative", ok(config{exp: "fleet", Options: bench.Options{Nodes: -1}}), true},
		{"sched without fleet", ok(config{Options: bench.Options{Sched: "spread"}}), true},
		{"sched unknown", ok(config{exp: "fleet", Options: bench.Options{Sched: "random"}}), true},
		{"arrival-rate without fleet", ok(config{Options: bench.Options{ArrivalRate: 1000}}), true},
		{"arrival-rate wrong exp", ok(config{exp: "chaos", Options: bench.Options{ArrivalRate: 1000}}), true},
		{"arrival-rate negative", ok(config{exp: "fleet", Options: bench.Options{ArrivalRate: -5}}), true},
		{"trace-file without fleet", ok(config{Options: bench.Options{TraceFile: "rates.trace"}}), true},
		{"trace-file wrong exp", ok(config{exp: "snapshot", Options: bench.Options{TraceFile: "rates.trace"}}), true},
		{"arrival-rate with trace-file", ok(config{exp: "fleet", Options: bench.Options{ArrivalRate: 1000, TraceFile: "rates.trace"}}), true},
		{"scrape-interval wrong exp", ok(config{exp: "smp", jsonOut: true, scrapeIv: "50us"}), true},
		{"scrape-interval without exp", ok(config{scrapeIv: "50us"}), true},
		{"scrape-interval unparseable", ok(config{exp: "slo", scrapeIv: "fast"}), true},
		{"scrape-interval zero", ok(config{exp: "slo", scrapeIv: "0"}), true},
		{"slo-out wrong exp", ok(config{exp: "chaos", Options: bench.Options{SLOOut: "tl"}}), true},
		{"slo-out fleet without interval", ok(config{exp: "fleet", Options: bench.Options{SLOOut: "tl.ckits"}}), true},
		{"bundle-out wrong exp", ok(config{exp: "fleet", scrapeIv: "50us", Options: bench.Options{BundleOut: "bd"}}), true},
		{"nodes slo negative", ok(config{exp: "slo", Options: bench.Options{Nodes: -1}}), true},
		{"tail with sched", ok(config{exp: "tail", Options: bench.Options{Sched: "spread"}}), true},
		{"tail with arrival-rate", ok(config{exp: "tail", Options: bench.Options{ArrivalRate: 1000}}), true},
		{"tail with trace-file", ok(config{exp: "tail", Options: bench.Options{TraceFile: "rates.trace"}}), true},
		{"tail with scrape-interval", ok(config{exp: "tail", scrapeIv: "50us"}), true},
		{"tail with slo-out", ok(config{exp: "tail", Options: bench.Options{SLOOut: "tl"}}), true},
		{"tail with snap-out", ok(config{exp: "tail", Options: bench.Options{SnapOut: "cki.snap"}}), true},
		{"tail nodes negative", ok(config{exp: "tail", Options: bench.Options{Nodes: -1}}), true},
		{"churn-rate without serverless", ok(config{Options: bench.Options{ChurnRate: 5000}}), true},
		{"churn-rate wrong exp", ok(config{exp: "fleet", Options: bench.Options{ChurnRate: 5000}}), true},
		{"churn-rate negative", ok(config{exp: "serverless", Options: bench.Options{ChurnRate: -5}}), true},
		{"fork-mode without serverless", ok(config{Options: bench.Options{ForkMode: "lazy"}}), true},
		{"fork-mode wrong exp", ok(config{exp: "tail", Options: bench.Options{ForkMode: "lazy"}}), true},
		{"fork-mode unknown", ok(config{exp: "serverless", Options: bench.Options{ForkMode: "warm"}}), true},
		{"serverless with sched", ok(config{exp: "serverless", Options: bench.Options{Sched: "spread"}}), true},
		{"serverless with arrival-rate", ok(config{exp: "serverless", Options: bench.Options{ArrivalRate: 1000}}), true},
		{"serverless with scrape-interval", ok(config{exp: "serverless", scrapeIv: "50us"}), true},
		{"serverless nodes negative", ok(config{exp: "serverless", Options: bench.Options{Nodes: -1}}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(&tc.cfg)
			if (err != nil) != tc.wantErr {
				t.Errorf("validate(%+v) = %v, wantErr=%v", tc.cfg, err, tc.wantErr)
			}
		})
	}
}

var binPath string

// TestMain builds the real binary once: exit codes are asserted
// against it directly, because `go run` collapses every failure to
// exit 1 and would mask usage errors (2) as runtime errors (1).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckibench-bin")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "ckibench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the exit-code contract against the built binary:
// 2 for usage errors (validate failures, unknown experiments), 0 for
// the cheap informational modes.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"list", []string{"-list"}, 0, "serverless"},
		{"unknown exp", []string{"-exp", "warpdrive"}, 2, "unknown experiment"},
		{"parallel zero", []string{"-parallel", "0", "-list"}, 2, "-parallel must be"},
		{"tail with sched", []string{"-exp", "tail", "-sched", "spread"}, 2, "-sched requires -exp fleet"},
		{"tail with scrape-interval", []string{"-exp", "tail", "-scrape-interval", "50us"}, 2, "-scrape-interval requires"},
		{"nodes wrong exp", []string{"-exp", "smp", "-nodes", "4"}, 2, "-nodes requires"},
		{"json wrong exp", []string{"-exp", "ext-pku", "-json"}, 2, "-json is only supported"},
		{"fork-mode wrong exp", []string{"-exp", "smp", "-fork-mode", "lazy"}, 2, "-fork-mode requires -exp serverless"},
		{"churn-rate negative", []string{"-exp", "serverless", "-churn-rate", "-5"}, 2, "-churn-rate must be"},
		{"fork-mode unknown", []string{"-exp", "serverless", "-fork-mode", "warm"}, 2, "unknown fork mode"},
		{"smp scale 0", []string{"-exp", "smp", "-scale", "0"}, 2, "-scale must be"},
		{"snapshot scale 0", []string{"-exp", "snapshot", "-scale", "0"}, 2, "-scale must be"},
		{"snapshot scale negative", []string{"-exp", "snapshot", "-scale", "-1"}, 2, "-scale must be"},
		{"sched unknown", []string{"-exp", "fleet", "-sched", "random"}, 2, "unknown scheduler"},
		{"arrival-rate with trace-file", []string{"-exp", "fleet", "-arrival-rate", "1000", "-trace-file", "r.trace"}, 2, "mutually exclusive"},
		{"scrape-interval outside fleet", []string{"-exp", "smp", "-scrape-interval", "50us"}, 2, "-scrape-interval requires"},
		{"slo-out without scrape-interval", []string{"-exp", "fleet", "-slo-out", "tl.ckits"}, 2, "requires an explicit -scrape-interval"},
		{"bundle-out outside slo", []string{"-exp", "fleet", "-scrape-interval", "50us", "-bundle-out", "bd"}, 2, "-bundle-out requires -exp slo"},
		{"list shows artifacts", []string{"-list"}, 0, "BENCH_serverless.json"},
		{"baseline is not a flag", []string{"-exp", "smp", "-baseline", "BENCH_smp.json"}, 2, "flag provided but not defined: -baseline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(binPath, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("ckibench %v: %v", tc.args, err)
				}
				code = ee.ExitCode()
			}
			if code != tc.code {
				t.Fatalf("exit = %d, want %d; output:\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}
