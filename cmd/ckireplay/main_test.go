package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// dir holds the built ckireplay, ckirun and ckibench binaries and the
// audit logs they recorded for the tests.
var dir string

// recordings are the logs TestMain records with ckirun -audit-out: the
// same run twice, and two pairs of fault-seeded runs whose seeds differ.
var recordings = map[string][]string{
	"a.log":   {"-workload", "btree"},
	"b.log":   {"-workload", "btree"},
	"s1.log":  {"-workload", "memcached", "-faults", "1"},
	"s2.log":  {"-workload", "memcached", "-faults", "2"},
	"s1b.log": {"-workload", "memcached", "-faults", "1"},
	"s2b.log": {"-workload", "memcached", "-faults", "2"},
}

// TestMain builds the real binaries once and records the logs: exit
// codes are asserted against the binary directly, because `go run`
// collapses every failure to exit 1 and would mask usage errors (2) as
// divergences (1).
func TestMain(m *testing.M) {
	var err error
	if dir, err = os.MkdirTemp("", "ckireplay-bin"); err != nil {
		panic(err)
	}
	setup := func(name string, args ...string) {
		if out, err := exec.Command(name, args...).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(name + ": " + err.Error() + "\n" + string(out))
		}
	}
	setup("go", "build", "-o", dir, ".", "../ckirun", "../ckibench")
	for name, args := range recordings {
		setup(filepath.Join(dir, "ckirun"), append([]string{"-runtime", "cki", "-audit-out", logPath(name)}, args...)...)
	}
	// The smp grid's log, recorded together with its span profile.
	setup(filepath.Join(dir, "ckibench"), "-exp", "smp",
		"-audit-out", logPath("smp.log"), "-spans-out", logPath("smp.spans.json"))
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// logPath names a recorded audit log.
func logPath(name string) string { return filepath.Join(dir, name) }

// run executes the built ckireplay and returns its exit code and output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(dir, "ckireplay"), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("ckireplay %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

// TestExitCodes pins the exit-code contract: 0 for identical logs and
// every rendering, 1 for a divergence or an unreadable log, 2 for usage
// errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"same run diff", []string{"-in", logPath("a.log"), "-diff", logPath("b.log")}, 0, "logs identical"},
		{"fault seeds diff", []string{"-in", logPath("s1.log"), "-diff", logPath("s2.log")}, 1, "first divergence"},
		{"live", []string{"-in", logPath("a.log"), "-live"}, 0, "logs identical"},
		{"live smp", []string{"-in", logPath("smp.log"), "-live"}, 0, "logs identical"},
		{"smp summary", []string{"-in", logPath("smp.log")}, 0, "ckibench -exp smp (seed=0x50c1a1 scale=1)"},
		{"summary", []string{"-in", logPath("a.log")}, 0, "ckirun -runtime cki -workload btree"},
		{"at", []string{"-in", logPath("a.log"), "-at", "120us"}, 0, "state after"},
		{"grep", []string{"-in", logPath("a.log"), "-grep", "pte_write"}, 0, "matched \"pte_write\""},
		{"json", []string{"-in", logPath("a.log"), "-json"}, 0, `"counts"`},
		{"no in", nil, 2, "-in is required"},
		{"two modes", []string{"-in", logPath("a.log"), "-live", "-grep", "pte_write"}, 2, "mutually exclusive"},
		{"missing log", []string{"-in", logPath("none.log")}, 1, "no such file"},
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

// TestRecordingsReproducible: the recorder is clock-neutral and every
// timestamp is virtual, so two recordings of one run are byte-identical,
// and two fault seeds diverge at the same first event on every
// recording.
func TestRecordingsReproducible(t *testing.T) {
	a, err := os.ReadFile(logPath("a.log"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(logPath("b.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two recordings of the same run differ")
	}
	_, first := run(t, "-in", logPath("s1.log"), "-diff", logPath("s2.log"))
	_, again := run(t, "-in", logPath("s1b.log"), "-diff", logPath("s2b.log"))
	if !strings.Contains(first, "first divergence") || first != again {
		t.Errorf("the first divergence moved between recordings:\n%s\nvs\n%s", first, again)
	}
}
