package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binPath string

// TestMain builds the real binary once: exit codes are asserted
// against it directly, because `go run` collapses every failure to
// exit 1 and would mask usage errors (2) as runtime errors (1).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckirun-bin")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "ckirun")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
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
		t.Fatalf("ckirun %v: %v", args, err)
	}
	return ee.ExitCode(), string(out)
}

// TestExitCodes pins the exit-code contract. A torn or bit-flipped
// checkpoint image fails its CKISNAP1 checksum: exit nonzero with an
// error naming the snapshot, never a panic; the intact image restores.
func TestExitCodes(t *testing.T) {
	tmp := t.TempDir()
	image := filepath.Join(tmp, "cki.snap")
	if code, out := run(t, "-runtime", "cki", "-workload", "btree", "-checkpoint", image); code != 0 {
		t.Fatalf("checkpoint: exit %d\n%s", code, out)
	}
	blob, err := os.ReadFile(image)
	if err != nil {
		t.Fatal(err)
	}
	torn, flipped := filepath.Join(tmp, "torn.snap"), filepath.Join(tmp, "flip.snap")
	if err := os.WriteFile(torn, blob[:len(blob)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	blob[64] ^= 0xff
	if err := os.WriteFile(flipped, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
		out  string
	}{
		{"list", []string{"-list"}, 0, "btree"},
		{"unknown runtime", []string{"-runtime", "xen"}, 2, "unknown runtime"},
		{"unknown workload", []string{"-workload", "nope"}, 2, "unknown workload"},
		{"audit-out with restore", []string{"-restore", "app.snap", "-audit-out", "a.log"}, 2, "-audit-out"},
		{"missing restore image", []string{"-restore", filepath.Join(tmp, "none.snap")}, 1, "none.snap"},
		{"torn restore image", []string{"-restore", torn, "-workload", "btree"}, 1, "restore " + torn + ": snapshot:"},
		{"bit-flipped restore image", []string{"-restore", flipped, "-workload", "btree"}, 1, "restore " + flipped + ": snapshot:"},
		{"intact restore image", []string{"-restore", image, "-workload", "btree"}, 0, "restored:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := run(t, tc.args...)
			if code != tc.want || !strings.Contains(out, tc.out) || strings.Contains(out, "panic") {
				t.Errorf("exit %d, want %d with %q and no panic\n%s", code, tc.want, tc.out, out)
			}
		})
	}
}

// timeline returns the span lines -trace printed after its header.
func timeline(t *testing.T, out string) []string {
	t.Helper()
	_, tail, ok := strings.Cut(out, "flow timeline (")
	if !ok {
		t.Fatalf("no flow timeline in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(tail, "\n"), "\n")[1:]
	for _, l := range lines {
		if !strings.HasPrefix(l, "  ") {
			t.Fatalf("unexpected timeline line %q", l)
		}
	}
	return lines
}

// -trace N renders the last N top-level flows from the span recorder,
// deterministically: virtual time makes two runs print the same bytes.
func TestTraceRendersSpans(t *testing.T) {
	code, out := run(t, "-runtime", "cki", "-workload", "btree", "-trace", "5")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	lines := timeline(t, out)
	if len(lines) != 5 {
		t.Fatalf("-trace 5 printed %d span lines:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "cpu0 pid 1") {
			t.Errorf("span line %q lacks its vCPU and PID", l)
		}
	}
	if _, again := run(t, "-runtime", "cki", "-workload", "btree", "-trace", "5"); again != out {
		t.Errorf("two identical runs printed different output")
	}
}

// Under a fault plan that panics the guest, ckirun still exits 0 and
// prints the containment outcome, the fired-fault log and the timeline.
func TestTraceUnderFaults(t *testing.T) {
	code, out := run(t, "-runtime", "cki", "-workload", "sqlite-fillrandom", "-faults", "1", "-trace", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{"outcome:", "fault plan:", "fired"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if n := len(timeline(t, out)); n != 3 {
		t.Errorf("-trace 3 printed %d span lines", n)
	}
}
