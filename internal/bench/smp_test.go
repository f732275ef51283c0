package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// smpJSON runs the SMP experiment at scale 1 and encodes its report.
func smpJSON(t *testing.T) []byte {
	t.Helper()
	rep, err := RunSMPParallel(1, SMPSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(rep, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSMPDeterministic: the whole SMP experiment — five runtimes, four
// vCPU counts, migrations, shootdowns, closed-loop throughput — replays
// byte-identically from the same seed.
func TestSMPDeterministic(t *testing.T) {
	a, b := smpJSON(t), smpJSON(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("smp report not deterministic:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestSMPJSONSchema: the emitted report parses back and carries the
// fields the CI smoke job validates.
func TestSMPJSONSchema(t *testing.T) {
	var rep struct {
		Seed uint64           `json:"seed"`
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(smpJSON(t), &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(rep.Rows) != 5*len(SMPVCPUCounts) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for _, key := range []string{"runtime", "vcpus", "throughput_ops_per_sec",
			"shootdown_latency_ns", "speedup_vs_1vcpu"} {
			if _, ok := row[key]; !ok {
				t.Errorf("row missing %q: %v", key, row)
			}
		}
	}
}
