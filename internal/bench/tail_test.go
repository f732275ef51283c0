package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestTailTable: the table writer renders the attribution summary and
// the waterfall digest without error.
func TestTailTable(t *testing.T) {
	rep, err := RunTail(Options{Scale: 1, Parallel: DefaultParallel(), Nodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Tail-latency attribution", "Slowest-request waterfalls", "tax p999"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
