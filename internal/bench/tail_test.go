package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestFleetTraceRequestsPure: attaching per-request tracing to the
// fleet experiment is pure observation — the committed BENCH_fleet
// bytes are identical with and without it, and the recorders actually
// captured every cell.
func TestFleetTraceRequestsPure(t *testing.T) {
	o := FleetOpts{Scale: 1, Parallel: 2, Nodes: 4, Sched: "spread", ArrivalRate: 20_000}
	plain, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	o.TraceRequests = true
	traced, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteFleetJSON(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := WriteFleetJSON(traced, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("request tracing changed the fleet report bytes")
	}
	if plain.RequestTraces != nil {
		t.Fatal("recorders present without TraceRequests")
	}
	if len(traced.RequestTraces) != len(traced.Rows) {
		t.Fatalf("got %d recorders, want one per grid cell (%d)",
			len(traced.RequestTraces), len(traced.Rows))
	}
	for ci, rec := range traced.RequestTraces {
		if rec.Len() != traced.Rows[ci].Arrived {
			t.Fatalf("cell %d: recorder traced %d requests, row arrived %d",
				ci, rec.Len(), traced.Rows[ci].Arrived)
		}
	}
}

// TestTailTable: the table writer renders the attribution summary and
// the waterfall digest without error.
func TestTailTable(t *testing.T) {
	rep, err := RunTail(TailOpts{Scale: 1, Parallel: DefaultParallel(), Nodes: 8})
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
