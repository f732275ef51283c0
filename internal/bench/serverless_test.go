package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestServerlessColdStartOrdering: the experiment's headline — forks <
// eager < cold on every runtime, and on CKI a lazy-fork p99 below the
// eager restore's below the cold boot's — holds off the committed fleet
// size too.
func TestServerlessColdStartOrdering(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(), Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Invariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerlessForkModeFilter: -fork-mode restricts the fleet stage to
// one instantiation mode, and an unknown mode fails before any cell
// runs.
func TestServerlessForkModeFilter(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, ForkMode: "lazy"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(serverlessSpecs()); len(rep.Rows) != want {
		t.Fatalf("got %d rows, want one lazy row per runtime", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Mode != "lazy" {
			t.Fatalf("unexpected mode in filtered run: %+v", r)
		}
	}
	if _, err := RunServerless(Options{Scale: 1, Parallel: 1, ForkMode: "warm"}); err == nil ||
		!strings.Contains(err.Error(), "unknown fork mode") {
		t.Fatalf("bad fork mode: err = %v", err)
	}
}

// TestServerlessTable: the table writer renders all three sections.
func TestServerlessTable(t *testing.T) {
	rep, err := RunServerless(Options{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, ForkMode: "cow"})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Serverless instantiation paths", "Churn loop", "Fleet churn"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
