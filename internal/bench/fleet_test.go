package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clock"
)

// TestFleetScrapeLeavesReportUnchanged: attaching a telemetry probe is
// pure observation — the report bytes are identical with and without
// -scrape-interval, and the merged timeline actually sampled the run.
func TestFleetScrapeLeavesReportUnchanged(t *testing.T) {
	o := FleetOpts{Scale: 1, Parallel: 2, Nodes: 4, Sched: "spread", ArrivalRate: 20_000}
	plain, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	o.ScrapeInterval = 50 * clock.Microsecond
	scraped, err := RunFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteFleetJSON(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := WriteFleetJSON(scraped, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("scraping changed the fleet report bytes")
	}
	if plain.Timeline != nil {
		t.Fatal("timeline present without -scrape-interval")
	}
	if scraped.Timeline == nil || scraped.Timeline.Ticks() == 0 || len(scraped.Timeline.Series()) == 0 {
		t.Fatalf("scraped timeline empty: %+v", scraped.Timeline)
	}
}

// TestFleetTraceFile: a rate trace replaces the capacity curve and the
// parsed shape drives every cell.
func TestFleetTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rates.trace")
	if err := os.WriteFile(path, []byte("# burst then quiet\n40000 50\n5000 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunFleet(FleetOpts{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, Sched: "binpack", TraceFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(runtimeSpecs()) {
		t.Fatalf("got %d rows, want one trace row per runtime", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Load != "trace" || r.Sched != "binpack" {
			t.Fatalf("unexpected row: %+v", r)
		}
		if r.Arrived == 0 {
			t.Fatalf("trace produced no arrivals: %+v", r)
		}
	}

	if _, err := RunFleet(FleetOpts{Scale: 1, Parallel: 1, Nodes: 4,
		TraceFile: filepath.Join(t.TempDir(), "missing.trace")}); err == nil {
		t.Fatalf("missing trace file accepted")
	}
}

// TestFleetBadScheduler: an unknown scheduler fails before any cell
// runs.
func TestFleetBadScheduler(t *testing.T) {
	_, err := RunFleet(FleetOpts{Scale: 1, Parallel: 1, Sched: "random"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("err = %v", err)
	}
}

// TestFleetTable: the table writer renders every row and the replay
// digest without error.
func TestFleetTable(t *testing.T) {
	rep, err := RunFleet(FleetOpts{Scale: 1, Parallel: DefaultParallel(),
		Nodes: 4, Sched: "spread", ArrivalRate: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fleet serving", "custom", "Replayed storm nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
