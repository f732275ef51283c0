package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"
	"time"
)

// TestRunWallclockSmoke runs the wall-clock experiment at a tiny
// measurement budget and checks its invariants (one entry per table row,
// the pinned zero-allocation budgets, the flat flush curve) on the fresh
// report, its JSON round trip, and the committed BENCH_wallclock.json.
// The run leaves the process's -test.benchtime as it found it.
func TestRunWallclockSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement in -short mode")
	}
	benchtime := flag.Lookup("test.benchtime").Value.String()
	rep, err := RunWallclock(WallclockOpts{
		Scale:     1,
		Parallel:  2,
		BenchTime: 5 * time.Millisecond,
		Reps:      3,
		Seeds:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := flag.Lookup("test.benchtime").Value.String(); got != benchtime {
		t.Errorf("-test.benchtime = %s after RunWallclock, was %s", got, benchtime)
	}
	if err := rep.Invariants(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteJSON(rep, &buf); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"round trip": buf.Bytes(), "BENCH_wallclock.json": readCommitted(t, "BENCH_wallclock.json")} {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		back := &WallclockReport{}
		if err := dec.Decode(back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := back.Invariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BenchmarkWallclock runs each wall-clock row as a sub-benchmark, the
// way to measure or profile one layer's hot path:
//
//	go test ./internal/bench -run '^$' -bench 'Wallclock/fleet/arrival/1000nodes' -cpuprofile cpu.out
func BenchmarkWallclock(b *testing.B) {
	fx := new(wallclockFixtures)
	for _, row := range wallclockRows(fx) {
		b.Run(row.name, row.bench)
	}
}
