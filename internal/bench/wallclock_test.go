package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestRunWallclockSmoke runs the wall-clock experiment at a tiny
// measurement budget and checks its invariants — the schema plus the
// pinned zero-allocation budgets and the flat flush curve — on the fresh
// report, its JSON round trip, and the committed BENCH_wallclock.json.
func TestRunWallclockSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement in -short mode")
	}
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
