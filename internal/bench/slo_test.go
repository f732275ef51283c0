package bench

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestSLOExperiment pins the experiment's side outputs: one CKITS1
// timeline per runtime that decodes to a populated store, and one file
// per postmortem bundle, each written and digested from exactly the
// bytes json.MarshalIndent gives, the bundle encoder's oracle.
func TestSLOExperiment(t *testing.T) {
	seq, err := RunSLO(Options{Parallel: DefaultParallel()})
	if err != nil {
		t.Fatal(err)
	}
	for i, nb := range seq.FullBundles {
		want, err := json.MarshalIndent(nb.Bundle, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := nb.Bundle.JSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s bundle %d: Bundle.JSON differs from MarshalIndent (err %v)", nb.Runtime, i, err)
		}
		h := fnv.New64a()
		h.Write(want)
		if sum, err := nb.Bundle.Digest(); err != nil || sum != h.Sum64() {
			t.Errorf("%s bundle %d: Digest %#x (err %v), want %#x", nb.Runtime, i, sum, err, h.Sum64())
		}
	}

	// The writers must emit one timeline per runtime and one file per
	// bundle, and the timelines must round-trip through CKITS1.
	dir := t.TempDir()
	if err := WriteSLOTimelines(seq, dir); err != nil {
		t.Fatal(err)
	}
	if err := WriteSLOBundles(seq, dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	timelines, bundles := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".ckits"):
			timelines++
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			st, err := telemetry.DecodeBinary(data)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if st.Ticks() == 0 || len(st.Series()) == 0 {
				t.Errorf("%s: decoded empty store", e.Name())
			}
		case strings.HasSuffix(e.Name(), ".json"):
			bundles++
		}
	}
	if timelines != len(seq.Rows) {
		t.Errorf("wrote %d timelines, want %d", timelines, len(seq.Rows))
	}
	if bundles != len(seq.FullBundles) {
		t.Errorf("wrote %d bundle files, want %d", bundles, len(seq.FullBundles))
	}
}

// TestStormAtOneNode: the eviction storm fires at any fleet size. The
// storm fractions (three fifths for slo, a quarter for tail) round to
// zero nodes on a one-node fleet, so FleetShape.storm clamps them to
// one and every row still evicts.
func TestStormAtOneNode(t *testing.T) {
	slo, err := RunSLO(Options{Parallel: DefaultParallel(), Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range slo.Rows {
		if r.Evicted == 0 {
			t.Errorf("slo: %s: the 1-node storm evicted nothing", r.Runtime)
		}
	}
	tail, err := RunTail(Options{Parallel: DefaultParallel(), Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tail.Rows {
		if r.Evicted == 0 {
			t.Errorf("tail: %s: the 1-node storm evicted nothing", r.Runtime)
		}
	}
}
