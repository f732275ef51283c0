package fleet

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/backends"
)

// TestReplayNode: a node's assignment replays on a real machine —
// containers boot, requests serve, injected crashes recover through
// the supervisor's warm-restart path — and the digest is deterministic.
func TestReplayNode(t *testing.T) {
	w := NodeWork{Node: 3, Containers: 4, Requests: 40, Crashes: 2}
	art, err := ReplayNode(w, backends.CKI, backends.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if art.Node != 3 || art.Containers != 4 {
		t.Fatalf("artifact identity wrong: %+v", art)
	}
	if art.Runtime == "" {
		t.Fatalf("artifact missing runtime name")
	}
	// The replay keeps running supervised rounds until the node's full
	// assignment is served, crashes and backoff included.
	if art.Requests != w.Requests {
		t.Fatalf("served %d requests, want %d", art.Requests, w.Requests)
	}
	if art.Crashes != 2 {
		t.Fatalf("injected %d crashes, want 2", art.Crashes)
	}
	// SnapshotInterval 1 means every crash has a fresh snapshot to
	// restore from.
	if art.WarmRestores == 0 {
		t.Fatalf("crashes recovered without a warm restore: %+v", art)
	}
	if art.VirtualNs <= 0 {
		t.Fatalf("no virtual time elapsed: %+v", art)
	}
	if art.Spans == 0 {
		t.Fatalf("no spans recorded")
	}
	if art.MetricsFNV == 0 {
		t.Fatalf("empty metrics fingerprint")
	}

	again, err := ReplayNode(w, backends.CKI, backends.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, again) {
		t.Fatalf("replay not deterministic:\n%+v\nvs\n%+v", art, again)
	}
}

// TestReplayNodeAcrossRuntimes: every runtime replays cleanly and the
// digests differ (each runtime's machine truth is its own).
func TestReplayNodeAcrossRuntimes(t *testing.T) {
	w := NodeWork{Node: 1, Containers: 2, Requests: 8}
	seen := map[uint64]string{}
	for _, k := range []backends.Kind{backends.RunC, backends.HVM, backends.PVM, backends.CKI, backends.GVisor} {
		art, err := ReplayNode(w, k, backends.Options{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if art.Crashes != 0 || art.WarmRestores != 0 {
			t.Fatalf("%v: uninjected run crashed: %+v", k, art)
		}
		if art.Requests != w.Requests {
			t.Fatalf("%v: served %d, want %d", k, art.Requests, w.Requests)
		}
		if prev, dup := seen[art.MetricsFNV]; dup {
			t.Fatalf("%s and %s share a metrics fingerprint", prev, art.Runtime)
		}
		seen[art.MetricsFNV] = art.Runtime
	}
}

// TestReplayNodeObserversPure: observers are pure — a replay with an
// audit recorder attached through Options.Audit and a per-round
// callback produces the identical NodeArtifact a plain one does, while
// the callback sees every round and the audit log fills.
func TestReplayNodeObserversPure(t *testing.T) {
	w := NodeWork{Node: 3, Containers: 4, Requests: 40, Crashes: 2}
	plain, err := ReplayNode(w, backends.CKI, backends.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := audit.NewRecorder(nil)
	rounds := 0
	crashesSeen := 0
	prevCrashes := 0
	observed, err := ReplayNode(w, backends.CKI, backends.Options{Audit: rec}, func(r ReplayRound) {
		rounds++
		if r.Clk == nil || r.Sup == nil || r.Recorder == nil || r.Metrics == nil {
			t.Fatalf("round state incomplete: %+v", r)
		}
		total := 0
		for _, h := range r.Sup.Health {
			total += h.Crashes
		}
		if total > prevCrashes {
			crashesSeen++
		}
		prevCrashes = total
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observers changed the artifact:\n%+v\nvs\n%+v", plain, observed)
	}
	if rounds == 0 {
		t.Fatalf("onRound never ran")
	}
	if rec.Len() == 0 {
		t.Fatalf("audit recorder attached but empty")
	}
	// The per-round crash watch (the watchdog-trip detector the flight
	// recorder uses) saw both injected panics.
	if crashesSeen < w.Crashes {
		t.Fatalf("round callback saw %d crash rounds, want >= %d", crashesSeen, w.Crashes)
	}
}
