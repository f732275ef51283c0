package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
)

// The byte-identity contract: every artifact a grid experiment emits —
// JSON report, span profile, Chrome trace, metrics snapshot, audit
// log — must be identical byte for byte whether the cells ran
// sequentially or fanned out. These tests run each experiment at
// -parallel 1 and -parallel 8 and compare the serialized bytes; `go
// test -race ./internal/bench` additionally races the runner itself.

func smpReportBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	rep, err := RunSMPParallel(1, SMPSeed, parallel)
	if err != nil {
		t.Fatalf("RunSMPParallel(%d): %v", parallel, err)
	}
	var buf bytes.Buffer
	if err := WriteSMPReportJSON(rep, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelSMPReportIdentity(t *testing.T) {
	seq := smpReportBytes(t, 1)
	par := smpReportBytes(t, 8)
	if !bytes.Equal(seq, par) {
		t.Error("smp JSON report differs between -parallel 1 and -parallel 8")
	}
}

func TestParallelSMPProfileIdentity(t *testing.T) {
	get := func(parallel int) (spans, chrome, metrics []byte) {
		prof, err := RunSMPObserved(1, SMPSeed, parallel)
		if err != nil {
			t.Fatalf("RunSMPObserved(%d): %v", parallel, err)
		}
		spans, err = prof.JSON()
		if err != nil {
			t.Fatal(err)
		}
		metrics, err = prof.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return spans, prof.ChromeJSON(), metrics
	}
	s1, c1, m1 := get(1)
	s8, c8, m8 := get(8)
	if !bytes.Equal(s1, s8) {
		t.Error("span profile differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(c1, c8) {
		t.Error("Chrome trace differs between -parallel 1 and -parallel 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Error("metrics snapshot differs between -parallel 1 and -parallel 8")
	}
}

func TestParallelSMPAuditIdentity(t *testing.T) {
	get := func(parallel int) []byte {
		prof, err := RunSMPObserved(1, SMPSeed, parallel)
		if err != nil {
			t.Fatalf("RunSMPObserved(%d): %v", parallel, err)
		}
		return prof.Audit().Marshal()
	}
	seq := get(1)
	par := get(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("audit log differs between -parallel 1 (%d bytes) and -parallel 8 (%d bytes)",
			len(seq), len(par))
	}
}

func TestParallelChaosSweepIdentity(t *testing.T) {
	get := func(parallel int) []byte {
		rep, err := RunChaosSweep(1, ChaosSeed, 6, parallel)
		if err != nil {
			t.Fatalf("RunChaosSweep(parallel=%d): %v", parallel, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(get(1), get(8)) {
		t.Error("chaos sweep report differs between -parallel 1 and -parallel 8")
	}
}

// TestChaosSweepSeedZeroMatchesSingle pins the sweep's first run to the
// plain single-seed experiment, so the committed BENCH_chaos artifact
// stays reachable from the sweep.
func TestChaosSweepSeedZeroMatchesSingle(t *testing.T) {
	rep, err := RunChaosSweep(1, ChaosSeed, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunChaos(1, ChaosSeed)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep.Runs[0])
	b, _ := json.Marshal(single)
	if !bytes.Equal(a, b) {
		t.Error("sweep run 0 differs from the single-seed chaos report")
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("sweep runs = %d, want 3", len(rep.Runs))
	}
	if bytes.Equal(a, mustJSON(t, rep.Runs[1])) {
		t.Error("derived seed 1 produced the base seed's report (seeds not derived)")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunIndexed covers the runner's contract: every index runs, the
// bound holds, and the reported error is the lowest-index one.
func TestRunIndexed(t *testing.T) {
	var ran [40]int32
	if err := RunIndexed(8, 40, func(i int) error {
		atomic.AddInt32(&ran[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Errorf("index %d ran %d times", i, n)
		}
	}

	var inFlight, peak int32
	_ = RunIndexed(3, 24, func(i int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&inFlight, -1)
		return nil
	})
	if peak > 3 {
		t.Errorf("parallel bound exceeded: peak in-flight = %d, cap 3", peak)
	}

	errA, errB := errors.New("a"), errors.New("b")
	err := RunIndexed(4, 10, func(i int) error {
		switch i {
		case 3:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errB {
		t.Errorf("RunIndexed error = %v, want lowest-index error %v", err, errB)
	}

	// Sequential mode stops at the first error.
	calls := 0
	err = RunIndexed(1, 10, func(i int) error {
		calls++
		if i == 2 {
			return errA
		}
		return nil
	})
	if err != errA || calls != 3 {
		t.Errorf("sequential error path: err=%v calls=%d, want %v after 3 calls", err, calls, errA)
	}
}
