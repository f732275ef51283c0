package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/des"
)

// pb writes protocol-buffer fields for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

func gzipped(t *testing.T, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// handBuiltProfile is a CPU profile with exactly known folds: one
// location holds an inlined mem frame inside a guest frame, runtime
// and standard-library leaves are charged to their module caller,
// the GC worker has no repository frame and the harness has only its
// own. Sample values are (count, nanoseconds).
func handBuiltProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",
		"repro/internal/mem.(*Frame).Zero",
		"repro/internal/guest.(*Kernel).fileWrite",
		"repro/internal/bench.Fig14",
		"main.main",
		"runtime.gcBgMarkWorker",
		"container/heap.Pop",
		"repro/internal/des.(*Sim).Run",
		"crypto/sha256.block",
	}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		p.bytes(1, vt.b)
	}
	// Samples: S1 packs its fields, S2 repeats them unpacked.
	sample := func(ns uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, ns)
		p.bytes(2, s.b)
	}
	sample(30, 1, 2, 3, 4)
	var s2 pb
	s2.varint(1, 3)
	s2.varint(1, 4)
	s2.varint(2, 1)
	s2.varint(2, 10)
	p.bytes(2, s2.b)
	sample(20, 5)
	sample(40, 6, 7, 3, 4)
	sample(5, 8, 4)
	// Locations list function IDs innermost first; location 2 is
	// mem.Zero inlined into guest.fileWrite.
	for id, fids := range [][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}, 7: {8}, 8: {9}} {
		if fids == nil {
			continue
		}
		var loc pb
		loc.varint(1, uint64(id))
		for _, fid := range fids {
			var line pb
			line.varint(1, fid)
			line.varint(2, 42)
			loc.bytes(4, line.b)
		}
		p.bytes(4, loc.b)
	}
	for fid := uint64(1); fid <= 9; fid++ {
		var fn pb
		fn.varint(1, fid)
		fn.varint(2, fid+4) // names start at string 5
		p.bytes(5, fn.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestFold(t *testing.T) {
	t.Run("hand-built", func(t *testing.T) {
		prof, err := parseProfile(bytes.NewReader(gzipped(t, handBuiltProfile())))
		if err != nil {
			t.Fatal(err)
		}
		f, err := prof.fold("cpu", "nanoseconds")
		if err != nil {
			t.Fatal(err)
		}
		wantSelf := map[string]float64{"mem": 30, "bench": 10, "des": 40}
		wantIncl := map[string]float64{"mem": 30, "guest": 30, "bench": 80, "des": 40}
		if !reflect.DeepEqual(f.self, wantSelf) {
			t.Errorf("self = %v, want %v", f.self, wantSelf)
		}
		if !reflect.DeepEqual(f.incl, wantIncl) {
			t.Errorf("incl = %v, want %v", f.incl, wantIncl)
		}
		if f.bg != 20 || f.harness != 5 {
			t.Errorf("bg, harness = %v, %v, want 20, 5", f.bg, f.harness)
		}
		if _, err := prof.fold("alloc_space", "bytes"); err == nil {
			t.Error("fold of a missing value type succeeded")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		// A cut on a field boundary may still parse; no cut may panic.
		raw := handBuiltProfile()
		for n := range raw {
			_, _ = parseProfile(bytes.NewReader(gzipped(t, raw[:n])))
		}
	})

	t.Run("live des loop", func(t *testing.T) {
		if testing.Short() {
			t.Skip("profiles for a second")
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skip("CPU profiler busy:", err)
		}
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			var s des.Sim
			r := des.NewRand(1)
			var fire func(clock.Time)
			fire = func(clock.Time) { s.After(clock.Time(r.Uint64()%1000+1), fire) }
			for i := 0; i < 1000; i++ {
				s.After(clock.Time(i), fire)
			}
			s.Run(50_000)
		}
		pprof.StopCPUProfile()
		prof, err := parseProfile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		f, err := prof.fold("cpu", "nanoseconds")
		if err != nil {
			t.Fatal(err)
		}
		total := f.bg + f.harness
		for _, v := range f.self {
			total += v
		}
		if total == 0 {
			t.Skip("no samples")
		}
		if share := f.self["des"] / total; share < 0.5 {
			t.Errorf("des self share %.2f of %v ns, want >= 0.5 (self %v, bg %v)", share, total, f.self, f.bg)
		}
	})
}
