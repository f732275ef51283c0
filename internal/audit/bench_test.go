package audit

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/clock"
)

// TestAuditEmitAllocs pins the recording hot paths at zero allocations
// in steady state: a reserved recorder, and the nil no-op recorder.
func TestAuditEmitAllocs(t *testing.T) {
	clk := new(clock.Clock)
	r := NewRecorder(clk)
	r.Reserve(2000)
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(EvSyscall, 1, 0x101, 42, 43, 44)
	}); n != 0 {
		t.Errorf("Emit (reserved) allocs/op = %v, want 0", n)
	}

	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Emit(EvSyscall, 1, 0x101, 42, 43, 44)
	}); n != 0 {
		t.Errorf("Emit (nil recorder) allocs/op = %v, want 0", n)
	}
}

// TestAuditEncodeAllocsFlat checks the streaming encoder's allocation
// count does not depend on the number of records: only the one-time
// header allocates, every record reuses the recorder's buffer.
func TestAuditEncodeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates inside AllocsPerRun")
	}
	mk := func(events int) *Recorder {
		r := NewRecorder(new(clock.Clock))
		for i := 0; i < events; i++ {
			r.Emit(EvSyscall, 0, 0, uint64(i), 0, 0)
		}
		return r
	}
	small, large := mk(10), mk(10000)
	allocs := func(r *Recorder) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := r.EncodeTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Errorf("EncodeTo allocs grow with record count: %v for 10 events vs %v for 10000", a, b)
	}
}

// TestEncodeToMatchesMarshal checks the streaming path is byte-for-byte
// the in-memory Marshal encoding (the artifact-identity contract).
func TestEncodeToMatchesMarshal(t *testing.T) {
	clk := new(clock.Clock)
	r := NewRecorder(clk)
	r.Meta = Meta{Kind: "smp", Seed: 7, Scale: 2}
	for i := 0; i < 257; i++ {
		clk.Advance(clock.Time(i))
		r.Emit(Kind(1+i%(NumKinds-1)), i%8, uint16(i), uint64(i), uint64(i)*3, uint64(i)*5)
	}
	var buf bytes.Buffer
	if err := r.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), r.Marshal()) {
		t.Fatal("EncodeTo output differs from Marshal output")
	}
}

// TestRecorderAppendFrom checks cell-order concatenation reproduces a
// single sequential recorder, and Reset keeps capacity.
func TestRecorderAppendFrom(t *testing.T) {
	clk := new(clock.Clock)
	seq := NewRecorder(clk)
	a, b := NewRecorder(clk), NewRecorder(clk)
	for i := 0; i < 10; i++ {
		seq.Emit(EvSyscall, 0, 0, uint64(i), 0, 0)
		if i < 5 {
			a.Emit(EvSyscall, 0, 0, uint64(i), 0, 0)
		} else {
			b.Emit(EvSyscall, 0, 0, uint64(i), 0, 0)
		}
	}
	merged := NewRecorder(clk)
	merged.AppendFrom(a)
	merged.AppendFrom(b)
	merged.Meta = seq.Meta
	if !bytes.Equal(merged.Marshal(), seq.Marshal()) {
		t.Fatal("concatenated per-cell logs differ from the sequential log")
	}

	merged.Reset()
	if merged.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", merged.Len())
	}
	if cap(merged.events) == 0 {
		t.Fatal("Reset dropped the event buffer capacity")
	}
}
