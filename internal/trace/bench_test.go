package trace

import (
	"testing"

	"repro/internal/clock"
)

// TestNilObserverSpanAllocs pins the disabled-tracing path at zero
// allocations: with no recorder attached, every Phase call in the guest
// and engine costs a nil check and nothing else.
func TestNilObserverSpanAllocs(t *testing.T) {
	var r *SpanRecorder
	if n := testing.AllocsPerRun(1000, func() {
		id := r.Begin("syscall")
		r.End(id)
		r.EmitAt("shootdown_remote", 0, 0, 1, id)
	}); n != 0 {
		t.Errorf("nil-observer Begin/End/EmitAt allocs/op = %v, want 0", n)
	}
}

// TestObservedSpanAllocsSteadyState pins the enabled-tracing path at
// zero allocations once the span buffer is reserved: phase labels are
// interned string constants, so recording a span is two appends into
// pre-sized buffers.
func TestObservedSpanAllocsSteadyState(t *testing.T) {
	clk := new(clock.Clock)
	r := NewSpanRecorder(clk)
	r.Reserve(4096)
	// Warm the stack slice too.
	for i := 0; i < 8; i++ {
		r.End(r.Begin("warm"))
	}
	if n := testing.AllocsPerRun(1000, func() {
		id := r.Begin("syscall")
		clk.Advance(100)
		r.End(id)
	}); n != 0 {
		t.Errorf("observed Begin/End allocs/op = %v, want 0", n)
	}
}

// TestTrimmedRecorderAllocs pins the bounded-memory replay pattern at
// zero allocations: recording a round of spans, polling past them and
// trimming reuses the same buffer forever.
func TestTrimmedRecorderAllocs(t *testing.T) {
	clk := new(clock.Clock)
	r := NewSpanRecorder(clk)
	round := func() {
		for i := 0; i < 16; i++ {
			id := r.Begin("syscall")
			clk.Advance(100)
			r.End(r.Begin("gate_call"))
			r.End(id)
		}
		r.Trim()
	}
	round() // size the buffers once
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("record+trim round allocs/op = %v, want 0", n)
	}
	if r.Len() != 1002*32 { // one sizing round, one warm-up, 1000 measured
		t.Errorf("Len = %d, want every span counted", r.Len())
	}
}
