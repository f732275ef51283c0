package trace_test

import (
	"testing"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/trace"
)

// phaseStats counts the non-async spans per phase and sums their
// durations.
func phaseStats(spans []trace.Span) (map[string]int, map[string]clock.Time) {
	n, total := map[string]int{}, map[string]clock.Time{}
	for _, s := range spans {
		if !s.Async {
			n[s.Phase]++
			total[s.Phase] += s.Dur
		}
	}
	return n, total
}

func TestGuestFlowsRecorded(t *testing.T) {
	c := backends.MustNew(backends.CKI, backends.Options{})
	rec := trace.NewSpanRecorder(c.Clk)
	c.Attach(backends.Observers{Spans: rec})
	k := c.K
	k.Getpid()
	addr, err := k.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Fork(); err != nil {
		t.Fatal(err)
	}
	if err := k.Yield(); err != nil {
		t.Fatal(err)
	}
	n, total := phaseStats(rec.Spans())
	if n["syscall"] < 4 {
		t.Errorf("syscalls recorded = %d, want >= 4", n["syscall"])
	}
	if n["pagefault"] != 4 {
		t.Errorf("pagefaults recorded = %d, want 4", n["pagefault"])
	}
	if n["ctx_switch"] == 0 {
		t.Error("no context switch recorded")
	}
	// Durations are positive and the syscall total is plausible
	// (getpid ≈ 90ns each at minimum).
	if total["syscall"] < 90*clock.Nanosecond {
		t.Errorf("syscall total %v too small", total["syscall"])
	}
}

func TestTimelineOrdered(t *testing.T) {
	c := backends.MustNew(backends.RunC, backends.Options{})
	rec := trace.NewSpanRecorder(c.Clk)
	c.Attach(backends.Observers{Spans: rec})
	for i := 0; i < 20; i++ {
		c.K.Getpid()
	}
	var last clock.Time
	for i, s := range rec.Spans() {
		if s.At < last {
			t.Fatalf("span %d out of order: %v < %v", i, s.At, last)
		}
		last = s.At
	}
	if rec.Len() < 20 {
		t.Errorf("recorded %d spans for 20 syscalls", rec.Len())
	}
}
