package smp

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// TestShootdownAllocs pins the unobserved shootdown protocol at zero
// allocations per run: the scratch target buffer is reused and the
// nil-observer emission paths cost a branch each.
func TestShootdownAllocs(t *testing.T) {
	costs := clock.DefaultCosts()
	m := mem.New(256)
	cpu := hw.NewCPU(0, true)
	unit := mmu.New(m, costs)
	cpu.SetTLBHooks(unit.Hooks())
	e, err := New(new(clock.Clock), costs, m, cpu, unit, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	targets := e.Others(0, 4)
	spec := ShootdownSpec{Initiator: 0, Targets: targets, PCID: testPCID, VA: testVA}
	if _, err := e.Shootdown(spec); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := e.Shootdown(spec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Shootdown allocs/op = %v, want 0", n)
	}
}
