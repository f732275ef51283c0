package smp

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/tlb"
	"repro/internal/trace"
)

func newEngine(t *testing.T, n int) *Engine {
	t.Helper()
	costs := clock.DefaultCosts()
	m := mem.New(256)
	cpu := hw.NewCPU(0, true)
	unit := mmu.New(m, costs)
	cpu.SetTLBHooks(unit.Hooks())
	e, err := New(new(clock.Clock), costs, m, cpu, unit, n)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

const (
	testPCID = uint16(0x101)
	testVA   = uint64(0x7f0000400000)
)

func seedRemoteTLB(e *Engine, vcpu int, va uint64) {
	e.VCPUs[vcpu].MMU.TLB.Insert(testPCID, va, tlb.Entry{PFN: 7, Writable: true, User: true})
}

func TestShootdownDefaultFlow(t *testing.T) {
	e := newEngine(t, 2)
	seedRemoteTLB(e, 1, testVA)
	start := e.Clk.Now()
	lat, err := e.Shootdown(ShootdownSpec{
		Initiator: 0, Targets: e.Others(0, 2), PCID: testPCID, VA: testVA,
	})
	if err != nil {
		t.Fatalf("Shootdown: %v", err)
	}
	c := e.Costs
	want := c.IPISend + c.InterruptDeliver + c.Invlpg + c.IPIAck + c.Iret + c.ShootdownPoll
	if lat != want {
		t.Errorf("latency = %v, want %v", lat, want)
	}
	if got := e.Clk.Now() - start; got != lat {
		t.Errorf("clock advanced %v, latency says %v", got, lat)
	}
	if _, ok := e.VCPUs[1].MMU.TLB.Lookup(testPCID, testVA); ok {
		t.Error("stale translation survived the shootdown on vCPU 1")
	}
	if e.Stats.Shootdowns != 1 || e.Stats.IPIsSent != 1 {
		t.Errorf("stats = %+v, want 1 shootdown / 1 IPI", e.Stats)
	}
	if s := e.VCPUs[1].Stats; s.ShootdownIPIs != 1 || s.AcksSent != 1 {
		t.Errorf("remote vCPU stats = %+v", s)
	}
	if e.VCPUs[1].IPI.TakeVector(hw.VectorIPI) {
		t.Error("IPI left pending after being serviced")
	}
}

// An All shootdown with no RemotePhases charges and records the
// engine's native whole-PCID flow.
func TestShootdownAllFlushesWholePCID(t *testing.T) {
	e := newEngine(t, 2)
	e.Rec = trace.NewSpanRecorder(e.Clk)
	seedRemoteTLB(e, 1, testVA)
	seedRemoteTLB(e, 1, testVA+mem.PageSize)
	lat, err := e.Shootdown(ShootdownSpec{
		Initiator: 0, Targets: e.Others(0, 2), PCID: testPCID, All: true,
	})
	if err != nil {
		t.Fatalf("Shootdown: %v", err)
	}
	for _, va := range []uint64{testVA, testVA + mem.PageSize} {
		if _, ok := e.VCPUs[1].MMU.TLB.Lookup(testPCID, va); ok {
			t.Errorf("entry for %#x survived invpcid-class shootdown", va)
		}
	}
	c := e.Costs
	want := c.IPISend + c.InterruptDeliver + c.TLBFlush + c.IPIAck + c.Iret + c.ShootdownPoll
	if lat != want {
		t.Errorf("latency = %v, want %v (TLBFlush, not Invlpg)", lat, want)
	}
	spans := e.Rec.Spans()
	var phases []string
	var sum, remote clock.Time
	for _, s := range spans {
		if s.Phase != "shootdown_remote" {
			continue
		}
		remote = s.Dur
		for _, c := range spans {
			if c.Parent == s.ID {
				phases = append(phases, c.Phase)
				sum += c.Dur
			}
		}
	}
	if got := fmt.Sprint(phases); got != "[interrupt_deliver tlb_flush ipi_ack iret]" {
		t.Errorf("remote phases = %s", got)
	}
	if sum != remote {
		t.Errorf("remote phases sum to %v, span is %v", sum, remote)
	}
}

func TestShootdownLostIPIIsResent(t *testing.T) {
	e := newEngine(t, 2)
	seedRemoteTLB(e, 1, testVA)
	lat, err := e.Shootdown(ShootdownSpec{
		Initiator: 0, Targets: e.Others(0, 2), PCID: testPCID, VA: testVA,
		Inj: faults.NewPlan(1, faults.Rule{Site: faults.IPILost, Nth: 1}),
	})
	if err != nil {
		t.Fatalf("Shootdown after resend: %v", err)
	}
	if e.Stats.LostIPIs != 1 || e.Stats.Resends != 1 {
		t.Errorf("stats = %+v, want 1 lost / 1 resend", e.Stats)
	}
	if lat <= e.Costs.ShootdownTimeout {
		t.Errorf("latency %v does not include the resend timeout %v", lat, e.Costs.ShootdownTimeout)
	}
	if _, ok := e.VCPUs[1].MMU.TLB.Lookup(testPCID, testVA); ok {
		t.Error("stale translation survived the resent shootdown")
	}
}

func TestShootdownHungAfterMaxAttempts(t *testing.T) {
	e := newEngine(t, 2)
	_, err := e.Shootdown(ShootdownSpec{
		Initiator: 0, Targets: e.Others(0, 2), PCID: testPCID, VA: testVA,
		Inj: faults.NewPlan(1, faults.Rule{Site: faults.IPILost, Every: 1}),
	})
	if !errors.Is(err, ErrShootdownHung) {
		t.Fatalf("err = %v, want ErrShootdownHung", err)
	}
	if e.Stats.HungInitiators != 1 {
		t.Errorf("HungInitiators = %d, want 1", e.Stats.HungInitiators)
	}
	if e.Stats.Resends != MaxSendAttempts-1 {
		t.Errorf("Resends = %d, want %d", e.Stats.Resends, MaxSendAttempts-1)
	}
	if e.Stats.LostIPIs != MaxSendAttempts {
		t.Errorf("LostIPIs = %d, want %d", e.Stats.LostIPIs, MaxSendAttempts)
	}
}

func TestShootdownDelayedAck(t *testing.T) {
	e := newEngine(t, 2)
	base := newEngine(t, 2)
	spec := func(inj faults.Injector) ShootdownSpec {
		return ShootdownSpec{Initiator: 0, Targets: []int{1}, PCID: testPCID, VA: testVA, Inj: inj}
	}
	slow, err := e.Shootdown(spec(faults.NewPlan(1, faults.Rule{Site: faults.AckDelay, Nth: 1})))
	if err != nil {
		t.Fatalf("Shootdown: %v", err)
	}
	fast, err := base.Shootdown(spec(nil))
	if err != nil {
		t.Fatalf("Shootdown: %v", err)
	}
	if slow-fast != e.Costs.ShootdownAckDelay {
		t.Errorf("delayed ack added %v, want %v", slow-fast, e.Costs.ShootdownAckDelay)
	}
	if e.Stats.DelayedAcks != 1 {
		t.Errorf("DelayedAcks = %d, want 1", e.Stats.DelayedAcks)
	}
}

func TestShootdownSendFailureCountsAsHung(t *testing.T) {
	e := newEngine(t, 2)
	boom := errors.New("dropped hypercall")
	_, err := e.Shootdown(ShootdownSpec{
		Initiator: 0, Targets: []int{1}, PCID: testPCID, VA: testVA,
		Send: func([]int) error { return boom },
	})
	if !errors.Is(err, ErrShootdownHung) {
		t.Fatalf("err = %v, want ErrShootdownHung", err)
	}
}

func TestWriteICRPostsThroughEngine(t *testing.T) {
	e := newEngine(t, 4)
	cpu := e.VCPUs[0].CPU
	cpu.SetMode(hw.ModeKernel)
	if f := cpu.WriteICR(2, hw.VectorIPI); f != nil {
		t.Fatalf("kernel-mode WriteICR faulted: %v", f)
	}
	if !e.VCPUs[2].IPI.TakeVector(hw.VectorIPI) {
		t.Error("ICR write did not post to target vCPU queue")
	}
	cpu.SetMode(hw.ModeUser)
	if f := cpu.WriteICR(2, hw.VectorIPI); f == nil {
		t.Error("user-mode WriteICR did not fault")
	}
	// Out-of-range targets must not panic.
	e.Post(-1, hw.VectorIPI)
	e.Post(99, hw.VectorIPI)
}

func TestEngineRejectsZeroVCPUs(t *testing.T) {
	costs := clock.DefaultCosts()
	m := mem.New(16)
	if _, err := New(new(clock.Clock), costs, m, hw.NewCPU(0, true), mmu.New(m, costs), 0); err == nil {
		t.Error("New accepted 0 vCPUs")
	}
}

func TestSchedulerPlacementAndStealing(t *testing.T) {
	s := NewScheduler(3)
	if v := s.Place(1, 2); v != 2 {
		t.Errorf("pinned placement = %d, want 2", v)
	}
	// Least-loaded, lowest ID on ties: vCPU 0 and 1 are empty.
	if v := s.Place(2, AnyVCPU); v != 0 {
		t.Errorf("least-loaded placement = %d, want 0", v)
	}
	if v := s.Place(3, AnyVCPU); v != 1 {
		t.Errorf("least-loaded placement = %d, want 1", v)
	}
	if s.Queued() != 3 {
		t.Errorf("Queued = %d, want 3", s.Queued())
	}
	// Local FIFO pop.
	if pid, ok := s.Next(0); !ok || pid != 2 {
		t.Errorf("Next(0) = %d,%v, want 2,true", pid, ok)
	}
	// Idle vCPU 0 steals from the longest sibling queue.
	s.Place(4, 2)
	if pid, ok := s.Next(0); !ok || pid != 1 {
		t.Errorf("steal = %d,%v, want head of longest queue (1)", pid, ok)
	}
	if pid, ok := s.Next(2); !ok || pid != 4 {
		t.Errorf("Next(2) = %d,%v, want 4,true", pid, ok)
	}
	if pid, ok := s.Next(1); !ok || pid != 3 {
		t.Errorf("Next(1) = %d,%v, want 3,true", pid, ok)
	}
	if _, ok := s.Next(1); ok {
		t.Error("Next on drained scheduler returned a task")
	}
	if _, ok := s.Next(99); ok {
		t.Error("Next out of range returned a task")
	}
}
