package bench

import (
	"fmt"
	"io"

	"repro/internal/backends"
	"repro/internal/cki"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// ExtCOW compares eager and copy-on-write fork across runtimes: the
// fork call itself, plus the deferred cost of the first writes. Under
// PVM every page-table operation is a hypercall + shadow sync, so COW's
// two operations per shared page make the *fork call* more expensive
// than eager copying — shadow paging punishing memory management again
// (§2.4.2) — while CKI's PKS gates keep both cheap.
func ExtCOW(scale int, w io.Writer) error {
	const pages = 64
	t := NewTable("Eager vs copy-on-write fork (64 resident pages)",
		"runtime", "eager fork", "COW fork", "COW + 8 first writes")
	for _, label := range []string{"RunC", "HVM", "PVM", "CKI"} {
		resident := func() (*backends.Container, uint64, error) {
			c := boot(label)
			addr, err := c.K.MmapCall(pages*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
			if err != nil {
				return nil, 0, err
			}
			return c, addr, c.K.TouchRange(addr, pages*mem.PageSize, mmu.Write)
		}
		c1, _, err := resident()
		if err != nil {
			return err
		}
		start := c1.Clk.Now()
		if _, err := c1.K.Fork(); err != nil {
			return err
		}
		eager := c1.Clk.Now() - start

		c2, addr, err := resident()
		if err != nil {
			return err
		}
		start = c2.Clk.Now()
		child, err := c2.K.ForkCOW()
		if err != nil {
			return err
		}
		cow := c2.Clk.Now() - start
		if err := c2.K.SwitchToPID(child); err != nil {
			return err
		}
		start = c2.Clk.Now()
		for i := 0; i < 8; i++ {
			if err := c2.K.Touch(addr+uint64(i)*mem.PageSize, mmu.Write); err != nil {
				return err
			}
		}
		writes := c2.Clk.Now() - start
		t.Row(c1.Name, eager.String(), cow.String(), (cow + writes).String())
	}
	t.Note("PVM pays a hypercall + shadow sync per PTE op: COW fork costs MORE up front there")
	_, err := t.WriteTo(w)
	return err
}

// ExtDensity demonstrates Challenge-1's resolution at scale: many CKI
// containers collocated on one host, each with its own address space
// and KSM but only two protection keys — the 16-key hardware limit
// never binds. Reports per-container boot cost and KSM memory.
func ExtDensity(scale int, w io.Writer) error {
	counts := []int{1, 8, 32, 64}
	t := NewTable("CKI container density on one host",
		"containers", "KSM frames each", "delegated frames each", "gate checks OK")
	for _, n := range counts {
		hostMem := mem.New(1 << 17)
		costs := clock.DefaultCosts()
		var ksms []*cki.KSM
		framesBefore := hostMem.InUse()
		for id := 1; id <= n; id++ {
			k, err := cki.NewKSM(hostMem, costs, id, 1)
			if err != nil {
				return fmt.Errorf("container %d/%d: %w", id, n, err)
			}
			seg, err := hostMem.AllocSegment(256, id)
			if err != nil {
				return err
			}
			k.DelegateSegments(seg)
			ksms = append(ksms, k)
		}
		perKSM := (hostMem.InUse() - framesBefore - n*256) / n
		// Each container declares a top PTP and loads it: the isolation
		// checks must hold for every one of them.
		ok := 0
		for _, k := range ksms {
			top, err := k.AllocGuestFrame()
			if err != nil {
				return err
			}
			if err := k.DeclarePTP(top, 4); err != nil {
				return err
			}
			if _, err := k.LoadCR3(0, top); err == nil {
				ok++
			}
		}
		t.Row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", perKSM), "256",
			fmt.Sprintf("%d/%d", ok, n))
	}
	t.Note("two PKS keys per container regardless of count: address spaces scale, keys do not bind")
	_, err := t.WriteTo(w)
	return err
}
