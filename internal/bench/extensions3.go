package bench

import (
	"fmt"
	"io"

	"repro/internal/clock"
)

// ExtPreempt measures the scheduling tax: a CPU-bound, two-process
// container preempted at a fixed timeslice. Every tick runs the
// runtime's timer-interrupt flow plus a context switch, so nested HVM —
// where each tick is an L0-forwarded exit pair — pays an order of
// magnitude more than CKI's switcher gate. This is the same mechanism
// behind the paper's I/O collapse, showing up on pure compute.
func ExtPreempt(scale int, w io.Writer) error {
	const (
		slices  = 200
		slice   = 100 * clock.Microsecond
		compute = 25 * clock.Microsecond
	)
	t := NewTable("Preemption tax at a 100µs timeslice (2 CPU-bound processes)",
		"runtime", "no ticks", "with ticks", "overhead")
	for _, label := range []string{"RunC", "HVM-BM", "HVM-NST", "PVM-BM", "CKI-BM"} {
		run := func(preempt bool) (clock.Time, error) {
			c := boot(label)
			if _, err := c.K.Fork(); err != nil {
				return 0, err
			}
			if preempt {
				c.K.EnablePreemption(slice)
			}
			start := c.Clk.Now()
			for i := 0; i < slices; i++ {
				c.K.Compute(compute)
			}
			return c.Clk.Now() - start, nil
		}
		base, err := run(false)
		if err != nil {
			return err
		}
		ticked, err := run(true)
		if err != nil {
			return err
		}
		t.Row(label, base.String(), ticked.String(),
			fmt.Sprintf("%.1f%%", 100*(float64(ticked)/float64(base)-1)))
	}
	t.Note("each tick = the runtime's timer-IRQ flow + a context switch; nested HVM forwards both exits through L0")
	_, err := t.WriteTo(w)
	return err
}
