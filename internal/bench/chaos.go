package bench

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// The chaos experiment: all five runtimes co-resident on one machine,
// each under its own deterministic fault stream, supervised through
// crashes, hangs, and restarts. The survival report is the Fig. 2
// argument in numbers — a per-container-kernel runtime loses one
// container per fault; the OS-level container takes the cluster down
// with it.

// ChaosSeed is the cluster seed the committed BENCH_chaos report uses;
// per-container streams derive from it via faults.Child.
const ChaosSeed = 0x5eed

// ChaosRow is one container's survival record.
type ChaosRow struct {
	Runtime    string  `json:"runtime"`
	RoundsOK   int     `json:"rounds_ok"`
	LostWork   int     `json:"lost_work"`
	Crashes    int     `json:"crashes"`
	Collateral int     `json:"collateral"`
	Restarts   int     `json:"restarts"`
	GaveUp     bool    `json:"gave_up"`
	MTTRNs     float64 `json:"mttr_ns"`
	MTTR       string  `json:"mttr"`
	Faults     string  `json:"faults_injected"`
}

// ChaosSurvival is the whole cluster's report (the -json output).
type ChaosSurvival struct {
	Seed       uint64     `json:"seed"`
	Rounds     int        `json:"rounds"`
	VirtualDur string     `json:"virtual_duration"`
	Containers []ChaosRow `json:"containers"`
}

// chaosWork is one round of the mixed workload: file I/O through the
// virtio path, anonymous memory with demand paging, and cheap syscalls
// — touching every injection site a guest can reach.
func chaosWork(c *backends.Container) error {
	k := c.K
	fd, err := k.Open("/chaos", true)
	if err != nil {
		return err
	}
	if _, err := k.Write(fd, []byte("fault-injection-round")); err != nil {
		return err
	}
	if _, err := k.Pread(fd, 8, 0); err != nil {
		return err
	}
	if err := k.Close(fd); err != nil {
		return err
	}
	addr, err := k.MmapCall(4*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	if err := k.TouchRange(addr, 4*mem.PageSize, mmu.Write); err != nil {
		// Transient injected ENOMEM is part of the experiment, not a
		// failure; fatal faults surface as EKERNELDIED on the next call.
		if err != guest.ENOMEM {
			return err
		}
	}
	if err := k.MunmapCall(addr, 4*mem.PageSize); err != nil {
		return err
	}
	k.Compute(2 * clock.Microsecond)
	if k.Getpid() == 0 && k.Died() {
		return guest.EKERNELDIED
	}
	return nil
}

// runtimeSpec is one point on an experiment's runtime axis.
type runtimeSpec struct {
	kind backends.Kind
	opts backends.Options
}

// runtimeSpecs is the runtime axis of the chaos, snapshot and fleet
// family experiments: every runtime, sized for many small co-resident
// containers (one machine hosts a whole row, or a replayed node's
// slots).
func runtimeSpecs() []runtimeSpec {
	return []runtimeSpec{
		{backends.RunC, backends.Options{}},
		{backends.HVM, backends.Options{GuestFrames: 1 << 12}},
		{backends.PVM, backends.Options{GuestFrames: 1 << 12}},
		{backends.CKI, backends.Options{SegmentFrames: 1 << 11}},
		{backends.GVisor, backends.Options{}},
	}
}

// RunChaos executes the chaos experiment and returns the survival
// report. Deterministic: same seed and scale, same report.
func RunChaos(scale int, seed uint64) (*ChaosSurvival, error) {
	cl, err := backends.NewCluster(1 << 17)
	if err != nil {
		return nil, err
	}
	specs := runtimeSpecs()
	plans := make([]*faults.Plan, len(specs))
	for i, s := range specs {
		c, err := cl.Add(s.kind, s.opts)
		if err != nil {
			return nil, err
		}
		// Each container replays its own independent stream derived from
		// the cluster seed; occurrence counts survive restarts, so a
		// replacement picks up the stream where its predecessor died.
		plans[i] = faults.DefaultPlan(faults.Child(seed, i+1))
		c.InjectFaults(plans[i])
	}

	rounds := 400 * scale
	attempted := make([]int, len(specs))
	completed := make([]int, len(specs))
	sup := backends.NewSupervisor(cl, backends.DefaultRestartPolicy())
	err = sup.Supervise(rounds, func(_ int, c *backends.Container) error {
		i := c.K.ContainerID - 1
		attempted[i]++
		if err := chaosWork(c); err != nil {
			return err
		}
		completed[i]++
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &ChaosSurvival{
		Seed:       seed,
		Rounds:     rounds,
		VirtualDur: cl.M.Clk.Now().String(),
	}
	for i, h := range sup.Health {
		rep.Containers = append(rep.Containers, ChaosRow{
			Runtime:    h.Name,
			RoundsOK:   h.RoundsOK,
			LostWork:   attempted[i] - completed[i],
			Crashes:    h.Crashes,
			Collateral: h.Collateral,
			Restarts:   h.Restarts,
			GaveUp:     h.GaveUp,
			MTTRNs:     float64(h.MTTR()) / float64(clock.Nanosecond),
			MTTR:       h.MTTR().String(),
			Faults:     plans[i].Summary(),
		})
	}
	return rep, nil
}

// runChaosArtifact runs the committed single-seed report, or with
// -seeds N a sweep over N derived seeds.
func runChaosArtifact(o Options) (Report, error) {
	if o.Seeds > 1 {
		return RunChaosSweep(o.Scale, ChaosSeed, o.Seeds, o.Parallel)
	}
	return RunChaos(o.Scale, ChaosSeed)
}

// WriteTable renders the survival report as a table.
func (rep *ChaosSurvival) WriteTable(w io.Writer) error {
	t := NewTable(fmt.Sprintf("Chaos survival under deterministic fault injection (seed %#x)", rep.Seed),
		"runtime", "rounds ok", "lost", "crashes", "collateral", "restarts", "gave up", "MTTR", "faults injected")
	for _, r := range rep.Containers {
		gaveUp := "no"
		if r.GaveUp {
			gaveUp = "yes"
		}
		t.Row(r.Runtime, itoa(r.RoundsOK), itoa(r.LostWork), itoa(r.Crashes),
			itoa(r.Collateral), itoa(r.Restarts), gaveUp, r.MTTR, r.Faults)
	}
	t.Note("%d rounds, %s of virtual time; RunC crashes take the whole cluster (shared host kernel),", rep.Rounds, rep.VirtualDur)
	t.Note("per-container-kernel runtimes lose exactly the faulted container (Fig. 2)")
	_, err := t.WriteTo(w)
	return err
}

// Invariants checks that every runtime is present and served rounds,
// and that the fault plan crashed at least one container — the survival
// comparison needs a crash to compare.
func (rep *ChaosSurvival) Invariants() error {
	if len(rep.Containers) != 5 {
		return fmt.Errorf("chaos: %d containers, want 5", len(rep.Containers))
	}
	crashes := 0
	for _, r := range rep.Containers {
		crashes += r.Crashes
		if r.RoundsOK == 0 {
			return fmt.Errorf("chaos: %s never served a round", r.Runtime)
		}
	}
	if crashes == 0 {
		return errors.New("chaos: no container ever crashed under the default plan")
	}
	return nil
}

func itoa(n int) string { return strconv.Itoa(n) }
