package backends

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/snapshot"
)

// The cluster supervisor: per-container health probing, a virtual-time
// watchdog driven by the preemption timer, restart with capped
// exponential backoff, and dead-container frame reclamation. This is
// the recovery half of the Fig. 2 story — a guest-kernel panic costs
// one container a bounded amount of virtual downtime, not the machine.

// RestartPolicy configures the supervisor.
type RestartPolicy struct {
	// InitialBackoff is the delay before the first restart attempt;
	// each subsequent crash doubles it, capped at MaxBackoff.
	InitialBackoff clock.Time
	MaxBackoff     clock.Time
	// MaxRestarts caps restarts per container (0 = unlimited); past it
	// the container is left dead (GaveUp).
	MaxRestarts int
	// HangTicks is the watchdog threshold: a container whose virtual-IF
	// bit is clear while this many timer ticks pile up undelivered is
	// declared hung and panicked.
	HangTicks int
	// WatchdogSlice is the preemption-timer period the supervisor arms
	// on every container; the piling ticks are the watchdog's signal.
	WatchdogSlice clock.Time
	// ProbePeriod is the virtual time between supervision rounds: the
	// supervisor runs on a timer, so each round costs at least this much
	// wall-clock (virtual) time even when every container is busy. This
	// is what lets a backoff deadline expire while siblings keep serving.
	ProbePeriod clock.Time
	// SnapshotInterval, when > 0, checkpoints every healthy container
	// each time it completes this many supervised rounds; the last good
	// snapshot is what a warm restart restores from. Captures that find
	// the guest non-quiescent are skipped and counted, not fatal.
	SnapshotInterval int
	// WarmRestart restores the last good snapshot on restart instead of
	// cold-booting the container from scratch. A snapshot that fails to
	// decode (torn write, corruption) or to restore falls back to a
	// cold restart — cleanly, never a panic. A successful warm restore
	// also resets the backoff to InitialBackoff: the container came
	// back in a known-good state, so the next death is treated as
	// fresh rather than as an escalating crash loop.
	WarmRestart bool
}

// DefaultRestartPolicy returns the policy used by the chaos experiment.
func DefaultRestartPolicy() RestartPolicy {
	return RestartPolicy{
		InitialBackoff: clock.Millisecond,
		MaxBackoff:     64 * clock.Millisecond,
		MaxRestarts:    0,
		HangTicks:      3,
		WatchdogSlice:  50 * clock.Microsecond,
		ProbePeriod:    500 * clock.Microsecond,
	}
}

// ContainerHealth is the supervisor's per-container record.
type ContainerHealth struct {
	Name string
	Kind Kind
	// RoundsOK counts supervised rounds served without a fatal fault.
	RoundsOK int
	// Crashes counts this container's own kernel panics (injected or
	// watchdog-declared); Collateral counts deaths caused by a
	// co-resident OS-level container panicking the shared host kernel.
	Crashes    int
	Collateral int
	Restarts   int
	// GaveUp is set when MaxRestarts was exhausted.
	GaveUp    bool
	LastPanic string
	// TotalDowntime accumulates virtual time between each death and its
	// restart; MTTR() averages it.
	TotalDowntime clock.Time
	// WarmRestores counts restarts served from the last good snapshot;
	// ColdRestarts counts full reboots (warm + cold = Restarts).
	WarmRestores int
	ColdRestarts int
	// SnapshotErrors counts periodic checkpoints skipped because the
	// guest was not quiescent; SnapshotFallbacks counts warm restarts
	// that degraded to cold because the snapshot was torn, corrupt, or
	// failed to restore.
	SnapshotErrors    int
	SnapshotFallbacks int
	// Escalations counts how many times this container's crash took
	// the shared host kernel — and every co-resident container — down
	// with it (OS-level runtimes only).
	Escalations int

	down    bool
	downAt  clock.Time
	backoff clock.Time
	retryAt clock.Time
	// kept is the last good capture, the warm-restart image; torn marks
	// that its write tore. spare is the buffer the next capture fills.
	kept, spare *snapshot.Snapshot
	torn        bool
}

// MTTR is the mean virtual time from death to restart.
func (h *ContainerHealth) MTTR() clock.Time {
	if h.Restarts == 0 {
		return 0
	}
	return h.TotalDowntime / clock.Time(h.Restarts)
}

// Supervisor drives a Cluster through faults: probing, restarting, and
// accounting for every container.
type Supervisor struct {
	Cl     *Cluster
	Policy RestartPolicy
	Health []*ContainerHealth

	scratch captureScratch
}

// NewSupervisor creates a supervisor over cl and arms the watchdog's
// preemption timer on every container.
func NewSupervisor(cl *Cluster, pol RestartPolicy) *Supervisor {
	if pol.HangTicks <= 0 {
		pol.HangTicks = 3
	}
	if pol.WatchdogSlice <= 0 {
		pol.WatchdogSlice = 50 * clock.Microsecond
	}
	if pol.ProbePeriod <= 0 {
		pol.ProbePeriod = 500 * clock.Microsecond
	}
	s := &Supervisor{Cl: cl, Policy: pol}
	for _, c := range cl.Containers {
		h := &ContainerHealth{Name: c.Name, Kind: c.Kind, backoff: pol.InitialBackoff}
		s.Health = append(s.Health, h)
		c.K.EnablePreemption(pol.WatchdogSlice)
	}
	return s
}

// Supervise round-robins fn across the containers for the given number
// of rounds. Before each visit the container is probed: a dead kernel
// is restarted once its backoff expires, a hung one (watchdog) is
// panicked first. fn errors carrying guest.EKERNELDIED mark the
// container crashed; any other error aborts supervision.
func (s *Supervisor) Supervise(rounds int, fn func(round int, c *Container) error) error {
	for r := 0; r < rounds; r++ {
		ran := false
		for i := range s.Cl.Containers {
			ok, err := s.visit(r, i, fn)
			if err != nil {
				return err
			}
			if ok {
				ran = true
			}
		}
		// Every container is dead and waiting out its backoff: nothing
		// advances the clock, so the supervisor sleeps (in virtual
		// time) until the earliest retry is due.
		if !ran {
			if t, waiting := s.earliestRetry(); waiting {
				s.Cl.M.Clk.AdvanceTo(t)
			}
		}
		// The supervisor's own timer tick: each round costs a probe
		// period of virtual time, so backoff deadlines expire even while
		// the surviving containers keep the round loop busy.
		s.Cl.M.Clk.Advance(s.Policy.ProbePeriod)
	}
	return nil
}

// visit probes container i and, if it is serving, runs fn against it.
// ok reports whether fn ran to completion.
func (s *Supervisor) visit(round, i int, fn func(round int, c *Container) error) (bool, error) {
	h := s.Health[i]
	c := s.Cl.Containers[i]
	if c.K.Died() {
		s.noteDeath(i, false)
		if !s.tryRestart(i) {
			return false, nil
		}
		c = s.Cl.Containers[i]
	}
	if s.hung(c) {
		c.K.Panic(fmt.Sprintf("watchdog: %d timer ticks pending with interrupts masked", c.K.VIC.Pending()))
		s.noteDeath(i, false)
		s.escalate(i)
		return false, nil
	}
	err := s.Cl.Run(i, func(c *Container) error { return fn(round, c) })
	if err == nil {
		h.RoundsOK++
		if s.Policy.SnapshotInterval > 0 && h.RoundsOK%s.Policy.SnapshotInterval == 0 {
			s.snapshot(i)
		}
		return true, nil
	}
	if errors.Is(err, guest.EKERNELDIED) {
		s.noteDeath(i, false)
		s.escalate(i)
		return false, nil
	}
	return false, err
}

// hung implements the watchdog: the guest sits with its virtual-IF bit
// clear while posted timer ticks pile up past the threshold.
func (s *Supervisor) hung(c *Container) bool {
	return !c.K.VIC.Enabled() && c.K.VIC.Pending() >= s.Policy.HangTicks
}

// noteDeath records a transition to the dead state (idempotent).
func (s *Supervisor) noteDeath(i int, collateral bool) {
	h := s.Health[i]
	if h.down {
		return
	}
	h.down = true
	h.downAt = s.Cl.M.Clk.Now()
	h.retryAt = h.downAt + h.backoff
	h.LastPanic = s.Cl.Containers[i].K.PanicReason()
	if collateral {
		h.Collateral++
	} else {
		h.Crashes++
	}
	if s.Cl.active == i {
		s.Cl.active = -1
	}
}

// snapshot checkpoints container i and keeps the snapshot as the
// warm-restart image. The capture fills the container's spare snapshot
// and is swapped in only on success, so a refused capture leaves the
// last good one untouched, and the steady state allocates nothing. The
// write can tear (faults.SnapshotTorn): the torn bit is set now and
// applied when a restart reads the image (tryRestart), which is also
// the only time it is encoded, so a blob nobody reads is never built.
// The damage is not detected here — that is the restore-path
// checksum's job.
func (s *Supervisor) snapshot(i int) {
	h := s.Health[i]
	c := s.Cl.Containers[i]
	if h.spare == nil {
		h.spare = new(snapshot.Snapshot)
	}
	if err := c.checkpoint(h.spare, &s.scratch); err != nil {
		h.SnapshotErrors++
		return
	}
	h.kept, h.spare = h.spare, h.kept
	h.torn = c.K.Fire(faults.SnapshotTorn)
}

// escalate models the blast radius of container i's crash. An OS-level
// container (RunC) shares the host kernel: its kernel panic IS a host
// panic, and every co-resident container dies with it — the Fig. 2
// contrast the per-container-kernel runtimes exist to avoid.
func (s *Supervisor) escalate(i int) {
	if s.Cl.Containers[i].Kind != RunC {
		return
	}
	s.Health[i].Escalations++
	for j, o := range s.Cl.Containers {
		if j == i || o.K.Died() {
			continue
		}
		o.K.Panic("host kernel panic: co-resident OS-level container crashed the shared kernel")
		s.noteDeath(j, true)
	}
}

// tryRestart replaces a dead container once its backoff has expired.
// The replacement boots with the dead container's options, audit log
// included, on both the warm and the cold path, and inherits its
// observers and fault plan. Returns true when the replacement is
// serving.
func (s *Supervisor) tryRestart(i int) bool {
	h := s.Health[i]
	if h.GaveUp {
		return false
	}
	if s.Policy.MaxRestarts > 0 && h.Restarts >= s.Policy.MaxRestarts {
		h.GaveUp = true
		return false
	}
	now := s.Cl.M.Clk.Now()
	if now < h.retryAt {
		return false
	}
	old := s.Cl.Containers[i]
	id := old.K.ContainerID
	// Reclaim the dead container before booting the replacement into
	// its frames: a surviving translation tagged with a recycled PCID
	// would resolve through the corpse's tables.
	s.Cl.M.reclaim(old.Kind, id)
	warm := false
	var c *Container
	if s.Policy.WarmRestart && h.kept != nil {
		// Read the image back as its write left it: whole, or, when the
		// write tore, truncated mid-payload — what a writer dying
		// between header and trailer leaves on disk. Decoding also
		// means the replacement shares the decoded file bytes, never
		// the kept snapshot the next capture overwrites.
		blob := snapshot.Encode(h.kept)
		if h.torn {
			blob = blob[:len(blob)*3/4]
		}
		snap, err := snapshot.Decode(blob)
		if err == nil {
			c, err = instantiate(s.Cl.M, snap, snap.ContainerID, guest.RestoreEager, nil, nil, old.Opts.Audit)
		}
		if err == nil {
			warm = true
		} else {
			// Torn write, bit rot, or a restore failure: degrade to a
			// cold restart. The checksum turned the damage into a clean
			// error; the container still comes back, just without its
			// warm state.
			h.SnapshotFallbacks++
			h.kept = nil
			// A failed restore may have part-booted a replacement;
			// reclaim it too before the cold boot below.
			s.Cl.M.reclaim(old.Kind, id)
		}
	}
	if c == nil {
		var err error
		c, err = NewOnMachine(s.Cl.M, old.Kind, old.Opts, id)
		if err != nil {
			// The machine is too degraded to reboot the container now;
			// retry after another backoff period.
			h.retryAt = now + h.backoff
			return false
		}
	}
	if err := c.Activate(); err != nil {
		h.retryAt = now + h.backoff
		return false
	}
	s.Cl.Containers[i] = c
	s.Cl.active = i
	c.Attach(old.obs)
	c.InjectFaults(old.inj)
	c.K.EnablePreemption(s.Policy.WatchdogSlice)
	h.Restarts++
	h.TotalDowntime += s.Cl.M.Clk.Now() - h.downAt
	h.down = false
	if warm {
		// A warm restore resumed a verified-good state: the crash loop
		// is broken, so the next death starts from the initial backoff
		// instead of inheriting an escalated one.
		h.WarmRestores++
		h.backoff = s.Policy.InitialBackoff
	} else {
		h.ColdRestarts++
		h.backoff *= 2
		if h.backoff > s.Policy.MaxBackoff {
			h.backoff = s.Policy.MaxBackoff
		}
	}
	return true
}

// earliestRetry returns the soonest retry deadline among dead
// containers still eligible for restart.
func (s *Supervisor) earliestRetry() (clock.Time, bool) {
	var t clock.Time
	found := false
	for _, h := range s.Health {
		if !h.down || h.GaveUp {
			continue
		}
		if s.Policy.MaxRestarts > 0 && h.Restarts >= s.Policy.MaxRestarts {
			continue
		}
		if !found || h.retryAt < t {
			t = h.retryAt
			found = true
		}
	}
	return t, found
}

// Report renders the per-container survival table.
func (s *Supervisor) Report(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %8s %8s %11s %9s %6s %6s %7s %7s %7s %12s\n",
		"container", "rounds", "crashes", "collateral", "restarts", "warm", "cold", "fallbk", "escal", "gaveup", "mttr")
	for _, h := range s.Health {
		fmt.Fprintf(w, "%-10s %8d %8d %11d %9d %6d %6d %7d %7d %7v %12v\n",
			h.Name, h.RoundsOK, h.Crashes, h.Collateral, h.Restarts,
			h.WarmRestores, h.ColdRestarts, h.SnapshotFallbacks, h.Escalations, h.GaveUp, h.MTTR())
	}
	return nil
}
