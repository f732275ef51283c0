package backends

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// Supervisor-level checkpoint/restore: periodic snapshots, warm
// restarts, torn-write fallback, and restart-storm hardening.

func warmPolicy() RestartPolicy {
	pol := DefaultRestartPolicy()
	pol.SnapshotInterval = 1
	pol.WarmRestart = true
	return pol
}

// superviseWithCrashes runs a one-container cluster where the workload
// succeeds normally but panics the guest on every crashEvery-th round.
func superviseWithCrashes(t *testing.T, kind Kind, pol RestartPolicy, rounds, crashEvery int, plan *faults.Plan) *Supervisor {
	t.Helper()
	cl, err := NewCluster(1 << 17)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cl.Add(kind, Options{SegmentFrames: 2048, GuestFrames: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		c.InjectFaults(plan)
	}
	sup := NewSupervisor(cl, pol)
	n := 0
	err = sup.Supervise(rounds, func(_ int, c *Container) error {
		n++
		if crashEvery > 0 && n%crashEvery == 0 {
			c.K.Panic("storm: induced crash")
			return guest.EKERNELDIED
		}
		return smallWork(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

// TestWarmRestartRestoresSnapshotState: with per-round snapshots, every
// recovery is warm, and the replacement container resumes from the last
// good snapshot (its file state is intact) rather than from scratch.
func TestWarmRestartRestoresSnapshotState(t *testing.T) {
	sup := superviseWithCrashes(t, CKI, warmPolicy(), 40, 5, nil)
	h := sup.Health[0]
	if h.Crashes == 0 {
		t.Fatal("no crashes induced")
	}
	if h.WarmRestores == 0 {
		t.Fatalf("no warm restores (crashes=%d cold=%d snapErr=%d fallbacks=%d)",
			h.Crashes, h.ColdRestarts, h.SnapshotErrors, h.SnapshotFallbacks)
	}
	if h.SnapshotFallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %d", h.SnapshotFallbacks)
	}
	// The warm-restart image carries the workload's file state, not a
	// fresh filesystem: smallWork created /chaos before the checkpoint.
	if h.kept == nil {
		t.Fatal("no last good snapshot kept")
	}
	found := false
	for _, f := range h.kept.Image.Files {
		if f.Path == "/chaos" {
			found = true
		}
	}
	if !found {
		t.Fatal("snapshot image missing the workload's /chaos file")
	}
	// And the live container (the supervision window may end mid-crash;
	// restart it if so) still serves from that state.
	c := sup.Cl.Containers[0]
	if c.K.Died() {
		m := sup.Cl.M
		m.reclaim(c.Kind, c.K.ContainerID)
		var err error
		if c, err = RestoreBytes(m, snapshot.Encode(h.kept)); err != nil {
			t.Fatalf("manual warm restore: %v", err)
		}
	}
	if _, err := c.K.Open("/chaos", false); err != nil {
		t.Fatalf("snapshotted file missing after warm restart: %v", err)
	}
	if h.WarmRestores+h.ColdRestarts != h.Restarts {
		t.Fatalf("warm %d + cold %d != restarts %d", h.WarmRestores, h.ColdRestarts, h.Restarts)
	}
}

// TestWarmRestartMTTRBeatsCold: same crash schedule, same rounds; the
// warm-restart policy's mean time to recovery is strictly below the
// cold policy's, because a verified warm restore resets the backoff
// while cold restarts keep doubling it.
func TestWarmRestartMTTRBeatsCold(t *testing.T) {
	for _, kind := range []Kind{CKI, PVM} {
		cold := superviseWithCrashes(t, kind, DefaultRestartPolicy(), 60, 4, nil)
		warm := superviseWithCrashes(t, kind, warmPolicy(), 60, 4, nil)
		hc, hw := cold.Health[0], warm.Health[0]
		if hc.Restarts < 2 || hw.Restarts < 2 {
			t.Fatalf("%v: need repeated restarts (cold %d, warm %d)", kind, hc.Restarts, hw.Restarts)
		}
		if hw.MTTR() >= hc.MTTR() {
			t.Fatalf("%v: warm MTTR %v not below cold MTTR %v", kind, hw.MTTR(), hc.MTTR())
		}
	}
}

// TestTornSnapshotFallsBackToCold: a torn snapshot write (the injected
// faults.SnapshotTorn site truncates the blob) is caught by the
// checksum at restore time and degrades to a cold restart — cleanly,
// with the fallback counted, and the container back in service.
func TestTornSnapshotFallsBackToCold(t *testing.T) {
	plan := faults.NewPlan(7, faults.Rule{Site: faults.SnapshotTorn, Every: 1})
	sup := superviseWithCrashes(t, CKI, warmPolicy(), 30, 5, plan)
	h := sup.Health[0]
	if h.Crashes == 0 {
		t.Fatal("no crashes induced")
	}
	if h.SnapshotFallbacks == 0 {
		t.Fatalf("torn snapshots never fell back (crashes=%d warm=%d cold=%d)",
			h.Crashes, h.WarmRestores, h.ColdRestarts)
	}
	if h.WarmRestores != 0 {
		t.Fatalf("torn snapshot restored warm %d times", h.WarmRestores)
	}
	if h.ColdRestarts != h.Restarts {
		t.Fatalf("cold %d != restarts %d", h.ColdRestarts, h.Restarts)
	}
	// Still serving after every fallback.
	if h.RoundsOK == 0 {
		t.Fatal("container never served")
	}
}

// TestRestartStormHardening: a container dying on every single visit
// must (a) respect the capped exponential backoff — total downtime is
// bounded by the cap — and (b) give up once MaxRestarts is exhausted,
// with the give-up and escalation counters surfaced in the report.
func TestRestartStormHardening(t *testing.T) {
	pol := DefaultRestartPolicy()
	pol.InitialBackoff = 100 * clock.Microsecond
	pol.MaxBackoff = 800 * clock.Microsecond

	t.Run("capped-backoff", func(t *testing.T) {
		sup := superviseWithCrashes(t, CKI, pol, 120, 1, nil)
		h := sup.Health[0]
		if h.Restarts < 8 {
			t.Fatalf("storm produced only %d restarts", h.Restarts)
		}
		// Every individual downtime is backoff plus supervision slack;
		// if doubling escaped the cap, the later downtimes (and so the
		// total) would blow past this bound.
		slack := 4 * sup.Policy.ProbePeriod
		bound := clock.Time(h.Restarts) * (pol.MaxBackoff + slack)
		if h.TotalDowntime > bound {
			t.Fatalf("downtime %v exceeds capped bound %v over %d restarts",
				h.TotalDowntime, bound, h.Restarts)
		}
	})

	t.Run("give-up-and-report", func(t *testing.T) {
		pol := pol
		pol.MaxRestarts = 3
		cl, err := NewCluster(1 << 17)
		if err != nil {
			t.Fatal(err)
		}
		// RunC so each crash also escalates to the (empty) rest of the
		// cluster, exercising the escalation counter.
		if _, err := cl.Add(RunC, Options{}); err != nil {
			t.Fatal(err)
		}
		sup := NewSupervisor(cl, pol)
		err = sup.Supervise(60, func(_ int, c *Container) error {
			c.K.Panic("storm: induced crash")
			return guest.EKERNELDIED
		})
		if err != nil {
			t.Fatal(err)
		}
		h := sup.Health[0]
		if !h.GaveUp {
			t.Fatal("supervisor never gave up")
		}
		if h.Restarts != pol.MaxRestarts {
			t.Fatalf("restarts = %d, want exactly MaxRestarts %d", h.Restarts, pol.MaxRestarts)
		}
		if h.Escalations == 0 {
			t.Fatal("RunC crashes recorded no escalations")
		}
		var b strings.Builder
		if err := sup.Report(&b); err != nil {
			t.Fatal(err)
		}
		rep := b.String()
		for _, col := range []string{"warm", "cold", "fallbk", "escal", "gaveup"} {
			if !strings.Contains(rep, col) {
				t.Fatalf("report missing %q column:\n%s", col, rep)
			}
		}
		if !strings.Contains(rep, "true") {
			t.Fatalf("report does not surface the give-up:\n%s", rep)
		}
	})
}

// TestReclaimReturnsEveryFrame: reclaiming a container hands back every
// host frame it held, on every runtime. Under work that allocates
// nothing, host frames in use are the same after the 1st and the 5th
// supervised restart, cold and warm, and the same before and after 20
// fork+Discard cycles on one machine. A frame the reclaim cannot see
// (one tagged with no container's ID) shows up as growth per cycle.
func TestReclaimReturnsEveryFrame(t *testing.T) {
	const restarts, forks = 5, 20
	set := append(AllKinds(), struct {
		Kind Kind
		Opts Options
	}{GVisor, Options{}})
	for _, cfg := range set {
		cfg.Opts.SegmentFrames, cfg.Opts.GuestFrames = 2048, 1<<12
		t.Run(Label(cfg.Kind, cfg.Opts), func(t *testing.T) {
			for _, pol := range []RestartPolicy{DefaultRestartPolicy(), warmPolicy()} {
				cl, err := NewCluster(1 << 17)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Add(cfg.Kind, cfg.Opts); err != nil {
					t.Fatal(err)
				}
				sup := NewSupervisor(cl, pol)
				h := sup.Health[0]
				// Every incarnation serves one round (which the warm
				// policy snapshots), then crashes; inUse[i] is read as
				// restart i+1 starts serving. Restart 1 is the baseline,
				// not the first boot: a PVM restore holds 1026 frames more
				// than a boot (the boot init's address space, whose
				// shadow PVM frees only at reclaim).
				var inUse []int
				crash := false
				for round := 0; len(inUse) < restarts && round < 10000; round++ {
					err := sup.Supervise(1, func(_ int, c *Container) error {
						if crash = !crash; !crash {
							c.K.Panic("reclaim: induced crash")
							return guest.EKERNELDIED
						}
						if h.Restarts > 0 {
							inUse = append(inUse, cl.M.HostMem.InUse())
						}
						c.K.Getpid()
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				if len(inUse) < restarts {
					t.Fatalf("warm=%v: only %d restarts", pol.WarmRestart, len(inUse))
				}
				if pol.WarmRestart && h.WarmRestores != h.Restarts {
					t.Fatalf("only %d of %d restarts were warm", h.WarmRestores, h.Restarts)
				}
				if inUse[0] != inUse[restarts-1] {
					t.Errorf("warm=%v: host frames in use %d after restart 1, %d after restart %d",
						pol.WarmRestart, inUse[0], inUse[restarts-1], restarts)
				}
			}

			m := forkMachine(t, cfg.Opts)
			c1, err := NewOnMachine(m, cfg.Kind, cfg.Opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			forkWorkload(t, c1, 8, 2)
			snap, err := Checkpoint(c1)
			if err != nil {
				t.Fatal(err)
			}
			idx, store := snapshot.NewDigestIndex(snap), snapshot.NewPageStore(m.HostMem)
			before := m.HostMem.InUse()
			for i := 0; i < forks; i++ {
				f, err := ForkFromSnapshot(m, snap, idx, store, 2, guest.RestoreCOW)
				if err != nil {
					t.Fatal(err)
				}
				if err := Discard(m, f); err != nil {
					t.Fatal(err)
				}
			}
			if after := m.HostMem.InUse(); after != before {
				t.Errorf("host frames in use %d before %d fork+Discard cycles, %d after", before, forks, after)
			}
		})
	}
}

// churn is a seeded workload that grows and shrinks every part of a
// captured image: files (write, truncate, unlink), anonymous mappings
// (mmap, munmap, touches that set A/D bits), processes (fork, exit,
// reap) and the container's TLB tags (touches and group flushes). A
// round may end with an open pipe, which the capture after it refuses.
type churn struct {
	rng      *rand.Rand
	m        *Machine
	init     int
	children []int
	maps     []uint64 // init's live mappings, churnPages pages each
	pipe     []int
	rounds   int
}

const churnPages = 4

func (w *churn) round(k *guest.Kernel, id int) error {
	if err := k.SwitchToPID(w.init); err != nil {
		return err
	}
	for _, fd := range w.pipe {
		if err := k.Close(fd); err != nil {
			return err
		}
	}
	w.pipe = nil
	for n := 1 + w.rng.Intn(4); n > 0; n-- {
		path := fmt.Sprintf("/churn%d", w.rng.Intn(3))
		_, statErr := k.Stat(path)
		switch w.rng.Intn(8) {
		case 0:
			fd, err := k.Open(path, true)
			if err != nil {
				return err
			}
			data := make([]byte, 1+w.rng.Intn(3*mem.PageSize))
			w.rng.Read(data)
			if _, err := k.Write(fd, data); err != nil {
				return err
			}
			if err := k.Close(fd); err != nil {
				return err
			}
		case 1:
			if statErr != nil {
				continue
			}
			fd, err := k.Open(path, false)
			if err != nil {
				return err
			}
			if err := k.Ftruncate(fd, uint64(w.rng.Intn(mem.PageSize))); err != nil {
				return err
			}
			if err := k.Close(fd); err != nil {
				return err
			}
		case 2:
			if statErr != nil {
				continue
			}
			if err := k.Unlink(path); err != nil {
				return err
			}
		case 3:
			addr, err := k.MmapCall(churnPages*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
			if err != nil {
				return err
			}
			w.maps = append(w.maps, addr)
			if err := w.touch(k, addr); err != nil {
				return err
			}
		case 4:
			if len(w.maps) == 0 {
				continue
			}
			i := w.rng.Intn(len(w.maps))
			if err := k.MunmapCall(w.maps[i], churnPages*mem.PageSize); err != nil {
				return err
			}
			w.maps = append(w.maps[:i], w.maps[i+1:]...)
		case 5:
			if len(w.children) >= 3 {
				continue
			}
			pid, err := k.Fork()
			if err != nil {
				return err
			}
			w.children = append(w.children, pid)
		case 6:
			if len(w.children) == 0 {
				continue
			}
			i := w.rng.Intn(len(w.children))
			if err := k.SwitchToPID(w.children[i]); err != nil {
				return err
			}
			if err := k.Exit(0); err != nil {
				return err
			}
			w.children = append(w.children[:i], w.children[i+1:]...)
			if err := k.SwitchToPID(w.init); err != nil {
				return err
			}
			if w.rng.Intn(2) == 0 {
				if _, err := k.Wait(); err != nil {
					return err
				}
			}
		case 7:
			if w.rng.Intn(2) == 0 {
				w.m.FlushContainerTLB(id)
			}
			for _, addr := range w.maps {
				if err := w.touch(k, addr); err != nil {
					return err
				}
			}
		}
	}
	w.rounds++
	if w.rounds > 1 && w.rng.Intn(4) == 0 {
		r, wr, err := k.PipePair()
		if err != nil {
			return err
		}
		w.pipe = []int{r, wr}
	}
	return nil
}

// touch reads, writes or skips each page of the mapping at addr.
func (w *churn) touch(k *guest.Kernel, addr uint64) error {
	for p := uint64(0); p < churnPages; p++ {
		var err error
		switch w.rng.Intn(3) {
		case 0:
			err = k.Touch(addr+p*mem.PageSize, mmu.Read)
		case 1:
			err = k.Touch(addr+p*mem.PageSize, mmu.Write)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestKeptSnapshotMatchesFreshCheckpoint: the supervisor captures into
// two reused snapshots per container, so whatever a round shrinks must
// not survive from an older capture in the same buffers. On every
// runtime, after each churn round the kept snapshot encodes to exactly
// the bytes of a fresh CheckpointBytes; after a refused capture (an
// open pipe), to the last good bytes.
func TestKeptSnapshotMatchesFreshCheckpoint(t *testing.T) {
	const rounds = 80
	for _, kind := range []Kind{RunC, HVM, PVM, CKI, GVisor} {
		t.Run(kind.String(), func(t *testing.T) {
			cl, err := NewCluster(1 << 17)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cl.Add(kind, Options{SegmentFrames: 2048, GuestFrames: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			pol := warmPolicy()
			// No timer tick lands mid-round: the workload alone decides
			// which process runs.
			pol.WatchdogSlice = clock.Second
			sup := NewSupervisor(cl, pol)
			h := sup.Health[0]
			w := &churn{rng: rand.New(rand.NewSource(int64(kind) + 1)), m: cl.M, init: c.K.Cur.PID}
			var good []byte
			refused := 0
			for r := 0; r < rounds; r++ {
				errs := h.SnapshotErrors
				if err := sup.Supervise(1, func(_ int, c *Container) error {
					return w.round(c.K, c.K.ContainerID)
				}); err != nil {
					t.Fatal(err)
				}
				if h.RoundsOK != r+1 {
					t.Fatalf("round %d not served (crashes %d)", r, h.Crashes)
				}
				kept := snapshot.Encode(h.kept)
				if h.SnapshotErrors > errs {
					refused++
					if !bytes.Equal(kept, good) {
						t.Fatalf("round %d: refused capture changed the kept snapshot", r)
					}
					continue
				}
				want, err := CheckpointBytes(c)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if !bytes.Equal(kept, want) {
					t.Fatalf("round %d: kept snapshot (%d bytes) differs from a fresh checkpoint (%d bytes)",
						r, len(kept), len(want))
				}
				good = kept
			}
			if refused == 0 || refused == rounds {
				t.Fatalf("%d of %d captures refused: the rounds do not mix both outcomes", refused, rounds)
			}
		})
	}
}
