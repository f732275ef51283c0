// Host-side parallel experiment execution. The simulator is
// deterministic in virtual time, and every grid cell of an experiment —
// one (runtime, vCPU-count) pair of the SMP matrix, one seed of a chaos
// sweep — boots its own machine with its own clock, TLBs, and
// observers. Cells therefore run concurrently on host goroutines with
// no shared mutable state, and the per-cell results (report rows, span
// profiles, metrics registries, audit recorders) are assembled in the
// fixed sequential cell order afterwards, so every artifact is
// byte-identical to a sequential run. The only cross-cell dependency in
// the SMP grid — a runtime's n>1 cells need the 1-vCPU cell's measured
// service time and base throughput for the DES stage — is carried by a
// per-runtime publish/wait handshake; the machine simulation itself
// never waits.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/clock"
	"repro/internal/faults"
)

// DefaultParallel is the default worker count for parallel experiment
// execution (the ckibench -parallel default): one per host core.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// RunIndexed executes fn(0..n-1) with at most parallel invocations in
// flight. With parallel <= 1 it degenerates to a plain sequential loop
// (stopping at the first error, exactly like the pre-parallel code).
// With parallel > 1 every index runs regardless of other cells'
// failures and the lowest-index error is returned, so the error a
// caller sees does not depend on goroutine scheduling.
func RunIndexed(parallel, n int, fn func(i int) error) error {
	if parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// svcShare carries a runtime's 1-vCPU cell outputs — the measured
// per-request service time and the base DES throughput — to that
// runtime's larger cells, which need them for their DES stage and
// speedup column. publish is idempotent; the 1-vCPU cell defers a
// failure publish so dependents never deadlock on an errored cell.
type svcShare struct {
	once    sync.Once
	done    chan struct{}
	service clock.Time
	tput1   float64
	ok      bool
}

func newSvcShare() *svcShare { return &svcShare{done: make(chan struct{})} }

func (s *svcShare) publish(service clock.Time, tput1 float64, ok bool) {
	s.once.Do(func() {
		s.service, s.tput1, s.ok = service, tput1, ok
		close(s.done)
	})
}

// wait blocks until the 1-vCPU cell published and reports whether it
// succeeded.
func (s *svcShare) wait() bool {
	<-s.done
	return s.ok
}

// ChaosSweepReport is a seed sweep of the chaos experiment: run 0 uses
// the base seed (so its report matches the committed single-seed
// BENCH_chaos artifact) and run i uses faults.Child(base, i).
type ChaosSweepReport struct {
	BaseSeed uint64           `json:"base_seed"`
	Scale    int              `json:"scale"`
	Runs     []*ChaosSurvival `json:"runs"`
}

// RunChaosSweep executes the chaos experiment across seeds derived
// seeds, fanning independent clusters out to parallel workers. Each
// seed's cluster is fully isolated, so the assembled report is
// byte-identical for any parallel value.
func RunChaosSweep(scale int, baseSeed uint64, seeds, parallel int) (*ChaosSweepReport, error) {
	if seeds < 1 {
		seeds = 1
	}
	rep := &ChaosSweepReport{BaseSeed: baseSeed, Scale: scale, Runs: make([]*ChaosSurvival, seeds)}
	err := RunIndexed(parallel, seeds, func(i int) error {
		seed := baseSeed
		if i > 0 {
			seed = faults.Child(baseSeed, i)
		}
		r, err := RunChaos(scale, seed)
		if err != nil {
			return err
		}
		rep.Runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// WriteTable renders every run of the sweep.
func (rep *ChaosSweepReport) WriteTable(w io.Writer) error {
	for _, r := range rep.Runs {
		if err := r.WriteTable(w); err != nil {
			return err
		}
	}
	return nil
}

// Invariants checks every run of the sweep.
func (rep *ChaosSweepReport) Invariants() error {
	for _, r := range rep.Runs {
		if err := r.Invariants(); err != nil {
			return fmt.Errorf("seed %#x: %w", r.Seed, err)
		}
	}
	return nil
}
