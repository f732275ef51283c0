// Package workloads implements the applications of the paper's
// evaluation (§7): the PARSEC/vmitosis-style memory-intensive kernels
// (Fig. 12/13), the TLB-miss-intensive programs of Table 4 (GUPS, large
// BTree lookups), the lmbench microbenchmark suite (Fig. 11), a
// SQLite-like storage engine driven by sqlite-bench's access patterns
// (Fig. 14/15), and the key-value/network servers behind Fig. 5 and
// Fig. 16.
//
// Every workload runs unmodified on every runtime: it only talks to the
// guest kernel's syscall and memory API, so the measured differences are
// produced by the runtime flows, not by the workload.
package workloads

import (
	"math/rand"
	"strings"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Seed makes all workloads deterministic.
const Seed = 0x5eed_c0de

// Result is one workload execution on one runtime.
type Result struct {
	Workload string
	Runtime  string
	// Time is the virtual time the run consumed.
	Time clock.Time
	// Ops is the number of application-level operations completed.
	Ops int
	// Syscalls, PageFaults are guest-kernel counters for the run.
	Syscalls   uint64
	PageFaults uint64
}

// OpsPerSec returns throughput in operations per virtual second.
func (r Result) OpsPerSec() float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.Ops) / r.Time.Seconds()
}

// PerOp returns the mean per-operation latency.
func (r Result) PerOp() clock.Time {
	if r.Ops == 0 {
		return 0
	}
	return r.Time / clock.Time(r.Ops)
}

// Runner is a workload that can execute against a container.
type Runner interface {
	Name() string
	Run(c *backends.Container) (Result, error)
}

// measure runs fn against c and assembles the Result.
func measure(c *backends.Container, name string, ops int, fn func() error) (Result, error) {
	k := c.K
	startT := c.Clk.Now()
	startSys := k.Stats.Syscalls
	startPF := k.Stats.PageFaults
	if err := fn(); err != nil {
		return Result{}, err
	}
	return Result{
		Workload:   name,
		Runtime:    c.Name,
		Time:       c.Clk.Now() - startT,
		Ops:        ops,
		Syscalls:   k.Stats.Syscalls - startSys,
		PageFaults: k.Stats.PageFaults - startPF,
	}, nil
}

// PageRequest is one served request: map a page, touch it, retire it,
// compute. It touches the syscall, page-fault and mediated-PTE paths,
// and on a multi-vCPU container the munmap of the resident page forces
// a TLB shootdown. The SMP closed loop, the fleet calibration and the
// fleet's machine replay all serve this one body.
func PageRequest(k *guest.Kernel) error {
	addr, err := k.MmapCall(mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	if err := k.TouchRange(addr, mem.PageSize, mmu.Write); err != nil {
		return err
	}
	if err := k.MunmapCall(addr, mem.PageSize); err != nil {
		return err
	}
	k.Compute(clock.FromNanos(800))
	return nil
}

// rng returns the deterministic PRNG for a workload.
func rng() *rand.Rand { return rand.New(rand.NewSource(Seed)) }

// Catalog returns the named-workload table shared by ckirun and
// ckireplay -live: every evaluation workload at scale 1, keyed by the
// CLI name users pass with -workload.
func Catalog() map[string]Runner {
	m := map[string]Runner{}
	for _, a := range Fig12Apps(1) {
		m[a.AppName] = a
	}
	for _, a := range Table4Apps(1) {
		m[strings.ToLower(a.Name())] = a
	}
	for _, lc := range LMBenchCases(1) {
		m["lmbench-"+lc.CaseName] = lc
	}
	for _, sc := range Fig14Cases(1) {
		m["sqlite-"+sc.CaseName] = sc
	}
	m["memcached"] = Memcached(256)
	m["redis"] = Redis(256)
	for _, a := range Fig5Apps(1) {
		m[a.AppName] = a
	}
	return m
}
