package repro_test

import (
	"fmt"
	"log"

	"repro/internal/backends"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
)

// Example boots a CKI secure container, runs a small program against
// the guest kernel's file and memory API, and compares the headline
// latencies of Table 2 across runtimes. Every time is virtual, so the
// output is the same on any host.
func Example() {
	// A deprivileged guest kernel collocated with its kernel security
	// monitor, PKS keys loaded.
	c, err := backends.New(backends.CKI, backends.Options{})
	if err != nil {
		log.Fatal(err)
	}
	k := c.K
	fmt.Printf("booted %s (guest pid %d)\n", c.Name, k.Getpid())

	fd, err := k.Open("/hello.txt", true)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := k.Write(fd, []byte("hello from inside a secure container")); err != nil {
		log.Fatal(err)
	}
	if err := k.Lseek(fd, 0); err != nil {
		log.Fatal(err)
	}
	data, err := k.Read(fd, 64)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back: %q\n", data)

	// Demand paging: every fault is handled inside the container and
	// every PTE write is verified by the KSM.
	addr, err := k.MmapCall(64*mem.PageSize, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		log.Fatal(err)
	}
	start := c.Clk.Now()
	if err := k.TouchRange(addr, 64*mem.PageSize, mmu.Write); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faulted in 64 pages in %v: %d page faults, %d KSM-verified PTE writes\n",
		c.Clk.Now()-start, k.Stats.PageFaults, k.Stats.PTEWrites)

	fmt.Println("getpid / anonymous page fault:")
	for _, cfg := range backends.AllKinds() {
		cc := backends.MustNew(cfg.Kind, cfg.Opts)
		pf, err := cc.MeasureAnonFault(32)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s syscall %5.0f ns  pgfault %6.0f ns\n",
			cc.Name, cc.MeasureSyscall().Nanos(), pf.Nanos())
	}
	// Output:
	// booted CKI-BM (guest pid 1)
	// read back: "hello from inside a secure container"
	// faulted in 64 pages in 70.61µs: 64 page faults, 71 KSM-verified PTE writes
	// getpid / anonymous page fault:
	//   HVM-NST  syscall    91 ns  pgfault  32604 ns
	//   PVM-NST  syscall   334 ns  pgfault   4173 ns
	//   RunC     syscall    93 ns  pgfault   1030 ns
	//   HVM-BM   syscall    91 ns  pgfault   3296 ns
	//   PVM-BM   syscall   334 ns  pgfault   4153 ns
	//   CKI-BM   syscall    90 ns  pgfault   1097 ns
}
