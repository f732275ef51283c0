package main

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/bench"
)

// output is one artifact an iteration produces, named by the path of
// the committed golden it must equal, relative to the repository root.
type output struct {
	name string
	data []byte
}

// counts are the exact work counts read from a workload's reports.
// They depend only on the inputs, so a change to host cost alone must
// leave every one of them unchanged.
type counts struct {
	arrivals        int     // Arrived summed over the fleet-level rows
	replayRequests  int     // requests the fleet replay re-executes
	shootdowns      uint64  // TLB shootdowns of the smp grid
	ipis            uint64  // IPIs those shootdowns sent
	loopCompletions float64 // des.SMPLoop completions of the smp grid
	churnForks      int     // serverless churn-loop forks
	shareBreaks     uint64  // serverless COW share breaks
}

// workload is one closed-loop iteration over committed experiments.
type workload struct {
	name string
	// warmup is the number of iterations set-up runs before timing.
	warmup int
	// goldens lists the outputs an iteration produces, in order.
	goldens []string
	// iterate regenerates the outputs once. Seed 0 is the committed
	// configuration; any other seed varies the fleet size.
	iterate func(seed uint64, sp *hostSpans) ([]output, counts, error)
}

const paperGolden = "benchmark/golden/paper.txt"

var workloads = []workload{
	{"paper", 1, []string{paperGolden}, iteratePaper},
	{"fleet", 1, []string{"BENCH_fleet.json"}, iterateFleet},
	{"smp", 10, []string{"BENCH_smp.json"}, iterateSMP},
	{"serverless", 3, []string{"BENCH_serverless.json"}, iterateServerless},
	{"tail-slo", 3, []string{"BENCH_tail.json", "BENCH_slo.json"}, iterateTailSLO},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nodesFor is the fleet size a seed selects: 0 (the experiment's
// committed default) for seed 0, otherwise base plus 1 or 2 nodes. The
// range is narrow on purpose: the seed changes every arrival stream
// and placement, while the allocation per iteration moves by under
// half a percent, well inside the alloc_mb and allocs_k bounds.
func nodesFor(seed uint64, base int) int {
	if seed == 0 {
		return 0
	}
	return base + 1 + int(seed%2)
}

// paperExperiments is every paper table and figure except fig2, whose
// rendering orders equal counts nondeterministically.
func paperExperiments() []bench.Experiment {
	var out []bench.Experiment
	for _, e := range bench.All() {
		if e.ID != "fig2" {
			out = append(out, e)
		}
	}
	return out
}

// iteratePaper regenerates the paper tables in the framing
// "ckibench -exp <id>" prints.
func iteratePaper(_ uint64, sp *hostSpans) ([]output, counts, error) {
	var buf bytes.Buffer
	for _, e := range paperExperiments() {
		fmt.Fprintf(&buf, "--- %s: %s ---\n", e.ID, e.Title)
		id := sp.begin("bench." + e.ID)
		err := e.Run(1, &buf)
		sp.end(id)
		if err != nil {
			return nil, counts{}, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return []output{{paperGolden, buf.Bytes()}}, counts{}, nil
}

func iterateFleet(seed uint64, sp *hostSpans) ([]output, counts, error) {
	id := sp.begin("bench.RunFleet")
	rep, err := bench.RunFleet(bench.FleetOpts{Parallel: 1, Nodes: nodesFor(seed, 50)})
	sp.end(id)
	if err != nil {
		return nil, counts{}, err
	}
	var c counts
	for _, r := range rep.Rows {
		c.arrivals += r.Arrived
	}
	for _, a := range rep.Replay {
		c.replayRequests += a.Requests
	}
	out, err := encode(sp, "BENCH_fleet.json", func(w io.Writer) error { return bench.WriteFleetJSON(rep, w) })
	return []output{out}, c, err
}

// smpHorizonSeconds is the des.SMPLoop horizon of the smp grid at
// scale 1, which turns its throughput column into completions.
const smpHorizonSeconds = 0.020

func iterateSMP(_ uint64, sp *hostSpans) ([]output, counts, error) {
	id := sp.begin("bench.RunSMPParallel")
	rep, err := bench.RunSMPParallel(1, bench.SMPSeed, 1)
	sp.end(id)
	if err != nil {
		return nil, counts{}, err
	}
	var c counts
	for _, r := range rep.Rows {
		c.shootdowns += r.Shootdowns
		c.ipis += r.IPIsSent
		c.loopCompletions += math.Round(r.Throughput * smpHorizonSeconds)
	}
	out, err := encode(sp, "BENCH_smp.json", func(w io.Writer) error { return bench.WriteSMPReportJSON(rep, w) })
	return []output{out}, c, err
}

func iterateServerless(seed uint64, sp *hostSpans) ([]output, counts, error) {
	id := sp.begin("bench.RunServerless")
	rep, err := bench.RunServerless(bench.ServerlessOpts{Parallel: 1, Nodes: nodesFor(seed, 50)})
	sp.end(id)
	if err != nil {
		return nil, counts{}, err
	}
	var c counts
	for _, r := range rep.Rows {
		c.arrivals += r.Arrived
	}
	for _, ch := range rep.Churn {
		c.churnForks += ch.Forks
		c.shareBreaks += ch.Breaks
	}
	for _, cal := range rep.Calibration {
		c.shareBreaks += cal.ShareBreaks
	}
	out, err := encode(sp, "BENCH_serverless.json", func(w io.Writer) error { return bench.WriteServerlessJSON(rep, w) })
	return []output{out}, c, err
}

func iterateTailSLO(seed uint64, sp *hostSpans) ([]output, counts, error) {
	id := sp.begin("bench.RunTail")
	tail, err := bench.RunTail(bench.TailOpts{Parallel: 1, Nodes: nodesFor(seed, 20)})
	sp.end(id)
	if err != nil {
		return nil, counts{}, err
	}
	tailOut, err := encode(sp, "BENCH_tail.json", func(w io.Writer) error { return bench.WriteTailJSON(tail, w) })
	if err != nil {
		return nil, counts{}, err
	}
	id = sp.begin("bench.RunSLO")
	slo, err := bench.RunSLO(bench.SLOOpts{Parallel: 1, Nodes: nodesFor(seed, 20)})
	sp.end(id)
	if err != nil {
		return nil, counts{}, err
	}
	var c counts
	for _, r := range tail.Rows {
		c.arrivals += r.Arrived
	}
	for _, r := range slo.Rows {
		c.arrivals += r.Arrived
	}
	sloOut, err := encode(sp, "BENCH_slo.json", func(w io.Writer) error { return bench.WriteSLOJSON(slo, w) })
	return []output{tailOut, sloOut}, c, err
}

// encode renders one report in its committed encoding.
func encode(sp *hostSpans, name string, write func(io.Writer) error) (output, error) {
	id := sp.begin("json.encode")
	defer sp.end(id)
	var buf bytes.Buffer
	err := write(&buf)
	return output{name, buf.Bytes()}, err
}
