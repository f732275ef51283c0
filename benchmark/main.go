// Command benchmark measures the host cost of regenerating the
// repository's committed experiments, end to end and per module,
// while checking every output byte for byte against its golden.
//
// Run it from the repository root (benchmark/run.sh builds it):
//
//	benchmark                          all workloads, round-robin
//	benchmark -workload fleet          one workload
//	benchmark -workload fleet -trace 1 per-layer metrics
//	benchmark -seed 7                  held-out inputs (fleet size)
//	benchmark -out DIR                 also write DIR/results.json
//
// Each workload is a closed loop with one client: set-up loads the
// goldens and runs the warm-up iterations, then iterations run back to
// back, for -seconds in all, spread over a few fresh worker processes.
// Each workload prints a table and then one JSON line with the keys
// correct, attempted, failed and metrics; with -workload that line is
// the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/trace"
)

const (
	// procs is GOMAXPROCS for every run: the one client and the GC
	// share a core. With a second P the GC's share of the run follows
	// the availability of another core, which on a shared host swung
	// iteration times by a fifth within one process.
	procs = 1
	// workers is how many fresh processes measure each workload, one
	// after another. Each sets up, so set-up is measured that many
	// times, and each times its share of -seconds, so the luck of one
	// process (heap placement, a noisy neighbour) moves the pooled
	// median less. With several workloads the processes take turns
	// round-robin, spreading host-speed drift over all of them.
	workers = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	worker   bool
}

func main() {
	runtime.GOMAXPROCS(procs)
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (paper, fleet, smp, serverless, tail-slo; empty = all)")
	flag.Uint64Var(&o.seed, "seed", 0, "input seed: 0 is the committed configuration, others vary the fleet size")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each workload's timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from a profiled run instead of end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "directory for results.json (and, with -trace 1, profiles and folded spans)")
	flag.BoolVar(&o.worker, "worker", false, "measure one workload in this process and print its stats as JSON (used internally)")
	flag.Parse()

	ws, err := selectWorkloads(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if o.worker {
		os.Exit(work(ws[0], o))
	}
	res := results{
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1,
	}
	correct := true
	add := func(w workload, s *stats, ms []metric) {
		correct = report(w, o.seed, s, ms) && correct
		res.Workloads = append(res.Workloads, record(w, s, ms))
	}
	var traced []*runner
	var profs [][]byte
	if o.trace == 1 {
		for _, w := range ws {
			r, ms, prof, err := trace1(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			add(w, &r.stats, ms)
			traced, profs = append(traced, r), append(profs, prof)
		}
	} else {
		all, err := measure(ws, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		for i, w := range ws {
			add(w, &all[i], all[i].endToEnd())
		}
	}
	if o.out != "" {
		if err := writeOut(o.out, res, traced, profs); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func selectWorkloads(o options) ([]workload, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.workload == "" {
		if o.worker {
			return nil, fmt.Errorf("-worker needs -workload")
		}
		return workloads, nil
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return []workload{w}, nil
}

// work is the body of a worker process: set up, run the timed phase,
// print the stats.
func work(w workload, o options) int {
	r := newRunner(w, ".", o.seed)
	if err := r.setUp(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	r.timed(time.Duration(o.seconds * float64(time.Second)))
	if err := json.NewEncoder(os.Stdout).Encode(r.stats); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// measure runs each workload in worker processes, one at a time, and
// merges their stats.
func measure(ws []workload, o options) ([]stats, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	all := make([]stats, len(ws))
	share := strconv.FormatFloat(o.seconds/workers, 'g', -1, 64)
	for i := 0; i < workers; i++ {
		for j, w := range ws {
			cmd := exec.Command(exe, "-worker", "-workload", w.name,
				"-seed", strconv.FormatUint(o.seed, 10), "-seconds", share)
			cmd.Stderr = os.Stderr
			start := time.Now()
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s: worker: %w", w.name, err)
			}
			var s stats
			if err := json.Unmarshal(out, &s); err != nil {
				return nil, fmt.Errorf("%s: worker: %w", w.name, err)
			}
			// Set-up runs from the exec, so runtime start-up and package
			// initialisation count as set-up too.
			s.SetupS = []float64{s.SetupDone.Sub(start).Seconds()}
			all[j].merge(w.name, s)
		}
	}
	return all, nil
}

// trace1 sets up and runs the traced phase of one workload in this
// process.
func trace1(w workload, o options) (*runner, []metric, []byte, error) {
	r := newRunner(w, ".", o.seed)
	r.sp = newHostSpans()
	if err := r.setUp(); err != nil {
		return nil, nil, nil, err
	}
	ms, prof, err := r.traced(time.Duration(o.seconds * float64(time.Second)))
	return r, ms, prof, err
}

// resultLine is the machine-readable result of one workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a workload's metrics as a table followed by its
// result line, and reports whether every iteration was correct.
func report(w workload, seed uint64, s *stats, ms []metric) bool {
	fmt.Printf("%s: seed %d, %d set-ups of %d warm-up iterations, %d timed iterations, %d of %d attempted failed\n",
		w.name, seed, len(s.SetupS), w.warmup, len(s.IterMs), s.Failed, s.Attempted)
	for _, name := range w.goldens {
		fmt.Printf("  %-28s sha256 %s\n", name, s.SHA256[name])
	}
	fmt.Printf("  %-30s %-6s %14s %14s %14s %22s %5s\n", "metric", "unit", "median", "q1", "q3", "tail", "n")
	line := resultLine{
		Correct: s.Failed == 0 && s.Attempted > 0, Attempted: s.Attempted, Failed: s.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range ms {
		sum := summarize(m.samples)
		tail := "-"
		if sum.TailPct > 0 {
			tail = fmt.Sprintf("p%g=%.4f", sum.TailPct, sum.Tail)
		}
		fmt.Printf("  %-30s %-6s %14.4f %14.4f %14.4f %22s %5d\n", m.name, m.unit, sum.Median, sum.Q1, sum.Q3, tail, sum.N)
		line.Metrics[m.name] = metricValue{sum.Median, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value is finite
	}
	fmt.Println(string(b))
	return line.Correct
}

// results is the self-describing record -out writes.
type results struct {
	HostCPUs   int              `json:"host_cpus"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Name       string                  `json:"name"`
	Warmup     int                     `json:"warmup"`
	SetUps     int                     `json:"setups"`
	Iterations int                     `json:"iterations"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	SHA256     map[string]string       `json:"sha256"`
	Metrics    map[string]metricRecord `json:"metrics"`
}

type metricRecord struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
	summary
}

func record(w workload, s *stats, ms []metric) workloadRecord {
	rec := workloadRecord{
		Name: w.name, Warmup: w.warmup, SetUps: len(s.SetupS), Iterations: len(s.IterMs),
		Attempted: s.Attempted, Failed: s.Failed, SHA256: s.SHA256,
		Metrics: map[string]metricRecord{},
	}
	for _, m := range ms {
		rec.Metrics[m.name] = metricRecord{m.unit, m.samples, summarize(m.samples)}
	}
	return rec
}

// writeOut writes results.json and, for traced runs, each workload's
// CPU profile (for go tool pprof) and folded harness spans.
func writeOut(dir string, res results, traced []*runner, profs [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	for i, r := range traced {
		if err := os.WriteFile(filepath.Join(dir, r.w.name+".cpu.pprof"), profs[i], 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, r.w.name+".folded"), []byte(trace.FoldedStacks(r.w.name, r.sp.rec.Spans())), 0o644); err != nil {
			return err
		}
	}
	return nil
}
