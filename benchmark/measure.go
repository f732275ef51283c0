package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// stats is what measuring a workload accumulates, in one process or
// merged over several.
type stats struct {
	SetupS     []float64         `json:"setup_s"` // one per process
	IterMs     []float64         `json:"iter_ms"` // host wall per timed iteration
	CPUMs      []float64         `json:"cpu_ms"`  // process CPU per timed iteration
	AllocBytes uint64            `json:"alloc_bytes"`
	AllocObjs  uint64            `json:"alloc_objects"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	SHA256     map[string]string `json:"sha256"` // of the reference outputs
	// SetupDone is when this process finished set-up, so that a parent
	// can time set-up from before it started the process.
	SetupDone time.Time `json:"setup_done"`
}

// merge folds another process's stats into s. Outputs that hash
// differently from the first process's count as a failed iteration.
func (s *stats) merge(name string, o stats) {
	s.SetupS = append(s.SetupS, o.SetupS...)
	s.IterMs = append(s.IterMs, o.IterMs...)
	s.CPUMs = append(s.CPUMs, o.CPUMs...)
	s.AllocBytes += o.AllocBytes
	s.AllocObjs += o.AllocObjs
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	if s.SHA256 == nil {
		s.SHA256 = o.SHA256
		return
	}
	for file, d := range s.SHA256 {
		if o.SHA256[file] != d {
			s.Failed++
			fmt.Fprintf(os.Stderr, "%s: %s hashes to %s in one process and %s in another\n",
				name, file, d, o.SHA256[file])
		}
	}
}

// endToEnd is the end-to-end metrics with their samples.
func (s *stats) endToEnd() []metric {
	n := float64(len(s.IterMs))
	return []metric{
		{"iter_ms", "ms", s.IterMs},
		{"cpu_ms", "ms", s.CPUMs},
		{"alloc_mb", "MiB", []float64{float64(s.AllocBytes) / (1 << 20) / n}},
		{"allocs_k", "kobj", []float64{float64(s.AllocObjs) / 1e3 / n}},
		{"setup_s", "s", s.SetupS},
	}
}

// runner measures one workload in this process: set-up, then
// closed-loop timed iterations — one client, one iteration at a time —
// or the traced phase.
type runner struct {
	stats
	w    workload
	root string // repository root the goldens are read from
	seed uint64
	sp   *hostSpans // nil unless tracing

	// want holds the reference outputs: the goldens for seed 0, the
	// first successful iteration otherwise.
	want   map[string][]byte
	counts counts
}

func newRunner(w workload, root string, seed uint64) *runner {
	return &runner{w: w, root: root, seed: seed}
}

// setUp loads the goldens and runs the warm-up iterations.
func (r *runner) setUp() error {
	t0 := time.Now()
	id := r.sp.begin("setup")
	if r.seed == 0 {
		r.want = map[string][]byte{}
		for _, name := range r.w.goldens {
			b, err := os.ReadFile(filepath.Join(r.root, name))
			if err != nil {
				return fmt.Errorf("%s: golden: %w", r.w.name, err)
			}
			r.want[name] = b
		}
	}
	for i := 0; i < r.w.warmup; i++ {
		wid := r.sp.begin("warm-up")
		r.iterate()
		r.sp.end(wid)
	}
	r.sp.end(id)
	r.SetupDone = time.Now()
	r.SetupS = append(r.SetupS, r.SetupDone.Sub(t0).Seconds())
	if r.want == nil {
		return fmt.Errorf("%s: no warm-up iteration succeeded", r.w.name)
	}
	r.SHA256 = make(map[string]string, len(r.want))
	for name, b := range r.want {
		sum := sha256.Sum256(b)
		r.SHA256[name] = hex.EncodeToString(sum[:])
	}
	return nil
}

// iterate runs and checks one iteration and returns its host wall and
// process CPU time. Checking is not timed.
func (r *runner) iterate() (wall, cpu time.Duration) {
	id := r.sp.begin("iteration")
	defer r.sp.end(id)
	c0 := cpuTime()
	t0 := time.Now()
	outs, c, err := r.w.iterate(r.seed, r.sp)
	wall, cpu = time.Since(t0), cpuTime()-c0

	vid := r.sp.begin("verify")
	defer r.sp.end(vid)
	r.Attempted++
	if err == nil {
		err = r.check(outs)
	}
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "%s: iteration %d: %v\n", r.w.name, r.Attempted, err)
		return wall, cpu
	}
	r.counts = c
	return wall, cpu
}

// check compares outputs with the reference, adopting them as the
// reference when there is none yet.
func (r *runner) check(outs []output) error {
	if len(outs) != len(r.w.goldens) {
		return fmt.Errorf("%d outputs, want %d", len(outs), len(r.w.goldens))
	}
	if r.want == nil {
		r.want = map[string][]byte{}
		for _, o := range outs {
			r.want[o.name] = o.data
		}
		return nil
	}
	for _, o := range outs {
		if want, ok := r.want[o.name]; !ok || !bytes.Equal(o.data, want) {
			return fmt.Errorf("%s differs: %s", o.name, firstDiff(want, o.data))
		}
	}
	return nil
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "identical"
}

// timed runs iterations back to back for at least d, at least one.
func (r *runner) timed(d time.Duration) {
	a0 := readMetrics(allocBytesMetric, allocObjsMetric)
	deadline := time.Now().Add(d)
	for {
		wall, cpu := r.iterate()
		r.IterMs = append(r.IterMs, ms(wall))
		r.CPUMs = append(r.CPUMs, ms(cpu))
		if !time.Now().Before(deadline) {
			break
		}
	}
	a1 := readMetrics(allocBytesMetric, allocObjsMetric)
	r.AllocBytes += uint64(a1[0] - a0[0])
	r.AllocObjs += uint64(a1[1] - a0[1])
}

// traced spends the first half of d untraced, as the overhead
// baseline, and the second half under the CPU profiler with heap
// sampling folded by module. It returns the per-layer metrics and the
// raw CPU profile.
func (r *runner) traced(d time.Duration) ([]metric, []byte, error) {
	sp := r.sp
	r.sp = nil
	r.timed(d / 2)
	r.sp = sp
	untraced := summarize(r.IterMs).Median
	n0 := len(r.IterMs)

	runtime.GC()
	heap0, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}
	m0 := readMetrics(gcCyclesMetric, gcCPUMetric)
	var live peakLive
	live.start()
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, nil, err
	}
	r.timed(d - d/2)
	pprof.StopCPUProfile()
	live.stop()
	m1 := readMetrics(gcCyclesMetric, gcCPUMetric)
	runtime.GC()
	heap1, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}

	cpuP, err := parseProfile(bytes.NewReader(cpuProf.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	cpu, err := cpuP.fold("cpu", "nanoseconds")
	if err != nil {
		return nil, nil, err
	}
	alloc0, err := heap0.fold("alloc_space", "bytes")
	if err != nil {
		return nil, nil, err
	}
	alloc1, err := heap1.fold("alloc_space", "bytes")
	if err != nil {
		return nil, nil, err
	}

	n := float64(len(r.IterMs) - n0)
	perIterMs := func(ns float64) float64 { return ns / 1e6 / n }
	var ms []metric
	add := func(name, unit string, v float64) {
		ms = append(ms, metric{name, unit, []float64{v}})
	}
	for _, m := range modules {
		add(m+".self_ms", "ms", perIterMs(cpu.self[m]))
		add(m+".incl_ms", "ms", perIterMs(cpu.incl[m]))
		add(m+".alloc_mb", "MiB", (alloc1.self[m]-alloc0.self[m])/(1<<20)/n)
	}
	add("benchmark.self_ms", "ms", perIterMs(cpu.harness))
	traced := summarize(r.IterMs[n0:]).Median
	add("benchmark.trace_overhead_pct", "%", 100*(traced/untraced-1))
	add("goruntime.bg_ms", "ms", perIterMs(cpu.bg))
	add("goruntime.gc_cycles", "count", (m1[0]-m0[0])/n)
	add("goruntime.gc_cpu_ms", "ms", (m1[1]-m0[1])*1e3/n)
	add("goruntime.heap_live_peak_mb", "MiB", float64(live.peak.Load())/(1<<20))
	add("goruntime.rss_peak_mb", "MiB", peakRSSMiB())

	c := r.counts
	add("fleet.arrivals", "count", float64(c.arrivals))
	add("fleet.replay_requests", "count", float64(c.replayRequests))
	add("smp.shootdowns", "count", float64(c.shootdowns))
	add("smp.ipis", "count", float64(c.ipis))
	add("des.loop_completions", "count", c.loopCompletions)
	add("snapshot.churn_forks", "count", float64(c.churnForks))
	add("snapshot.share_breaks", "count", float64(c.shareBreaks))
	add("fleet.ns_per_arrival", "ns", ratio((cpu.self["fleet"]+cpu.self["des"])/n, float64(c.arrivals)))
	add("des.ns_per_completion", "ns", ratio(cpu.self["des"]/n, c.loopCompletions))
	return ms, cpuProf.Bytes(), nil
}

// modules is the repository's internal packages, the layers the
// per-layer metrics fold host time and allocation onto.
var modules = []string{
	"audit", "backends", "bench", "cki", "clock", "cve", "des", "faults",
	"fleet", "guest", "host", "hw", "inspect", "interrupt", "mem",
	"metrics", "mmu", "pagetable", "smp", "snapshot", "telemetry", "tlb",
	"trace", "virtio", "workloads",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocProfile snapshots the heap profile; its alloc_space values are
// cumulative since the process started, as of the last GC.
func allocProfile() (*profile, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(&buf)
}

const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	allocObjsMetric  = "/gc/heap/allocs:objects"
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
	liveHeapMetric   = "/gc/heap/live:bytes"
)

// readMetrics reads runtime metrics as float64s, in order.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// peakLive tracks the largest live heap seen after any GC cycle: a
// sentinel's finalizer runs once per cycle, reads the live-heap metric
// and re-arms itself on a fresh sentinel until stopped.
type peakLive struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

// sentinel holds a pointer so it is never batched with other tiny
// objects, which would delay its finalizer.
type sentinel struct{ _ *byte }

func (p *peakLive) start() {
	p.sample()
	p.arm()
}

func (p *peakLive) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		p.sample()
		if !p.stopped.Load() {
			p.arm()
		}
	})
}

func (p *peakLive) sample() {
	v := uint64(readMetrics(liveHeapMetric)[0])
	for {
		old := p.peak.Load()
		if v <= old || p.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (p *peakLive) stop() {
	p.stopped.Store(true)
	p.sample()
}

// rusage is the process's resource usage. getrusage on the calling
// process fails only for a bad argument.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one named measurement with its samples; a single sample
// is a value computed over the whole run.
type metric struct {
	name    string
	unit    string
	samples []float64
}

// summary is a sample's median and quartiles — the quartiles as
// Python's statistics.quantiles(xs, n=4) computes them — and the
// highest tabulated percentile with at least ten samples beyond it.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"` // 0 when too few samples
	Tail    float64 `json:"tail,omitempty"`
}

var tailPcts = []float64{99.9, 99, 95, 90, 75, 50}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	out := summary{N: n}
	if n == 0 {
		return out
	}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.Q1, out.Q3 = s[0], s[0]
	} else {
		// The "exclusive" method: positions i(n+1)/4, clamped to the
		// sample, interpolated between neighbours.
		q := func(i int) float64 {
			j := min(max(i*(n+1)/4, 1), n-1)
			delta := float64(i*(n+1) - j*4)
			return (s[j-1]*(4-delta) + s[j]*delta) / 4
		}
		out.Q1, out.Q3 = q(1), q(3)
	}
	for _, p := range tailPcts {
		k := int(math.Ceil(p * float64(n) / 100)) // nearest rank
		if n-k >= 10 {
			out.TailPct, out.Tail = p, s[k-1]
			break
		}
	}
	return out
}

// hostSpans records the harness's own phases as trace spans whose
// timestamps are host picoseconds since the recorder was made. A nil
// *hostSpans records nothing.
type hostSpans struct {
	clk   clock.Clock
	rec   *trace.SpanRecorder
	start time.Time
}

func newHostSpans() *hostSpans {
	h := &hostSpans{start: time.Now()}
	h.rec = trace.NewSpanRecorder(&h.clk)
	return h
}

func (h *hostSpans) sync() {
	h.clk.AdvanceTo(clock.Time(time.Since(h.start)) * clock.Nanosecond)
}

func (h *hostSpans) begin(phase string) int {
	if h == nil {
		return -1
	}
	h.sync()
	return h.rec.Begin(phase)
}

func (h *hostSpans) end(id int) {
	if h == nil {
		return
	}
	h.sync()
	h.rec.End(id)
}
