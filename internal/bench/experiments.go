package bench

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/cve"
	"repro/internal/des"
	"repro/internal/workloads"
)

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the paper's label ("tab2", "fig12", ...).
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes at the given scale and writes the table; nil for an
	// experiment whose only output is its artifact.
	Run func(scale int, w io.Writer) error
	// Artifact declares the experiment's JSON report; nil for the
	// table-only experiments.
	Artifact *Artifact
}

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig2", Title: "CVE study: container-exploitable kernel CVEs by effect", Run: Fig2},
		{ID: "tab1", Title: "VM-level container design space (measured cells)", Run: Tab1},
		{ID: "tab2", Title: "Microbenchmark latencies (syscall, pgfault, hypercall)", Run: Tab2},
		{ID: "tab3", Title: "Privileged-instruction blocking matrix", Run: Tab3},
		{ID: "fig4", Title: "Memory-intensive latency without CKI (motivation)", Run: Fig4},
		{ID: "fig5", Title: "I/O-intensive throughput without CKI (motivation)", Run: Fig5},
		{ID: "fig10a", Title: "Page-fault latency breakdown", Run: Fig10a},
		{ID: "fig10b", Title: "Syscall latency and OPT1/2/3 ablation", Run: Fig10b},
		{ID: "fig11", Title: "lmbench microbenchmarks", Run: Fig11},
		{ID: "fig12", Title: "Memory-intensive applications", Run: Fig12},
		{ID: "fig13", Title: "Overhead sweeps (BTree ratio, XSBench particles)", Run: Fig13},
		{ID: "tab4", Title: "TLB-miss-intensive applications", Run: Tab4},
		{ID: "fig14", Title: "SQLite throughput and syscall frequency", Run: Fig14},
		{ID: "fig15", Title: "Syscall-optimization breakdown on SQLite", Run: Fig15},
		{ID: "fig16", Title: "Key-value throughput vs number of clients", Run: Fig16},
		{ID: "tab5", Title: "Intra-kernel isolation comparison", Run: Tab5},
	}
}

// Find returns the experiment with the given ID, paper or extension.
func Find(id string) (Experiment, bool) {
	for _, e := range append(All(), Extensions()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// paperRuntimes maps every runtime label the paper's tables and figures
// print to the configuration it measures. A figure with no nested
// column prints the label without "-BM", so both spellings name the
// same configuration.
var paperRuntimes = map[string]runtimeSpec{
	"RunC":        {backends.RunC, backends.Options{}},
	"HVM":         {backends.HVM, backends.Options{}},
	"HVM-BM":      {backends.HVM, backends.Options{}},
	"HVM-BM(2M)":  {backends.HVM, backends.Options{EPTHugePages: true}},
	"HVM-NST":     {backends.HVM, backends.Options{Nested: true}},
	"PVM":         {backends.PVM, backends.Options{}},
	"PVM-BM":      {backends.PVM, backends.Options{}},
	"PVM-NST":     {backends.PVM, backends.Options{Nested: true}},
	"CKI":         {backends.CKI, backends.Options{}},
	"CKI-BM":      {backends.CKI, backends.Options{}},
	"CKI-NST":     {backends.CKI, backends.Options{Nested: true}},
	"CKI-wo-OPT2": {backends.CKI, backends.Options{WoOPT2: true}},
	"CKI-wo-OPT3": {backends.CKI, backends.Options{WoOPT3: true}},
	"gVisor":      {backends.GVisor, backends.Options{}},
}

// paperRuntime returns the configuration a label names. An unknown
// label is a programming error.
func paperRuntime(label string) runtimeSpec {
	s, ok := paperRuntimes[label]
	if !ok {
		panic("bench: no paper runtime labelled " + label)
	}
	return s
}

// boot boots a fresh container of the runtime a label names.
func boot(label string) *backends.Container { return paperRuntime(label).boot() }

// boot boots a fresh container of this configuration.
func (s runtimeSpec) boot() *backends.Container { return backends.MustNew(s.kind, s.opts) }

// runGrid runs every app on a fresh container of every labelled
// runtime: res[i][j] is apps[i] on labels[j].
func runGrid[A workloads.Runner](apps []A, labels ...string) ([][]workloads.Result, error) {
	res := make([][]workloads.Result, len(apps))
	for i, app := range apps {
		res[i] = make([]workloads.Result, len(labels))
		for j, label := range labels {
			r, err := app.Run(boot(label))
			if err != nil {
				return nil, err
			}
			res[i][j] = r
		}
	}
	return res, nil
}

// each maps f over a grid row.
func each(row []workloads.Result, f func(workloads.Result) float64) []float64 {
	out := make([]float64, len(row))
	for j, r := range row {
		out[j] = f(r)
	}
	return out
}

// overMax normalizes vals, in place, to their largest value.
func overMax(vals []float64) []float64 {
	m := slices.Max(vals)
	for j := range vals {
		vals[j] /= m
	}
	return vals
}

// overheads is each run's time overhead over base, in percent.
func overheads(base workloads.Result, row []workloads.Result) []float64 {
	return each(row, func(r workloads.Result) float64 {
		return 100 * (float64(r.Time)/float64(base.Time) - 1)
	})
}

// Fig2 regenerates the CVE classification.
func Fig2(scale int, w io.Writer) error {
	_, err := io.WriteString(w, cve.Summarize(cve.Dataset()).Render()+"\n")
	return err
}

// Tab2 regenerates Table 2 plus the CKI column and the nested hypercall
// numbers of §7.1.
func Tab2(scale int, w io.Writer) error {
	t := NewTable("Table 2: container microbenchmarks (ns)",
		"op", "RunC", "HVM-BM", "PVM-BM", "HVM-NST", "PVM-NST", "CKI", "paper(RunC/HVM/PVM/HVM-NST/PVM-NST)")
	var sys, pf, hc []float64
	for _, label := range t.Columns[1:7] {
		c := boot(label)
		sys = append(sys, c.MeasureSyscall().Nanos())
		v, err := c.MeasureFileFault(64)
		if err != nil {
			return err
		}
		pf = append(pf, v.Nanos())
		var h clock.Time
		if c.Kind != backends.RunC {
			if h, err = c.MeasureHypercall(); err != nil {
				return err
			}
		}
		hc = append(hc, h.Nanos())
	}
	t.Row(append(cellsf("syscall", "%.0f", sys...), "93/91/336/91/336")...)
	t.Row(append(cellsf("pgfault", "%.0f", pf...), "1000/4347/6727/34050/7346")...)
	t.Row(append(cellsf("hypercall", "%.0f", hc...), "-/1088/466/6746/486 (CKI 390)")...)
	t.Note("pgfault is the lmbench-style file-backed fault; Fig. 10a covers anonymous faults")
	_, err := t.WriteTo(w)
	return err
}

// Fig4 regenerates the motivation figure: memory-intensive latency of
// the non-CKI runtimes, normalized to the slowest (HVM-NST).
func Fig4(scale int, w io.Writer) error {
	return memAppFigure(scale, w, "Figure 4: memory-intensive latency (normalized, no CKI)",
		"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM")
}

// Fig12 regenerates the evaluation figure with CKI included.
func Fig12(scale int, w io.Writer) error {
	if err := memAppFigure(scale, w, "Figure 12: memory-intensive latency (normalized)",
		"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM", "CKI"); err != nil {
		return err
	}
	// The 2M-hugepage companion rows (§7.2): EPT hugepages for HVM-BM.
	apps := workloads.Fig12Apps(scale)
	res, err := runGrid(apps, "CKI", "HVM-BM(2M)", "PVM")
	if err != nil {
		return err
	}
	t := NewTable("Figure 12 (2M huge pages for VM memory): latency vs CKI",
		"app", "HVM-BM(2M)/CKI", "PVM/CKI")
	for i, app := range apps {
		cki := res[i][0]
		t.Rowf(app.AppName, "%.2f", each(res[i][1:], func(r workloads.Result) float64 {
			return float64(r.Time) / float64(cki.Time)
		})...)
	}
	t.Note("paper: HVM-BM overhead becomes minor with 2M EPT; CKI still cuts btree/dedup vs PVM by 44%%/42%%")
	_, err = t.WriteTo(w)
	return err
}

func memAppFigure(scale int, w io.Writer, title string, labels ...string) error {
	apps := workloads.Fig12Apps(scale)
	res, err := runGrid(apps, labels...)
	if err != nil {
		return err
	}
	t := NewTable(title, append([]string{"app"}, labels...)...)
	for i, app := range apps {
		t.Rowf(app.AppName, "%.3f", overMax(each(res[i], func(r workloads.Result) float64 {
			return float64(r.Time)
		}))...)
	}
	t.Note("each row normalized to its slowest runtime (1.000)")
	_, err = t.WriteTo(w)
	return err
}

// Fig5 regenerates the I/O motivation figure: throughput of the non-CKI
// runtimes normalized to the fastest per app.
func Fig5(scale int, w io.Writer) error {
	labels := []string{"HVM-NST", "PVM-NST", "RunC", "HVM-BM", "PVM-BM"}
	var apps []workloads.Runner
	for _, app := range workloads.Fig5Apps(scale) {
		apps = append(apps, app)
	}
	// The sqlite(tmpfs) bar from the Fig. 14 engine.
	apps = append(apps, workloads.Fig14Cases(scale)[2]) // fillrandom
	res, err := runGrid(apps, labels...)
	if err != nil {
		return err
	}
	t := NewTable("Figure 5: I/O-intensive throughput (normalized, no CKI)",
		append([]string{"app"}, labels...)...)
	for i, app := range apps {
		name := app.Name()
		if i == len(apps)-1 {
			name = "sqlite(tmpfs)"
		}
		t.Rowf(name, "%.3f", overMax(each(res[i], workloads.Result.OpsPerSec))...)
	}
	t.Note("paper: HVM-NST loses 1.8-4.3x to PVM-NST on I/O due to L0-mediated exits")
	_, err = t.WriteTo(w)
	return err
}

// fig10aFaults is how many first-touch faults Fig. 10a averages over.
const fig10aFaults = 64

// Fig10a regenerates the page-fault breakdown.
func Fig10a(scale int, w io.Writer) error {
	t := NewTable("Figure 10a: anonymous page-fault latency (ns)",
		"runtime", "measured", "virt overhead", "paper")
	paper := map[string]float64{
		"HVM-NST": 32565, "HVM-BM": 3257, "PVM-BM": 4407, "CKI": 1067, "RunC": 1000,
	}
	labels := []string{"HVM-NST", "RunC", "HVM-BM", "PVM-BM", "CKI"}
	ns := map[string]float64{}
	for _, label := range labels {
		v, err := boot(label).MeasureAnonFault(fig10aFaults)
		if err != nil {
			return err
		}
		ns[label] = v.Nanos()
	}
	// The native run is the baseline of every overhead cell.
	native := ns["RunC"]
	for _, label := range labels {
		over := "-"
		if native > 0 && label != "RunC" {
			over = fmt.Sprintf("+%.0f", ns[label]-native)
		}
		ref := "-"
		if p, ok := paper[label]; ok {
			ref = fmt.Sprintf("%.0f", p)
		}
		t.Row(label, fmt.Sprintf("%.0f", ns[label]), over, ref)
	}
	t.Note("paper breakdown: CKI = 990 handler + 77 KSM calls; PVM = 1065 + 1532 exits + 1828 SPT emulation")
	_, err := t.WriteTo(w)
	return err
}

// Fig10b regenerates the syscall ablation.
func Fig10b(scale int, w io.Writer) error {
	t := NewTable("Figure 10b: getpid latency (ns)", "config", "measured", "paper")
	for _, tc := range []struct {
		label string
		paper float64
	}{
		{"RunC", 93}, {"HVM", 91}, {"PVM", 336},
		{"CKI-wo-OPT2", 238}, {"CKI-wo-OPT3", 153}, {"CKI", 90},
	} {
		t.Row(tc.label, fmt.Sprintf("%.0f", boot(tc.label).MeasureSyscall().Nanos()),
			fmt.Sprintf("%.0f", tc.paper))
	}
	t.Note("OPT1: no extra mode switches; OPT2: no page-table switches; OPT3: sysret/swapgs stay executable")
	_, err := t.WriteTo(w)
	return err
}

// Fig11 regenerates the lmbench figure (latencies normalized to RunC).
func Fig11(scale int, w io.Writer) error {
	t := NewTable("Figure 11: lmbench latency (normalized to RunC)",
		"case", "RunC", "HVM", "CKI", "PVM")
	cases := workloads.LMBenchCases(scale)
	res, err := runGrid(cases, t.Columns[1:]...)
	if err != nil {
		return err
	}
	for i, lc := range cases {
		per := each(res[i], func(r workloads.Result) float64 { return r.PerOp().Nanos() })
		t.Rowf(lc.CaseName, "%.2f", 1.0, per[1]/per[0], per[2]/per[0], per[3]/per[0])
	}
	t.Note("paper: PVM doubles short syscalls and dominates pgfault/fork; HVM ~ RunC; CKI adds only KSM calls")
	_, err = t.WriteTo(w)
	return err
}

// Fig13 regenerates the two overhead sweeps.
func Fig13(scale int, w io.Writer) error {
	var btree []workloads.BTreeSweep
	for _, ratio := range []int{0, 2, 4, 8, 16} {
		btree = append(btree, workloads.BTreeSweep{Inserts: 120 * scale, Ratio: ratio})
	}
	res, err := runGrid(btree, "RunC", "HVM-NST", "PVM", "CKI")
	if err != nil {
		return err
	}
	t := NewTable("Figure 13a: BTree overhead vs RunC (%) by lookup/insert ratio",
		"ratio", "HVM-NST", "PVM", "CKI")
	for i, app := range btree {
		t.Rowf(fmt.Sprintf("%d", app.Ratio), "%.1f", overheads(res[i][0], res[i][1:])...)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	var xs []workloads.XSBenchSweep
	for _, particles := range []int{50, 100, 200, 400, 800} {
		xs = append(xs, workloads.XSBenchSweep{GridPages: 200 * scale, Particles: particles * scale})
	}
	if res, err = runGrid(xs, "RunC", "HVM-NST", "PVM", "CKI"); err != nil {
		return err
	}
	t2 := NewTable("Figure 13b: XSBench overhead vs RunC (%) by particle count",
		"particles", "HVM-NST", "PVM", "CKI")
	for i, app := range xs {
		t2.Rowf(fmt.Sprintf("%d", app.Particles), "%.1f", overheads(res[i][0], res[i][1:])...)
	}
	t2.Note("paper: overhead decreases with lookup ratio / particle count; CKI stays low throughout")
	_, err = t2.WriteTo(w)
	return err
}

// Tab4 regenerates the TLB-miss table, scaled to the paper's seconds.
func Tab4(scale int, w io.Writer) error {
	t := NewTable("Table 4: TLB-miss-intensive finish time (s, scaled to paper's RunC)",
		"app", "RunC", "HVM-BM", "PVM-BM", "CKI", "paper(RunC/HVM/PVM/CKI)")
	paperRunC := map[string]float64{"GUPS": 54.9, "BTree-Lookup": 22.6}
	paperRow := map[string]string{
		"GUPS":         "54.9/67.8/54.9/55.1",
		"BTree-Lookup": "22.6/24.1/21.7/22.6",
	}
	apps := workloads.Table4Apps(scale)
	res, err := runGrid(apps, t.Columns[1:5]...)
	if err != nil {
		return err
	}
	for i, app := range apps {
		runc, paper := res[i][0], paperRunC[app.Name()]
		row := append([]float64{paper}, each(res[i][1:], func(r workloads.Result) float64 {
			return workloads.ScaledSeconds(r, runc, paper)
		})...)
		t.Row(append(cellsf(app.Name(), "%.1f", row...), paperRow[app.Name()])...)
	}
	t.Note("HVM pays two-dimensional walks; 1-D runtimes track RunC")
	_, err = t.WriteTo(w)
	return err
}

// Fig14 regenerates the SQLite figure: normalized throughput plus the
// syscall-frequency series.
func Fig14(scale int, w io.Writer) error {
	t := NewTable("Figure 14: SQLite throughput (normalized) and syscall frequency",
		"case", "PVM", "CKI", "HVM", "RunC", "syscalls/op", "M-syscalls/s (CKI)")
	cases := workloads.Fig14Cases(scale)
	res, err := runGrid(cases, t.Columns[1:5]...)
	if err != nil {
		return err
	}
	for i, sc := range cases {
		cki := res[i][1]
		perOpSys := float64(cki.Syscalls) / float64(cki.Ops)
		mps := float64(cki.Syscalls) / cki.Time.Seconds() / 1e6
		t.Rowf(sc.CaseName, "%.3f",
			append(overMax(each(res[i], workloads.Result.OpsPerSec)), perOpSys, mps)...)
	}
	t.Note("paper: PVM loses 19-24%% on writes (syscall redirection); reads run from cache, all equal")
	_, err = t.WriteTo(w)
	return err
}

// Fig15 regenerates the syscall-optimization breakdown on SQLite.
func Fig15(scale int, w io.Writer) error {
	t := NewTable("Figure 15: overhead vs CKI (%) on SQLite",
		"case", "PVM", "CKI-wo-OPT2", "CKI-wo-OPT3")
	cases := workloads.Fig14Cases(scale)
	res, err := runGrid(cases, "CKI", "PVM", "CKI-wo-OPT2", "CKI-wo-OPT3")
	if err != nil {
		return err
	}
	for i, sc := range cases {
		t.Rowf(sc.CaseName, "%.1f", overheads(res[i][0], res[i][1:])...)
	}
	t.Note("paper ladders: PVM 24/17/23/22/22/1/0; each OPT removes part of the gap")
	_, err = t.WriteTo(w)
	return err
}

// Fig16 regenerates the throughput-vs-clients curves via the DES.
func Fig16(scale int, w io.Writer) error {
	clients := []int{1, 2, 4, 8, 16, 32, 64, 128}
	apps := []struct {
		app     workloads.KVApp
		workers int
	}{
		{workloads.Memcached(48 * scale), 4},
		{workloads.Redis(48 * scale), 1},
	}
	for _, a := range apps {
		t := NewTable(fmt.Sprintf("Figure 16: %s throughput (k-ops/s) vs clients", a.app.AppName),
			append([]string{"runtime"}, intLabels(clients)...)...)
		for _, label := range []string{"CKI-NST", "PVM-NST", "HVM-NST", "CKI-BM", "PVM-BM", "HVM-BM"} {
			rt := paperRuntime(label)
			model, err := serviceModelFor(a.app, rt.kind, rt.opts)
			if err != nil {
				return err
			}
			var row []float64
			for _, n := range clients {
				ops, _ := des.ClosedLoop{
					Clients: n,
					Workers: a.workers,
					RTT:     40 * clock.Microsecond,
					Service: model,
					Horizon: 20 * clock.Millisecond,
				}.Throughput()
				row = append(row, ops/1000)
			}
			t.Rowf(label, "%.0f", row...)
		}
		t.Note("paper: CKI-NST reaches ~6.8x HVM-NST (memcached) / ~2.0x (redis); ~1.5x/1.3x PVM-NST")
		if _, err := t.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// serviceModelFor measures per-request service times at several
// coalescing depths on a live container and interpolates by backlog.
// Depths are capped at the application's own batch limit: memcached's
// worker threads drain queues before they deepen, so its interrupts and
// doorbells never coalesce far, while single-threaded redis backlogs
// deeper (the difference behind Fig. 16's 6.8× vs 2.0× gains).
func serviceModelFor(app workloads.KVApp, kind backends.Kind, opts backends.Options) (des.ServiceModel, error) {
	var depths []int
	for _, d := range []int{1, 2, 4, 8, 16} {
		if d <= app.Batch {
			depths = append(depths, d)
		}
	}
	rt := runtimeSpec{kind, opts}
	times := map[int]clock.Time{}
	for _, d := range depths {
		probe := app
		probe.Requests = 32
		probe.Batch = d
		res, err := probe.Run(rt.boot())
		if err != nil {
			return nil, err
		}
		times[d] = res.PerOp()
	}
	return func(backlog int) clock.Time {
		best := times[1]
		for _, d := range depths {
			if backlog >= d {
				best = times[d]
			}
		}
		return best
	}, nil
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
