package bench

import (
	"fmt"
	"io"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The serverless experiment: cold-start latency and high-churn serving
// under the fork-from-snapshot fast path. Stage 1 calibrates every
// runtime on real machines — one template function is initialized
// (init syscalls, a written file, a touched heap) and checkpointed,
// then the four instantiation paths are measured end-to-first-response:
// a cold boot rerunning the whole init, an eager restore replaying
// every resident page, a COW fork mapping pages shared from the
// content-addressed page store, and a lazy fork materializing only the
// snapshot's warm-TLB working set up front. A machine-level churn loop
// then forks and evicts a rolling window of siblings against one
// shared store, pinning the sharing ledger's peak and that eviction
// drains it completely. Stage 2 drives a fleet of nodes through
// open-loop churn arrivals once per (runtime, instantiation mode),
// with a request recorder attributing every completion's latency to
// queue wait, instantiation, and service. Every cell is an isolated
// simulation, so the report is byte-identical for any -parallel value.

// ServerlessSeed tags the committed BENCH_serverless report and roots
// the per-cell seeds.
const ServerlessSeed = 0x5e71e55

const (
	// serverlessHeapPages (x scale) is the template function's heap;
	// serverlessHotPages of it are re-touched last so the warm TLB —
	// and with it the lazy fork's prefetch set — holds exactly the hot
	// working set.
	serverlessHeapPages = 48
	serverlessHotPages  = 12
	// serverlessTLBEntries keeps the TLB smaller than the heap, so a
	// lazy fork genuinely defers the cold tail of the working set.
	serverlessTLBEntries = 16
	// serverlessInitSpins (x scale) is the init-phase syscall loop a
	// restore never replays — the work a cold boot alone pays.
	serverlessInitSpins = 32
	// serverlessInvokes averages the warm invoke for the service cost.
	serverlessInvokes = 4
	// serverlessSiblings is the live-fork window of the churn loop;
	// serverlessChurnForks (x scale) is how many forks cycle through
	// it; serverlessIDPool is the reused container-ID pool.
	serverlessSiblings   = 4
	serverlessChurnForks = 24
	serverlessIDPool     = 9
	// serverlessLoad is the fleet stage's offered load as a fraction of
	// nominal capacity.
	serverlessLoad = 0.5
	// serverlessArrivalsPerCell sizes the horizon per scale unit.
	serverlessArrivalsPerCell = 2000
)

// serverlessFleet is the committed fleet stage's shape: churn cells
// are sized like the fleet experiment but short-lived (MeanReqs) and
// moderately loaded (serverlessLoad), so the tails isolate
// instantiation cost rather than queueing collapse.
var serverlessFleet = FleetShape{Seed: ServerlessSeed, Nodes: 50, SlotsPerNode: 4, QueueLimit: 16, MeanReqs: 2}

// serverlessModes is the instantiation-mode axis of the fleet stage.
var serverlessModes = []string{"cold", "eager", "cow", "lazy"}

// ServerlessCalibration is one runtime's measured instantiation costs:
// virtual time from a bare machine to the first completed invocation,
// per path.
type ServerlessCalibration struct {
	Runtime string `json:"runtime"`
	// The four instantiation paths. Both fork paths strictly beat the
	// eager restore, which strictly beats the cold boot (Invariants
	// checks it). Lazy vs cow depends on the runtime's prefetch set:
	// a runtime whose warm-TLB image names the hot working set (CKI)
	// boots lazier and faster, while one with an empty prefetch set
	// (HVM) trades cheap host-driven fork maps for expensive guest
	// demand faults and can come out behind cow.
	ColdBootNs     float64 `json:"cold_boot_ns"`
	EagerRestoreNs float64 `json:"eager_restore_ns"`
	CowForkNs      float64 `json:"cow_fork_ns"`
	LazyForkNs     float64 `json:"lazy_fork_ns"`
	// InvokeNs is the warm per-invocation service time.
	InvokeNs float64 `json:"invoke_ns"`
	// ColdOverLazy is the headline speedup: cold boot / lazy fork.
	ColdOverLazy float64 `json:"cold_over_lazy"`
	// ShareBreaks is the COW fork's write-triggered private copies
	// during its first invocation; LazyFaults counts the lazy fork's
	// deferred-page materializations; DeferredPages is how much of the
	// heap the lazy fork left unmapped at boot.
	ShareBreaks   uint64 `json:"share_breaks"`
	LazyFaults    uint64 `json:"lazy_faults"`
	DeferredPages int    `json:"deferred_pages"`
}

// ServerlessChurn is one runtime's machine-level churn loop: a rolling
// window of live forks against one shared page store.
type ServerlessChurn struct {
	Runtime  string `json:"runtime"`
	Forks    int    `json:"forks"`
	Siblings int    `json:"siblings"`
	// PeakUniquePages/PeakSharedRefs are the sharing ledger's high
	// water marks; Breaks counts write-triggered share breaks across
	// the loop; Drained is the leak check — after the last eviction
	// the store must hold nothing.
	PeakUniquePages int    `json:"peak_unique_pages"`
	PeakSharedRefs  int    `json:"peak_shared_refs"`
	Breaks          uint64 `json:"breaks"`
	Drained         bool   `json:"drained"`
}

// ServerlessRow is one (runtime, instantiation mode) churn cell of the
// fleet stage, with the recorder's cold-start attribution folded in.
type ServerlessRow struct {
	Runtime       string  `json:"runtime"`
	Mode          string  `json:"mode"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	FleetTails
	// Attribution over every completed request (exact: the three
	// shares sum to 100% of completed latency, conservation-checked
	// per request).
	QueuePct   float64 `json:"queue_pct"`
	BootPct    float64 `json:"boot_pct"`
	ServicePct float64 `json:"service_pct"`
}

// ServerlessReport is the whole experiment (the committed
// BENCH_serverless artifact).
type ServerlessReport struct {
	FleetShape
	Sched       string                  `json:"sched"`
	HeapPages   int                     `json:"heap_pages"`
	HotPages    int                     `json:"hot_pages"`
	TLBEntries  int                     `json:"tlb_entries"`
	Calibration []ServerlessCalibration `json:"calibration"`
	Churn       []ServerlessChurn       `json:"churn"`
	Rows        []ServerlessRow         `json:"rows"`
}

// serverlessSpecs is runtimeSpecs with the TLB pinned small, so the
// lazy prefetch set is a strict subset of the heap on every runtime.
func serverlessSpecs() []runtimeSpec {
	specs := runtimeSpecs()
	for i := range specs {
		specs[i].opts.TLBEntries = serverlessTLBEntries
	}
	return specs
}

// serverlessInit builds the template function's post-init state: the
// init syscall loop (work a restore never replays), a database file
// with distinct content on every page (so forked heaps dedup to many
// distinct store masters, not one zero page), and that file mapped and
// touched as the heap — its hot head re-touched last so it owns the
// warm TLB.
func serverlessInit(k *guest.Kernel, scale int) (uint64, error) {
	for i := 0; i < serverlessInitSpins*scale; i++ {
		k.Getpid()
	}
	pages := serverlessHeapPages * scale
	data := make([]byte, pages*mem.PageSize)
	for i := range data {
		data[i] = byte(i/mem.PageSize + i*131)
	}
	fd, err := k.Open("/fn.db", true)
	if err != nil {
		return 0, err
	}
	if _, err := k.Write(fd, data); err != nil {
		return 0, err
	}
	if err := k.Close(fd); err != nil {
		return 0, err
	}
	ino, err := k.FS.Lookup("/fn.db")
	if err != nil {
		return 0, err
	}
	heap := uint64(pages) * mem.PageSize
	addr, err := k.MmapCall(heap, guest.ProtRead|guest.ProtWrite, ino, false)
	if err != nil {
		return 0, err
	}
	if err := k.TouchRange(addr, heap, mmu.Write); err != nil {
		return 0, err
	}
	if err := k.TouchRange(addr, serverlessHotPages*mem.PageSize, mmu.Write); err != nil {
		return 0, err
	}
	return addr, nil
}

// serverlessInvoke is one function invocation: write the hot working
// set, read the database file.
func serverlessInvoke(k *guest.Kernel, addr uint64) error {
	if err := k.TouchRange(addr, serverlessHotPages*mem.PageSize, mmu.Write); err != nil {
		return err
	}
	fd, err := k.Open("/fn.db", false)
	if err != nil {
		return err
	}
	if _, err := k.Read(fd, 10); err != nil {
		return err
	}
	return k.Close(fd)
}

// serverlessChurnLoop forks a rolling window of siblings from one
// snapshot against one shared page store on one machine — the
// serverless churn pattern — invoking each once and evicting the
// oldest, then drains the window and records whether the store leaked.
// Container IDs come from a small reused pool, like a real node's slot
// identifiers.
func serverlessChurnLoop(scale int, name string, snap *snapshot.Snapshot, idx *snapshot.DigestIndex, addr uint64) (ServerlessChurn, error) {
	out := ServerlessChurn{Runtime: name, Forks: serverlessChurnForks * scale, Siblings: serverlessSiblings}
	// Twice the single-container arena: the rolling window keeps
	// several contiguous per-container segments live at once, and the
	// store's master frames interleave between them.
	m, err := backends.NewMachine(2*snap.Config.HostFrames, snap.Config.TLBEntries)
	if err != nil {
		return out, err
	}
	store := snapshot.NewPageStore(m.HostMem)
	evict := func(c *backends.Container) error {
		// The shared core holds the newest fork's context; teardown of
		// an older sibling reactivates it first.
		if err := c.Activate(); err != nil {
			return err
		}
		return backends.Discard(m, c)
	}
	var ring []*backends.Container
	for i := 0; i < out.Forks; i++ {
		id := 2 + i%serverlessIDPool
		mode := guest.RestoreCOW
		if i%2 == 1 {
			mode = guest.RestoreLazy
		}
		f, err := backends.ForkFromSnapshot(m, snap, idx, store, id, mode)
		if err != nil {
			return out, fmt.Errorf("%s: churn fork %d: %w", name, i, err)
		}
		if err := serverlessInvoke(f.K, addr); err != nil {
			return out, fmt.Errorf("%s: churn invoke %d: %w", name, i, err)
		}
		ring = append(ring, f)
		st := store.Stats()
		if st.UniquePages > out.PeakUniquePages {
			out.PeakUniquePages = st.UniquePages
		}
		if st.SharedRefs > out.PeakSharedRefs {
			out.PeakSharedRefs = st.SharedRefs
		}
		if len(ring) > serverlessSiblings {
			if err := evict(ring[0]); err != nil {
				return out, fmt.Errorf("%s: churn evict: %w", name, err)
			}
			ring = ring[1:]
		}
	}
	for _, f := range ring {
		if err := evict(f); err != nil {
			return out, fmt.Errorf("%s: churn drain: %w", name, err)
		}
	}
	st := store.Stats()
	out.Breaks = st.Breaks
	out.Drained = st.UniquePages == 0 && st.SharedRefs == 0
	return out, nil
}

// serverlessAttribution decomposes every completed request's latency
// into queue, instantiation (boot, fork, warm restore, storm redo) and
// service time, conservation-checked per request by tailComponents.
func serverlessAttribution(name string, rec *trace.RequestRecorder) (queuePs, bootPs, servicePs int64, err error) {
	err = rec.Each(func(_ int, _ trace.RequestID, segs []trace.Segment) error {
		if segs[len(segs)-1].Kind != trace.SegComplete {
			return nil
		}
		c, err := tailComponents(segs)
		if err != nil {
			return fmt.Errorf("serverless: %s: %w", name, err)
		}
		queuePs += c.QueuePs
		bootPs += c.BootPs + c.WarmRestorePs + c.StormRedoPs
		servicePs += c.ServicePs
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return queuePs, bootPs, servicePs, nil
}

// serverlessFleetModes resolves the instantiation-mode axis.
func serverlessFleetModes(sel string) ([]string, error) {
	if sel == "" {
		return serverlessModes, nil
	}
	for _, m := range serverlessModes {
		if m == sel {
			return []string{m}, nil
		}
	}
	return nil, fmt.Errorf("serverless: unknown fork mode %q (cold, eager, cow, lazy)", sel)
}

// RunServerless executes the serverless experiment. Deterministic: the
// same opts produce the same report, byte for byte, for any Parallel.
func RunServerless(o Options) (*ServerlessReport, error) {
	shape := serverlessFleet.at(o.Scale, o.Nodes)
	modes, err := serverlessFleetModes(o.ForkMode)
	if err != nil {
		return nil, err
	}
	specs := serverlessSpecs()

	// Stage 1 — calibration plus the churn loop, one cell per runtime.
	// Cold is the template's own first response: bare machine, boot,
	// full init, first invocation. The warm invocations that average the
	// service time run before the checkpoint, so the template's warm TLB
	// (the lazy prefetch set) holds exactly the hot working set. Eager
	// restore, COW fork and lazy fork are each timed to their first
	// response on a fresh machine; one digest index serves every fork of
	// the template. costs[i] maps each instantiation mode onto the fleet
	// cost model: cold and eager differ only in Boot, cow and lazy
	// arrivals instantiate by forking (ForkBoot, traced as fork_boot).
	rep := &ServerlessReport{
		FleetShape: shape, Sched: fleet.Spread{}.Name(),
		HeapPages: serverlessHeapPages * shape.Scale, HotPages: serverlessHotPages,
		TLBEntries:  serverlessTLBEntries,
		Calibration: make([]ServerlessCalibration, len(specs)),
		Churn:       make([]ServerlessChurn, len(specs)),
	}
	costs := make([]map[string]fleet.RuntimeCosts, len(specs))
	ns := func(t clock.Time) float64 { return float64(t) / float64(clock.Nanosecond) }
	err = RunIndexed(o.Parallel, len(specs), func(i int) error {
		init := func(k *guest.Kernel) (uint64, error) { return serverlessInit(k, shape.Scale) }
		fail := func(err error) error { return fmt.Errorf("serverless: calibrate %v: %w", specs[i].kind, err) }
		name, _, cold, invoke, snap, addr, err := calibrate(specs[i], init, serverlessInvoke, serverlessInvokes)
		if err != nil {
			return fail(err)
		}
		idx := snapshot.NewDigestIndex(snap)
		serve := func(k *guest.Kernel) error { return serverlessInvoke(k, addr) }
		_, _, eager, _, err := bringUp(snap, idx, guest.RestoreEager, serve)
		if err != nil {
			return fail(err)
		}
		forked, _, cow, _, err := bringUp(snap, idx, guest.RestoreCOW, serve)
		if err != nil {
			return fail(err)
		}
		lazied, _, lazy, deferred, err := bringUp(snap, idx, guest.RestoreLazy, serve)
		if err != nil {
			return fail(err)
		}
		rep.Calibration[i] = ServerlessCalibration{
			Runtime:        name,
			ColdBootNs:     ns(cold),
			EagerRestoreNs: ns(eager),
			CowForkNs:      ns(cow),
			LazyForkNs:     ns(lazy),
			InvokeNs:       ns(invoke),
			ColdOverLazy:   float64(cold) / float64(lazy),
			ShareBreaks:    forked.K.Stats.ShareBreaks,
			LazyFaults:     lazied.K.Stats.LazyFaults,
			DeferredPages:  deferred,
		}
		costs[i] = map[string]fleet.RuntimeCosts{
			"cold":  {Boot: cold, Service: invoke},
			"eager": {Boot: eager, Service: invoke},
			"cow":   {Boot: cold, Service: invoke, ForkBoot: cow},
			"lazy":  {Boot: cold, Service: invoke, ForkBoot: lazy},
		}
		rep.Churn[i], err = serverlessChurnLoop(shape.Scale, name, snap, idx, addr)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Stage 2 — the churn grid: one cell per (runtime, mode), every
	// mode of a runtime seeing the identical arrival stream so the
	// tails differ only by the instantiation path.
	rows := make([]ServerlessRow, len(specs)*len(modes))
	err = RunIndexed(o.Parallel, len(rows), func(ci int) error {
		ri, mi := ci/len(modes), ci%len(modes)
		name, mode := rep.Calibration[ri].Runtime, modes[mi]
		cell := costs[ri][mode]
		// Rate and horizon derive from the cold cost model for every
		// mode: the comparison holds offered load fixed and lets the
		// instantiation path move the tail.
		rate := serverlessLoad * shape.capacity(costs[ri]["cold"])
		if o.ChurnRate > 0 {
			rate = o.ChurnRate
		}
		horizon := shape.horizon(serverlessArrivalsPerCell, rate)
		seed := faults.Child(shape.Seed, ri)
		rec := trace.NewRequestRecorder()
		cfg := shape.cell(cell, seed, des.PoissonArrivals(seed, rate, horizon), horizon, fleet.Spread{})
		cfg.ForkBoots = cell.ForkBoot > 0
		cfg.Requests = rec
		res, err := fleet.Run(cfg)
		if err != nil {
			return fmt.Errorf("serverless: %s/%s: %w", name, mode, err)
		}
		q, b, s, err := serverlessAttribution(name+"/"+mode, rec)
		if err != nil {
			return err
		}
		pct := func(part int64) float64 {
			if total := q + b + s; total > 0 {
				return 100 * float64(part) / float64(total)
			}
			return 0
		}
		rows[ci] = ServerlessRow{
			Runtime: name, Mode: mode, OfferedPerSec: rate,
			FleetTails: fleetTails(res, cfg.Horizon),
			QueuePct:   pct(q), BootPct: pct(b), ServicePct: pct(s),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// WriteServerlessJSON writes the report in the exact encoding of the
// committed BENCH_serverless artifact.
func WriteServerlessJSON(rep *ServerlessReport, w io.Writer) error { return WriteJSON(rep, w) }

// WriteTable renders the calibration, churn, and fleet rows as tables.
func (rep *ServerlessReport) WriteTable(w io.Writer) error {
	t := NewTable(
		fmt.Sprintf("Serverless instantiation paths (%d-page heap, %d hot, TLB %d)",
			rep.HeapPages, rep.HotPages, rep.TLBEntries),
		"runtime", "cold boot", "eager restore", "cow fork", "lazy fork", "invoke", "cold/lazy", "breaks", "lazy faults", "deferred")
	fns := func(v float64) string { return (clock.Time(v) * clock.Nanosecond).String() }
	for _, c := range rep.Calibration {
		t.Row(c.Runtime, fns(c.ColdBootNs), fns(c.EagerRestoreNs), fns(c.CowForkNs),
			fns(c.LazyForkNs), fns(c.InvokeNs),
			fmt.Sprintf("%.1fx", c.ColdOverLazy),
			itoa(int(c.ShareBreaks)), itoa(int(c.LazyFaults)), itoa(c.DeferredPages))
	}
	t.Note("each path is machine-zero to first completed invocation; a fork maps pages")
	t.Note("shared from the content-addressed store instead of replaying faults, and the")
	t.Note("lazy fork materializes only the snapshot's warm-TLB working set up front")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	ct := NewTable("Churn loop: rolling fork window against one shared page store",
		"runtime", "forks", "window", "peak masters", "peak refs", "breaks", "drained")
	for _, c := range rep.Churn {
		ct.Row(c.Runtime, itoa(c.Forks), itoa(c.Siblings),
			itoa(c.PeakUniquePages), itoa(c.PeakSharedRefs), itoa(int(c.Breaks)),
			fmt.Sprintf("%v", c.Drained))
	}
	if _, err := ct.WriteTo(w); err != nil {
		return err
	}
	ft := NewTable(
		fmt.Sprintf("Fleet churn: %d nodes x %d slots, open-loop arrivals, short-lived instances",
			rep.Nodes, rep.SlotsPerNode),
		"runtime", "mode", "offered/s", "done", "goodput/s", "p50", "p99", "p999", "queue", "boot", "service")
	for _, r := range rep.Rows {
		ft.Row(r.Runtime, r.Mode,
			fmt.Sprintf("%.0f", r.OfferedPerSec),
			itoa(r.Completed),
			fmt.Sprintf("%.0f", r.GoodputPerSec),
			fmt.Sprintf("%.2fms", r.P50Ms),
			fmt.Sprintf("%.2fms", r.P99Ms),
			fmt.Sprintf("%.2fms", r.P999Ms),
			fmt.Sprintf("%.0f%%", r.QueuePct),
			fmt.Sprintf("%.0f%%", r.BootPct),
			fmt.Sprintf("%.0f%%", r.ServicePct))
	}
	ft.Note("every mode of a runtime sees the identical arrival stream; the boot share is")
	ft.Note("the instantiation path's exact contribution to completed latency (per-request")
	ft.Note("conservation-checked), so the p99 ordering lazy < eager < cold is causal")
	_, err := ft.WriteTo(w)
	return err
}

// Invariants checks the ordering the experiment is about: on every
// runtime either fork path strictly beats the eager restore, which
// strictly beats the cold boot (lazy vs cow depends on the runtime, so
// it is reported, not checked), and on CKI the fleet p99 orders lazy <
// eager < cold. Every fork broke shares and deferred pages, every churn
// loop shared pages and drained its store, and every fleet row
// completed requests with populated attribution.
func (rep *ServerlessReport) Invariants() error {
	nRT := len(serverlessSpecs())
	if len(rep.Calibration) != nRT || len(rep.Churn) != nRT || len(rep.Rows) != nRT*len(serverlessModes) {
		return fmt.Errorf("serverless: %d calibration / %d churn / %d fleet rows, want %d / %d / %d",
			len(rep.Calibration), len(rep.Churn), len(rep.Rows), nRT, nRT, nRT*len(serverlessModes))
	}
	for _, c := range rep.Calibration {
		if !(c.LazyForkNs < c.EagerRestoreNs && c.CowForkNs < c.EagerRestoreNs && c.EagerRestoreNs < c.ColdBootNs) {
			return fmt.Errorf("serverless: %s: instantiation order violated: lazy %v cow %v eager %v cold %v",
				c.Runtime, c.LazyForkNs, c.CowForkNs, c.EagerRestoreNs, c.ColdBootNs)
		}
		if c.ShareBreaks == 0 || c.DeferredPages == 0 {
			return fmt.Errorf("serverless: %s: cow fork broke %d shares, lazy fork deferred %d pages; want both > 0",
				c.Runtime, c.ShareBreaks, c.DeferredPages)
		}
	}
	for _, c := range rep.Churn {
		if !c.Drained || c.PeakSharedRefs == 0 || c.PeakUniquePages < 2 || c.Breaks == 0 {
			return fmt.Errorf("serverless: %s: churn loop shared nothing or leaked: %+v", c.Runtime, c)
		}
	}
	p99 := map[string]float64{}
	for _, r := range rep.Rows {
		if r.Completed == 0 || r.BootPct <= 0 || r.ServicePct <= 0 {
			return fmt.Errorf("serverless: %s/%s: degenerate row: %d done, boot %v%%, service %v%%",
				r.Runtime, r.Mode, r.Completed, r.BootPct, r.ServicePct)
		}
		if r.Runtime == "CKI-BM" {
			p99[r.Mode] = r.P99Ms
		}
	}
	if len(p99) != len(serverlessModes) || !(p99["lazy"] < p99["eager"] && p99["eager"] < p99["cold"]) {
		return fmt.Errorf("serverless: CKI p99 ordering violated: lazy %.4f eager %.4f cold %.4f (%d modes)",
			p99["lazy"], p99["eager"], p99["cold"], len(p99))
	}
	return nil
}
