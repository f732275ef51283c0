package bench

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/backends"
	"repro/internal/clock"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/snapshot"
)

// The snapshot experiment: checkpoint/restore and live migration across
// all five runtimes. Each cell checkpoints a warmed-up container into a
// CKISNAP1 image, restores it onto a fresh machine (verifying the
// canonical fingerprint), then live-migrates it with iterative pre-copy
// rounds driven by the guest's dirty-page tracking, and finally
// compares supervised recovery with and without warm restarts. All
// clocks are virtual, so the report and the checkpoint blobs are
// byte-identical across runs and -parallel values.

const (
	// snapshotHeapPages is the per-scale resident working set the
	// checkpointed workload touches before capture.
	snapshotHeapPages = 48
	// migWorkPages is the per-scale page budget the source dirties while
	// the first pre-copy round streams; each later round sees half the
	// previous round's writes (the workload is quiescing), which is what
	// makes iterative pre-copy converge.
	migWorkPages = 16
	// migPageCopy is the modeled cost of moving one 4KiB page over the
	// migration link (~16 GB/s effective).
	migPageCopy = 250 * clock.Nanosecond
	// migStopPages: when a pre-copy round leaves this few dirty pages,
	// the source stops and the remainder moves during the blackout.
	migStopPages = 4
	// migMaxRounds caps pre-copy for workloads that never converge.
	migMaxRounds = 5
	// snapshotMTTRRounds/snapshotCrashEvery drive the warm-vs-cold
	// supervised comparison: the workload panics the guest on every
	// snapshotCrashEvery-th visit.
	snapshotCrashEvery = 4
)

// SnapshotRow is one runtime's checkpoint/restore/migration record.
type SnapshotRow struct {
	Runtime       string  `json:"runtime"`
	CheckpointB   int     `json:"checkpoint_bytes"`
	ResidentPages int     `json:"resident_pages"`
	BlobFNV       string  `json:"checkpoint_fnv64a"`
	CheckpointNs  float64 `json:"checkpoint_ns"`
	Checkpoint    string  `json:"checkpoint"`
	RestoreNs     float64 `json:"restore_ns"`
	Restore       string  `json:"restore"`
	PreDumpRounds int     `json:"predump_rounds"`
	PreDumpPages  int     `json:"predump_pages"`
	StopPages     int     `json:"stop_pages"`
	DowntimeNs    float64 `json:"downtime_ns"`
	Downtime      string  `json:"downtime"`
	WarmMTTRNs    float64 `json:"warm_mttr_ns"`
	WarmMTTR      string  `json:"warm_mttr"`
	ColdMTTRNs    float64 `json:"cold_mttr_ns"`
	ColdMTTR      string  `json:"cold_mttr"`
	WarmRestores  int     `json:"warm_restores"`
	ColdRestarts  int     `json:"cold_restarts"`
}

// SnapshotReport is the whole experiment's report (the -json output and
// the committed BENCH_snapshot artifact).
type SnapshotReport struct {
	Scale    int           `json:"scale"`
	Interval int           `json:"checkpoint_interval"`
	Rows     []SnapshotRow `json:"containers"`

	// blobs holds each cell's initial checkpoint image, aligned with
	// Rows; not serialized — -snap-out extracts one via
	// CheckpointBlob.
	blobs [][]byte
}

// CheckpointBlob returns the named runtime's CKISNAP1 checkpoint image
// from this run (nil if the runtime is not in the report).
func (r *SnapshotReport) CheckpointBlob(runtime string) []byte {
	for i, row := range r.Rows {
		if row.Runtime == runtime {
			return r.blobs[i]
		}
	}
	return nil
}

// snapshotState builds checkpointable guest state: a dirty file in the
// tmpfs and a persistent heap mapping with every page faulted in dirty.
func snapshotState(k *guest.Kernel, pages int) error {
	fd, err := k.Open("/snap.db", true)
	if err != nil {
		return err
	}
	if _, err := k.Write(fd, []byte("crash-consistent-checkpoint")); err != nil {
		return err
	}
	if err := k.Close(fd); err != nil {
		return err
	}
	size := uint64(pages) * mem.PageSize
	addr, err := k.MmapCall(size, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	return k.TouchRange(addr, size, mmu.Write)
}

// dirtyNewPages models the still-serving source during a pre-copy
// round: it grows the heap by n pages and writes each one, so the
// dirty-page tracker at the mediated-PTE chokepoint picks them up.
func dirtyNewPages(k *guest.Kernel, n int) error {
	if n < 1 {
		n = 1
	}
	size := uint64(n) * mem.PageSize
	addr, err := k.MmapCall(size, guest.ProtRead|guest.ProtWrite, nil, false)
	if err != nil {
		return err
	}
	return k.TouchRange(addr, size, mmu.Write)
}

// snapshotServes proves a restored container is live: the checkpointed
// file must read back, and a fresh page must demand-fault in.
func snapshotServes(k *guest.Kernel) error {
	fd, err := k.Open("/snap.db", false)
	if err != nil {
		return fmt.Errorf("restored fs: %w", err)
	}
	if _, err := k.Pread(fd, 8, 0); err != nil {
		return fmt.Errorf("restored read: %w", err)
	}
	if err := k.Close(fd); err != nil {
		return err
	}
	return dirtyNewPages(k, 1)
}

// snapshotMTTR supervises one container of the given kind through a
// deterministic crash schedule and returns its health record.
func snapshotMTTR(kind backends.Kind, opts backends.Options, pol backends.RestartPolicy, rounds int) (*backends.ContainerHealth, error) {
	cl, err := backends.NewCluster(1 << 17)
	if err != nil {
		return nil, err
	}
	if _, err := cl.Add(kind, opts); err != nil {
		return nil, err
	}
	sup := backends.NewSupervisor(cl, pol)
	n := 0
	err = sup.Supervise(rounds, func(_ int, c *backends.Container) error {
		n++
		if n%snapshotCrashEvery == 0 {
			c.K.Panic("snapshot-bench: induced crash")
			return guest.EKERNELDIED
		}
		return chaosWork(c)
	})
	if err != nil {
		return nil, err
	}
	return sup.Health[0], nil
}

// snapshotCell runs one runtime's full cell: checkpoint, restore with
// fingerprint verification, iterative-pre-copy live migration, and the
// warm-vs-cold supervised recovery comparison.
func snapshotCell(kind backends.Kind, opts backends.Options, scale, interval int) (SnapshotRow, []byte, error) {
	var row SnapshotRow
	c, err := backends.New(kind, opts)
	if err != nil {
		return row, nil, err
	}
	row.Runtime = c.Name
	if err := snapshotState(c.K, snapshotHeapPages*scale); err != nil {
		return row, nil, fmt.Errorf("%s: workload: %w", c.Name, err)
	}

	// Checkpoint: capture latency is the virtual time CaptureImage and
	// the vCPU/TLB walks charge on the source's clock.
	t0 := c.Clk.Now()
	snap, err := backends.Checkpoint(c)
	if err != nil {
		return row, nil, fmt.Errorf("%s: checkpoint: %w", c.Name, err)
	}
	ckpt := c.Clk.Now() - t0
	blob := snapshot.Encode(snap)
	row.CheckpointB = len(blob)
	row.ResidentPages = snap.Image.ResidentPages()
	row.BlobFNV = fmt.Sprintf("%#016x", blobFNV(blob))
	row.CheckpointNs = float64(ckpt) / float64(clock.Nanosecond)
	row.Checkpoint = ckpt.String()

	// Restore onto a fresh machine: decode the blob (verifying its
	// checksum), then an eager bring-up rebuilds the container through
	// the runtime's own paravirt hooks and verifies the canonical
	// fingerprint before handing it back.
	restored, err := snapshot.Decode(blob)
	var restore clock.Time
	if err == nil {
		_, restore, _, _, err = bringUp(restored, nil, guest.RestoreEager, snapshotServes)
	}
	if err != nil {
		return row, nil, fmt.Errorf("%s: restore: %w", c.Name, err)
	}
	row.RestoreNs = float64(restore) / float64(clock.Nanosecond)
	row.Restore = restore.String()

	// Live migration with iterative pre-copy: round 1 streams the full
	// resident set while the source keeps serving; each later round
	// streams the pages dirtied meanwhile. When a round leaves at most
	// migStopPages dirty (or the cap hits), the source stops and the
	// remainder plus the image move during the blackout.
	k := c.K
	k.TrackDirty(true)
	rounds, preDump := 1, row.ResidentPages
	c.Clk.Advance(migPageCopy * clock.Time(row.ResidentPages))
	var stop int
	for {
		if err := dirtyNewPages(k, (migWorkPages*scale)>>uint(rounds)); err != nil {
			return row, nil, fmt.Errorf("%s: migration workload: %w", c.Name, err)
		}
		dirty := len(k.DirtySwap())
		if dirty <= migStopPages || rounds >= migMaxRounds {
			stop = dirty
			break
		}
		rounds++
		preDump += dirty
		c.Clk.Advance(migPageCopy * clock.Time(dirty))
	}
	k.TrackDirty(false)
	row.PreDumpRounds = rounds
	row.PreDumpPages = preDump
	row.StopPages = stop

	// Downtime = source-side stop-and-copy (final dirty pages plus the
	// image capture) + target-side restore and verification.
	t0 = c.Clk.Now()
	c.Clk.Advance(migPageCopy * clock.Time(stop))
	blob2, err := backends.CheckpointBytes(c)
	if err != nil {
		return row, nil, fmt.Errorf("%s: final checkpoint: %w", c.Name, err)
	}
	srcStop := c.Clk.Now() - t0
	migrated, err := snapshot.Decode(blob2)
	var target clock.Time
	if err == nil {
		_, target, _, _, err = bringUp(migrated, nil, guest.RestoreEager, snapshotServes)
	}
	if err != nil {
		return row, nil, fmt.Errorf("%s: migration restore: %w", c.Name, err)
	}
	downtime := srcStop + target
	row.DowntimeNs = float64(downtime) / float64(clock.Nanosecond)
	row.Downtime = downtime.String()

	// Warm-vs-cold recovery: the same deterministic crash schedule
	// supervised twice — once restoring the last good snapshot (which
	// also resets the backoff), once cold-booting from scratch.
	warmPol := backends.DefaultRestartPolicy()
	warmPol.SnapshotInterval = interval
	warmPol.WarmRestart = true
	rounds = 40 * scale
	hWarm, err := snapshotMTTR(kind, opts, warmPol, rounds)
	if err != nil {
		return row, nil, fmt.Errorf("%s: warm supervision: %w", c.Name, err)
	}
	hCold, err := snapshotMTTR(kind, opts, backends.DefaultRestartPolicy(), rounds)
	if err != nil {
		return row, nil, fmt.Errorf("%s: cold supervision: %w", c.Name, err)
	}
	row.WarmMTTRNs = float64(hWarm.MTTR()) / float64(clock.Nanosecond)
	row.WarmMTTR = hWarm.MTTR().String()
	row.ColdMTTRNs = float64(hCold.MTTR()) / float64(clock.Nanosecond)
	row.ColdMTTR = hCold.MTTR().String()
	row.WarmRestores = hWarm.WarmRestores
	row.ColdRestarts = hCold.Restarts
	return row, blob, nil
}

// RunSnapshot executes the snapshot experiment, one independent cell
// per runtime fanned out to at most o.Parallel goroutines, and writes
// the CKI cell's checkpoint image to o.SnapOut. Deterministic: same
// scale and interval, byte-identical report and checkpoint blobs for
// any parallel value.
func RunSnapshot(o Options) (*SnapshotReport, error) {
	scale, interval := max(o.Scale, 1), max(o.Interval, 1)
	specs := runtimeSpecs()
	rep := &SnapshotReport{
		Scale:    scale,
		Interval: interval,
		Rows:     make([]SnapshotRow, len(specs)),
		blobs:    make([][]byte, len(specs)),
	}
	err := RunIndexed(o.Parallel, len(specs), func(i int) error {
		row, blob, err := snapshotCell(specs[i].kind, specs[i].opts, scale, interval)
		if err != nil {
			return err
		}
		rep.Rows[i] = row
		rep.blobs[i] = blob
		return nil
	})
	if err != nil {
		return nil, err
	}
	if o.SnapOut != "" {
		blob := rep.CheckpointBlob("CKI-BM")
		if blob == nil {
			return nil, errors.New("snapshot: no CKI checkpoint in report")
		}
		if err := os.WriteFile(o.SnapOut, blob, 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// WriteTable renders the report as a table.
func (rep *SnapshotReport) WriteTable(w io.Writer) error {
	t := NewTable("Checkpoint/restore, live migration, and warm-restart recovery",
		"runtime", "ckpt bytes", "resident", "checkpoint", "restore",
		"pre-copy", "downtime", "warm MTTR", "cold MTTR")
	for _, r := range rep.Rows {
		t.Row(r.Runtime, itoa(r.CheckpointB), itoa(r.ResidentPages),
			r.Checkpoint, r.Restore,
			fmt.Sprintf("%dx/%dpg", r.PreDumpRounds, r.PreDumpPages),
			r.Downtime, r.WarmMTTR, r.ColdMTTR)
	}
	t.Note("restore verifies the canonical PFN-isomorphic fingerprint; downtime is the")
	t.Note("stop-and-copy blackout after %d-page-threshold iterative pre-copy; warm MTTR", migStopPages)
	t.Note("restores the last good snapshot (interval %d) instead of cold-booting", rep.Interval)
	_, err := t.WriteTo(w)
	return err
}

// Invariants checks every runtime's row: a non-empty checkpoint whose
// image matches the reported size and digest, a paying restore, a
// converged pre-copy with nonzero downtime — and the robustness claim,
// warm MTTR strictly below cold on CKI and PVM, which restore warm.
func (rep *SnapshotReport) Invariants() error {
	if len(rep.Rows) != len(runtimeSpecs()) || len(rep.blobs) != len(rep.Rows) {
		return fmt.Errorf("snapshot: %d rows and %d checkpoint images, want %d of each",
			len(rep.Rows), len(rep.blobs), len(runtimeSpecs()))
	}
	for i, r := range rep.Rows {
		if r.CheckpointB == 0 || r.ResidentPages == 0 {
			return fmt.Errorf("snapshot: %s: empty checkpoint (%d bytes, %d pages)", r.Runtime, r.CheckpointB, r.ResidentPages)
		}
		if blob := rep.blobs[i]; len(blob) != r.CheckpointB || fmt.Sprintf("%#016x", blobFNV(blob)) != r.BlobFNV {
			return fmt.Errorf("snapshot: %s: image (%d bytes) does not match the reported %d bytes, %s",
				r.Runtime, len(blob), r.CheckpointB, r.BlobFNV)
		}
		if r.DowntimeNs <= 0 || r.PreDumpRounds < 1 || r.StopPages > r.PreDumpPages || r.RestoreNs <= 0 {
			return fmt.Errorf("snapshot: %s: implausible migration: %+v", r.Runtime, r)
		}
		if r.Runtime == "CKI-BM" || r.Runtime == "PVM-BM" {
			if r.WarmRestores == 0 || r.WarmMTTRNs >= r.ColdMTTRNs {
				return fmt.Errorf("snapshot: %s: %d warm restores, warm MTTR %s not below cold %s",
					r.Runtime, r.WarmRestores, r.WarmMTTR, r.ColdMTTR)
			}
		}
	}
	return nil
}

// blobFNV hashes a checkpoint image with FNV-64a — the same family the
// CKISNAP1 trailer and the audit fingerprinter use.
func blobFNV(data []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}
