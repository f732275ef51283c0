package bench

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/workloads"
)

// Tab1 regenerates the paper's Table 1 — the design-space comparison of
// VM-level container architectures (§2.4, Fig. 3) — with the
// performance cells *measured* on this simulator instead of hand-graded:
// a page-fault-intensive app for the memory rows and an un-coalesced
// request/response server for the I/O rows, each reported as slowdown
// versus the OS-level container. The libOS columns are qualitative (we
// do not implement libOS runtimes; their defining property is the
// *absence* of guest user/kernel isolation).
func Tab1(scale int, w io.Writer) error {
	apps := []workloads.Runner{
		workloads.Fig12Apps(scale)[0], // btree
		workloads.Fig5Apps(scale)[4],  // netperf-RR
	}
	labels := []string{"RunC", "HVM", "PVM", "gVisor", "CKI", "HVM-NST", "PVM-NST", "CKI-NST"}
	res, err := runGrid(apps, labels...)
	if err != nil {
		return err
	}
	slow := func(run, base workloads.Result) string {
		r := float64(run.Time) / float64(base.Time)
		grade := "good"
		switch {
		case r > 3:
			grade = "bad"
		case r > 1.25:
			grade = "fair"
		}
		return fmt.Sprintf("%s (%.2fx)", grade, r)
	}

	t := NewTable("Table 1: VM-level container designs (perf cells measured, vs RunC)",
		"aspect", "HVM", "PVM", "gVisor", "CKI", "LibOS (qualitative)")
	for _, deploy := range []struct {
		name string
		cols []string
	}{
		{"BM", []string{"HVM", "PVM", "gVisor", "CKI"}},
		// gVisor-in-VM ≈ BM for these paths, so its NST cell is the BM run.
		{"NST", []string{"HVM-NST", "PVM-NST", "gVisor", "CKI-NST"}},
	} {
		for i, aspect := range []string{"memory-intensive", "I/O-intensive"} {
			row := []string{fmt.Sprintf("%s (%s)", aspect, deploy.name)}
			for _, label := range deploy.cols {
				row = append(row, slow(res[i][slices.Index(labels, label)], res[i][0]))
			}
			t.Row(append(row, "good")...)
		}
	}
	t.Row("guest user/kernel isolation", "yes", "yes", "yes", "yes", "NO (single AS)")
	t.Row("nested-cloud deployment", "often disabled", "yes", "yes", "yes", "yes")
	t.Row("container binary compat", "yes", "yes", "partial (rewrite)", "yes", "poor")
	t.Note("paper Table 1; performance cells regenerated from btree / netperf-RR runs")
	_, err = t.WriteTo(w)
	return err
}
