package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// goldenTable is one "== title ==" block of benchmark/golden/paper.txt.
type goldenTable struct {
	cols  []string
	rows  []string                     // first cells, in print order
	cells map[string]map[string]string // row → column → cell
}

// parseGolden returns every table in rendered output, keyed by title.
// Column spans come from the dash line under the header, because a
// header such as "M-syscalls/s (CKI)" contains spaces; a table ends at
// its first note or blank line.
func parseGolden(text string) map[string]*goldenTable {
	tables := map[string]*goldenTable{}
	lines := strings.Split(text, "\n")
	for i := 0; i+2 < len(lines); i++ {
		title, ok := strings.CutPrefix(lines[i], "== ")
		if !ok || !strings.HasSuffix(title, " ==") {
			continue
		}
		var spans [][2]int
		dash := lines[i+2]
		for s := 0; s < len(dash); s++ {
			if dash[s] == '-' {
				e := s
				for e < len(dash) && dash[e] == '-' {
					e++
				}
				spans = append(spans, [2]int{s, e})
				s = e
			}
		}
		split := func(line string) []string {
			cells := make([]string, len(spans))
			for j, sp := range spans {
				cells[j] = strings.TrimSpace(line[min(sp[0], len(line)):min(sp[1], len(line))])
			}
			return cells
		}
		t := &goldenTable{cols: split(lines[i+1]), cells: map[string]map[string]string{}}
		for _, line := range lines[i+3:] {
			if line == "" || strings.HasPrefix(line, "  note:") {
				break
			}
			cells := split(line)
			t.rows = append(t.rows, cells[0])
			t.cells[cells[0]] = map[string]string{}
			for j, c := range cells {
				t.cells[cells[0]][t.cols[j]] = c
			}
		}
		tables[strings.TrimSuffix(title, " ==")] = t
	}
	return tables
}

// transpose returns the table read by column: its rows are the
// original's columns and its columns the original's rows.
func (t *goldenTable) transpose() *goldenTable {
	tt := &goldenTable{cols: append([]string{t.cols[0]}, t.rows...), rows: t.cols[1:], cells: map[string]map[string]string{}}
	for _, col := range tt.rows {
		tt.cells[col] = map[string]string{}
		for _, row := range t.rows {
			tt.cells[col][row] = t.cells[row][col]
		}
	}
	return tt
}

// num reads one cell as a number.
func (t *goldenTable) num(row, col string) (float64, error) {
	cells, ok := t.cells[row]
	if !ok {
		return 0, fmt.Errorf("no row %q", row)
	}
	c, ok := cells[col]
	if !ok {
		return 0, fmt.Errorf("no column %q", col)
	}
	v, err := strconv.ParseFloat(c, 64)
	if err != nil {
		return 0, fmt.Errorf("row %q column %q: %v", row, col, err)
	}
	return v, nil
}

// claimKind is how a claim reads its cells.
type claimKind int

const (
	// within: the cell cols[0], or the ratio cols[0]/cols[1], lies in
	// the band on the row, or on every row.
	within claimKind = iota
	// maxWithin: the largest such value over the rows lies in the band.
	maxWithin
	// descending: the cells of cols strictly decrease along the row.
	descending
	// falls: down every row, column cols[0] rises by at most slack
	// from one row to the next and ends strictly below its first row.
	falls
)

// claim is one application-level result the reproduction must keep,
// checked against the golden table that prints it.
type claim struct {
	paper    string // the paper section and figure the claim stands for
	table    string // the golden table's title
	byColumn bool   // read the table transposed: its columns are the rows
	row      string // the row read; every row when empty
	kind     claimKind
	cols     []string
	lo, hi   float64 // the band, bounds included
	slack    float64 // falls: the largest rise allowed between rows
}

// The golden tables the claims read.
const (
	fig11   = "Figure 11: lmbench latency (normalized to RunC)"
	fig12   = "Figure 12: memory-intensive latency (normalized)"
	fig12h  = "Figure 12 (2M huge pages for VM memory): latency vs CKI"
	fig13a  = "Figure 13a: BTree overhead vs RunC (%) by lookup/insert ratio"
	fig13b  = "Figure 13b: XSBench overhead vs RunC (%) by particle count"
	tab4    = "Table 4: TLB-miss-intensive finish time (s, scaled to paper's RunC)"
	fig14   = "Figure 14: SQLite throughput (normalized) and syscall frequency"
	fig15   = "Figure 15: overhead vs CKI (%) on SQLite"
	fig16mc = "Figure 16: memcached throughput (k-ops/s) vs clients"
	fig16rd = "Figure 16: redis throughput (k-ops/s) vs clients"
)

var inf = math.Inf(1)

// paperClaims states who wins, by roughly what factor and where the
// crossovers fall, for every application-level figure that prints a
// CKI column. The paper's own numbers stay in each table's paper column
// or note; a band is the reproduction's acceptance decision for one of
// them. A time ratio is read as the inverse throughput ratio where a
// table prints throughput.
var paperClaims = []claim{
	// PVM roughly doubles short syscalls and dominates the memory and
	// process paths; HVM pays no exits on these paths; CKI's PKS gates
	// keep it near RunC everywhere.
	{paper: "§7.1 Fig. 11", table: fig11, row: "read", cols: []string{"PVM"}, lo: 1.5, hi: 2.6},
	{paper: "§7.1 Fig. 11", table: fig11, row: "read", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, row: "write", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, row: "stat", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, row: "ctxsw-2p/0k", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, row: "pipe", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, row: "AF_UNIX", cols: []string{"HVM"}, lo: -inf, hi: 1.15},
	{paper: "§7.1 Fig. 11", table: fig11, cols: []string{"CKI"}, lo: -inf, hi: 1.30},
	{paper: "§7.1 Fig. 11", table: fig11, row: "pagefault", cols: []string{"PVM"}, lo: 2.0, hi: inf},
	{paper: "§7.1 Fig. 11", table: fig11, row: "fork+exit", cols: []string{"PVM"}, lo: 2.0, hi: inf},
	{paper: "§7.1 Fig. 11", table: fig11, row: "fork+execve", cols: []string{"PVM"}, lo: 2.0, hi: inf},
	{paper: "§7.1 Fig. 11", table: fig11, row: "ctxsw-2p/0k", cols: []string{"PVM"}, lo: 1.5, hi: inf},

	// CKI stays within a few percent of RunC (the churn ops' gate costs
	// widen the paper's <3%); HVM-NST costs more than HVM-BM and PVM more
	// than CKI; HVM-NST costs 1.3-3.6x CKI, HVM-BM at most 1.25x and PVM
	// at most 1.95x; the worst cases reach the paper's
	// "up to 72% vs HVM-NST" (>= 3.2x) and "up to 47% vs PVM" (>= 1.75x).
	{paper: "§7.2 Fig. 12", table: fig12, cols: []string{"CKI", "RunC"}, lo: -inf, hi: 1.06},
	{paper: "§7.2 Fig. 12", table: fig12, kind: descending, cols: []string{"HVM-NST", "HVM-BM"}},
	{paper: "§7.2 Fig. 12", table: fig12, kind: descending, cols: []string{"PVM-BM", "CKI"}},
	{paper: "§7.2 Fig. 12", table: fig12, cols: []string{"HVM-NST", "CKI"}, lo: 1.25, hi: 4.0},
	{paper: "§7.2 Fig. 12", table: fig12, cols: []string{"HVM-BM", "CKI"}, lo: 0.98, hi: 1.25},
	{paper: "§7.2 Fig. 12", table: fig12, cols: []string{"PVM-BM", "CKI"}, lo: -inf, hi: 1.95},
	{paper: "§7.2 Fig. 12", table: fig12, kind: maxWithin, cols: []string{"HVM-NST", "CKI"}, lo: 3.2, hi: inf},
	{paper: "§7.2 Fig. 12", table: fig12, kind: maxWithin, cols: []string{"PVM-BM", "CKI"}, lo: 1.75, hi: inf},
	// With 2M EPT mappings HVM-BM's faults amortize, but PVM still exits
	// per 4K fault, so CKI keeps its btree margin.
	{paper: "§7.2 Fig. 12", table: fig12h, row: "btree", cols: []string{"HVM-BM(2M)/CKI"}, lo: -inf, hi: 1.10},
	{paper: "§7.2 Fig. 12", table: fig12h, row: "btree", cols: []string{"PVM/CKI"}, lo: 1.3, hi: inf},

	// Overhead falls as the lookup ratio and the particle count grow,
	// and CKI's stays low throughout.
	{paper: "§7.2 Fig. 13", table: fig13a, kind: falls, cols: []string{"HVM-NST"}, slack: 2.0},
	{paper: "§7.2 Fig. 13", table: fig13a, kind: falls, cols: []string{"PVM"}, slack: 2.0},
	{paper: "§7.2 Fig. 13", table: fig13a, kind: falls, cols: []string{"CKI"}, slack: 2.0},
	{paper: "§7.2 Fig. 13", table: fig13a, row: "16", cols: []string{"CKI"}, lo: -inf, hi: 5.0},
	{paper: "§7.2 Fig. 13", table: fig13b, kind: falls, cols: []string{"HVM-NST"}},

	// Two-dimensional walks cost HVM +23% on GUPS and ~6% on the damped
	// BTree-Lookup; the one-dimensional runtimes track RunC.
	{paper: "§7.2 Tab. 4", table: tab4, row: "GUPS", cols: []string{"HVM-BM", "RunC"}, lo: 1.12, hi: 1.35},
	{paper: "§7.2 Tab. 4", table: tab4, row: "BTree-Lookup", cols: []string{"HVM-BM", "RunC"}, lo: 1.01, hi: 1.15},
	{paper: "§7.2 Tab. 4", table: tab4, cols: []string{"PVM-BM", "RunC"}, lo: -inf, hi: 1.05},
	{paper: "§7.2 Tab. 4", table: tab4, cols: []string{"CKI", "RunC"}, lo: -inf, hi: 1.05},

	// PVM's time overhead (RunC/PVM throughput - 1) is the paper's
	// 19-24% on unbatched writes, smaller when batched and ~0 on reads,
	// which run from the page cache with almost no syscalls; CKI and
	// HVM match RunC (native syscalls, tmpfs, no exits).
	{paper: "§7.3 Fig. 14", table: fig14, row: "fillseq", cols: []string{"RunC", "PVM"}, lo: 1.15, hi: 1.29},
	{paper: "§7.3 Fig. 14", table: fig14, row: "fillrandom", cols: []string{"RunC", "PVM"}, lo: 1.15, hi: 1.29},
	{paper: "§7.3 Fig. 14", table: fig14, row: "fillseqbatch", cols: []string{"RunC", "PVM"}, lo: 1.06, hi: 1.29},
	{paper: "§7.3 Fig. 14", table: fig14, row: "fillrandbatch", cols: []string{"RunC", "PVM"}, lo: 1.06, hi: 1.29},
	{paper: "§7.3 Fig. 14", table: fig14, row: "overwritebatch", cols: []string{"RunC", "PVM"}, lo: 1.06, hi: 1.29},
	{paper: "§7.3 Fig. 14", table: fig14, row: "readseq", cols: []string{"RunC", "PVM"}, lo: -inf, hi: 1.05},
	{paper: "§7.3 Fig. 14", table: fig14, row: "readrandom", cols: []string{"RunC", "PVM"}, lo: -inf, hi: 1.05},
	{paper: "§7.3 Fig. 14", table: fig14, row: "readseq", cols: []string{"syscalls/op"}, lo: -inf, hi: 0.05},
	{paper: "§7.3 Fig. 14", table: fig14, row: "readrandom", cols: []string{"syscalls/op"}, lo: -inf, hi: 0.05},
	{paper: "§7.3 Fig. 14", table: fig14, cols: []string{"RunC", "CKI"}, lo: -inf, hi: 1.03},
	{paper: "§7.3 Fig. 14", table: fig14, cols: []string{"RunC", "HVM"}, lo: -inf, hi: 1.03},

	// The fillseq ablation ladder PVM > CKI-wo-OPT2 > CKI-wo-OPT3 > CKI,
	// with PVM ~24% over CKI. 0.1 is the least positive printed overhead.
	{paper: "§7.3 Fig. 15", table: fig15, row: "fillseq", kind: descending, cols: []string{"PVM", "CKI-wo-OPT2", "CKI-wo-OPT3"}},
	{paper: "§7.3 Fig. 15", table: fig15, row: "fillseq", cols: []string{"CKI-wo-OPT3"}, lo: 0.1, hi: inf},
	{paper: "§7.3 Fig. 15", table: fig15, row: "fillseq", cols: []string{"PVM"}, lo: 15, hi: 32},

	// Saturated (128-client) throughput: CKI-NST ~6.8x HVM-NST on
	// memcached and ~2.0x on redis; CKI-BM ~1.8x and ~1.4x PVM-BM.
	{paper: "§7.3 Fig. 16", table: fig16mc, byColumn: true, row: "128", cols: []string{"CKI-NST", "HVM-NST"}, lo: 4.5, hi: 9},
	{paper: "§7.3 Fig. 16", table: fig16rd, byColumn: true, row: "128", cols: []string{"CKI-NST", "HVM-NST"}, lo: 1.5, hi: 3.2},
	{paper: "§7.3 Fig. 16", table: fig16mc, byColumn: true, row: "128", cols: []string{"CKI-BM", "PVM-BM"}, lo: 1.4, hi: 2.4},
	{paper: "§7.3 Fig. 16", table: fig16rd, byColumn: true, row: "128", cols: []string{"CKI-BM", "PVM-BM"}, lo: 1.15, hi: 1.9},
}

// value reads a within/maxWithin claim's cell, or the ratio of its two
// cells, on one row, and describes what it read.
func (c claim) value(t *goldenTable, row string) (float64, string, error) {
	v, err := t.num(row, c.cols[0])
	if err != nil || len(c.cols) == 1 {
		return v, fmt.Sprintf("%s = %g", c.cols[0], v), err
	}
	d, err := t.num(row, c.cols[1])
	return v / d, fmt.Sprintf("%s/%s = %g/%g = %.3f", c.cols[0], c.cols[1], v, d, v/d), err
}

// check evaluates the claim against the parsed golden and describes
// each violation. A missing table, row or column is a violation.
func (c claim) check(tables map[string]*goldenTable) []string {
	t, ok := tables[c.table]
	if !ok {
		return []string{"no such table"}
	}
	if c.byColumn {
		t = t.transpose()
	}
	rows := t.rows
	if c.row != "" {
		rows = []string{c.row}
	}
	if len(rows) == 0 {
		return []string{"no rows"}
	}
	band := fmt.Sprintf("want within [%g, %g]", c.lo, c.hi)
	var bad []string
	switch c.kind {
	case within:
		for _, row := range rows {
			v, desc, err := c.value(t, row)
			if err != nil {
				bad = append(bad, err.Error())
			} else if v < c.lo || v > c.hi {
				bad = append(bad, fmt.Sprintf("%s: %s, %s", row, desc, band))
			}
		}
	case maxWithin:
		best, bestDesc := -inf, ""
		for _, row := range rows {
			v, desc, err := c.value(t, row)
			if err != nil {
				return []string{err.Error()}
			}
			if v > best {
				best, bestDesc = v, row+": "+desc
			}
		}
		if best < c.lo || best > c.hi {
			bad = append(bad, fmt.Sprintf("max over rows at %s, %s", bestDesc, band))
		}
	case descending:
		for _, row := range rows {
			vals := make([]float64, len(c.cols))
			for j, col := range c.cols {
				v, err := t.num(row, col)
				if err != nil {
					return []string{err.Error()}
				}
				vals[j] = v
				if j > 0 && v >= vals[j-1] {
					bad = append(bad, fmt.Sprintf("%s: %s = %g not below %s = %g",
						row, col, v, c.cols[j-1], vals[j-1]))
				}
			}
		}
	case falls:
		var first, prev float64
		for i, row := range rows {
			v, err := t.num(row, c.cols[0])
			if err != nil {
				return []string{err.Error()}
			}
			switch {
			case i == 0:
				first = v
			case v > prev+c.slack:
				bad = append(bad, fmt.Sprintf("%s rises from %g to %g at row %s, want a rise of at most %g",
					c.cols[0], prev, v, row, c.slack))
			case i == len(rows)-1 && v >= first:
				bad = append(bad, fmt.Sprintf("%s ends at %g, want below its first row's %g", c.cols[0], v, first))
			}
			prev = v
		}
	}
	return bad
}

// TestPaperClaims checks every paper claim against the committed
// benchmark/golden/paper.txt. TestPaperGolden proves that the live run
// prints exactly that file, so the claims need no second measurement,
// and a regenerated golden that drifts out of a band fails here.
func TestPaperClaims(t *testing.T) {
	tables := parseGolden(string(readCommitted(t, "benchmark/golden/paper.txt")))
	for _, c := range paperClaims {
		for _, msg := range c.check(tables) {
			t.Errorf("%s | %s: %s", c.paper, c.table, msg)
		}
	}
}
