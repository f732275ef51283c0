// Package telemetry is the live-observability layer of the simulator:
// a deterministic time-series pipeline on the shared virtual clock.
//
// A Store scrapes any metrics.Registry at a fixed virtual interval
// into per-series ring-buffered windows — counter deltas, gauge
// values, and histogram-derived windowed quantiles — with canonical
// JSON and binary exports. An Engine evaluates declarative SLO specs
// over those windows with multi-window fast/slow burn-rate rules,
// emitting alert events stamped with virtual time and labels. A
// FlightRecorder keeps a bounded ring of recent spans and audit
// records and dumps a postmortem bundle around the instant an alert
// fires or the supervisor watchdog trips.
//
// Everything here follows the zero-cost observer contract of
// trace/metrics/audit: scraping reads the virtual clock but never
// advances it, so attaching telemetry changes nothing measured, and
// every artifact is a pure function of the seeded workload — two runs
// produce byte-identical exports, and Store.Merge in the fixed
// sequential cell order reproduces a sequential run's bytes at any
// host parallelism.
package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// Window is one scrape interval's sample of one series. The meaningful
// fields depend on the series kind: counters fill Delta (increase over
// the window) and Total (cumulative value at the window's end), gauges
// fill Value (instantaneous), histograms fill Count (samples landing
// in the window), Total (cumulative samples), and the windowed P50Ns /
// P99Ns quantile estimates.
type Window struct {
	Tick  int     `json:"tick"`
	AtNs  int64   `json:"at_ns"`
	Delta float64 `json:"delta,omitempty"`
	Value float64 `json:"value,omitempty"`
	Total float64 `json:"total,omitempty"`
	Count uint64  `json:"count,omitempty"`
	P50Ns float64 `json:"p50_ns,omitempty"`
	P99Ns float64 `json:"p99_ns,omitempty"`
}

// Series is one scraped time series: a metric identity plus its ring
// of recent windows. FirstTick names the tick Windows[0] holds once
// ring eviction has dropped older windows.
type Series struct {
	Name      string            `json:"name"`
	Kind      string            `json:"kind"`
	Labels    map[string]string `json:"labels,omitempty"`
	FirstTick int               `json:"first_tick"`
	Windows   []Window          `json:"windows"`

	key        string
	prevTotal  float64
	prevCounts []uint64
	deltas     []uint64 // per-scrape histogram bucket deltas, reused
	prevInf    uint64
	prevN      uint64
	bounds     []int64
}

// Window at tick, or nil if it has been evicted or not yet scraped.
// Safe on a nil receiver (a failed Lookup chains straight into At).
func (s *Series) At(tick int) *Window {
	if s == nil {
		return nil
	}
	i := tick - s.FirstTick
	if i < 0 || i >= len(s.Windows) {
		return nil
	}
	return &s.Windows[i]
}

// seriesKey builds the store identity of a metric series. Labels
// arrive from metrics.Registry.Visit already sorted by key.
func seriesKey(name string, labels []metrics.Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Store is the ring-buffered time-series store. Scrape it at a fixed
// virtual interval; it keeps the last Depth windows per series.
type Store struct {
	// Interval is the virtual time between scrapes; Depth the per-series
	// window ring size.
	Interval clock.Time
	Depth    int

	series []*Series
	byKey  map[string]*Series
	// visited holds the series each Registry.Visit position resolved
	// to on earlier scrapes, so a steady-state scrape builds no keys.
	visited []*Series
	ticks   int
}

// DefaultDepth is the per-series window ring size when NewStore gets 0.
const DefaultDepth = 512

// NewStore creates a store sampling every interval of virtual time.
func NewStore(interval clock.Time, depth int) *Store {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Store{Interval: interval, Depth: depth, byKey: map[string]*Series{}}
}

// Ticks reports how many scrapes the store has taken.
func (st *Store) Ticks() int { return st.ticks }

// Series returns the stored series in first-seen order (the live
// slice; callers must not mutate).
func (st *Store) Series() []*Series { return st.series }

// Lookup finds the series with the given name whose labels include
// every key=value in sel (nil sel matches the first series of that
// name), in first-seen order; nil if none.
func (st *Store) Lookup(name string, sel map[string]string) *Series {
	for _, s := range st.series {
		if s.Name == name && labelsMatch(s.Labels, sel) {
			return s
		}
	}
	return nil
}

func labelsMatch(have, sel map[string]string) bool {
	for k, v := range sel {
		if have[k] != v {
			return false
		}
	}
	return true
}

func (st *Store) get(name, kind string, labels []metrics.Label) *Series {
	key := seriesKey(name, labels)
	if s, ok := st.byKey[key]; ok {
		return s
	}
	s := &Series{Name: name, Kind: kind, key: key}
	if len(labels) > 0 {
		s.Labels = make(map[string]string, len(labels))
		for _, l := range labels {
			s.Labels[l.Key] = l.Value
		}
	}
	st.byKey[key] = s
	st.series = append(st.series, s)
	return s
}

// resolve finds the series visited at position pos of a Registry.Visit
// walk: the cached one when its name and labels still match (a series
// registered mid-run shifts the positions after it), else by key.
func (st *Store) resolve(pos int, v *metrics.SeriesView) *Series {
	if pos < len(st.visited) {
		if s := st.visited[pos]; s.Name == v.Name && sameLabels(s.Labels, v.Labels) {
			return s
		}
	}
	s := st.get(v.Name, v.Kind, v.Labels)
	if pos < len(st.visited) {
		st.visited[pos] = s
	} else {
		st.visited = append(st.visited, s)
	}
	return s
}

func sameLabels(have map[string]string, labels []metrics.Label) bool {
	if len(have) != len(labels) {
		return false
	}
	for _, l := range labels {
		if v, ok := have[l.Key]; !ok || v != l.Value {
			return false
		}
	}
	return true
}

func (s *Series) push(w Window, depth int) {
	if len(s.Windows) >= depth {
		drop := len(s.Windows) - depth + 1
		s.Windows = append(s.Windows[:0], s.Windows[drop:]...)
		s.FirstTick += drop
	}
	s.Windows = append(s.Windows, w)
}

// Scrape samples every series in reg into one new window per series,
// stamped with the current virtual time. A series first seen mid-run
// gets its whole cumulative value as the first window's delta. Pure
// observation: the registry is only read.
func (st *Store) Scrape(reg *metrics.Registry, now clock.Time) {
	tick := st.ticks
	st.ticks++
	atNs := int64(now / clock.Nanosecond)
	pos := 0
	reg.Visit(func(v *metrics.SeriesView) {
		s := st.resolve(pos, v)
		pos++
		w := Window{Tick: tick, AtNs: atNs}
		switch v.Kind {
		case "counter":
			total := float64(v.Counter)
			w.Total = total
			w.Delta = total - s.prevTotal
			s.prevTotal = total
		case "gauge":
			w.Value = v.Value
		case "histogram":
			if s.prevCounts == nil {
				s.prevCounts = make([]uint64, len(v.Counts))
				s.deltas = make([]uint64, len(v.Counts))
				s.bounds = v.Bounds
			}
			deltas := s.deltas
			for i, c := range v.Counts {
				deltas[i] = c - s.prevCounts[i]
				s.prevCounts[i] = c
			}
			infDelta := v.Inf - s.prevInf
			s.prevInf = v.Inf
			w.Count = v.Count - s.prevN
			s.prevN = v.Count
			w.Total = float64(v.Count)
			if w.Count > 0 {
				w.P50Ns = WindowQuantile(v.Bounds, deltas, infDelta, 0.5)
				w.P99Ns = WindowQuantile(v.Bounds, deltas, infDelta, 0.99)
			}
		}
		s.push(w, st.Depth)
	})
}

// WindowQuantile estimates the q-th quantile (0 < q <= 1), in
// nanoseconds, of the histogram samples that landed in one scrape
// window, given the per-bucket count deltas for that window. The
// estimate interpolates linearly inside the containing bucket
// (Prometheus histogram_quantile semantics); a rank landing in the
// +Inf bucket reports the highest finite bound. Zero samples yield 0.
func WindowQuantile(bounds []int64, deltas []uint64, infDelta uint64, q float64) float64 {
	var total uint64
	for _, d := range deltas {
		total += d
	}
	total += infDelta
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// rank = ceil(q * total), in 1..total, with integer math.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	lo := float64(0)
	for i, d := range deltas {
		if rank <= cum+d {
			up := float64(bounds[i])
			if d == 0 {
				return up
			}
			return lo + (up-lo)*float64(rank-cum)/float64(d)
		}
		cum += d
		lo = float64(bounds[i])
	}
	// Landed in the +Inf bucket: the best bounded answer is the
	// highest finite bound.
	if len(bounds) == 0 {
		return 0
	}
	return float64(bounds[len(bounds)-1])
}

// Merge folds src into st: series register in src's first-seen order
// and their windows append after st's. Merging per-cell stores in the
// fixed sequential cell order therefore reproduces the series order
// and bytes a single sequential store would have. The intervals must
// agree.
func (st *Store) Merge(src *Store) {
	if src == nil {
		return
	}
	if st.Interval != src.Interval {
		panic(fmt.Sprintf("telemetry: Merge interval mismatch: %v vs %v", st.Interval, src.Interval))
	}
	for _, ss := range src.series {
		ds, ok := st.byKey[ss.key]
		if !ok {
			ds = &Series{Name: ss.Name, Kind: ss.Kind, Labels: ss.Labels,
				FirstTick: ss.FirstTick, key: ss.key}
			st.byKey[ss.key] = ds
			st.series = append(st.series, ds)
		}
		for _, w := range ss.Windows {
			ds.push(w, st.Depth)
		}
	}
	if src.ticks > st.ticks {
		st.ticks = src.ticks
	}
}

// Export is the JSON-ready snapshot of a store.
type Export struct {
	IntervalNs int64     `json:"interval_ns"`
	Depth      int       `json:"depth"`
	Ticks      int       `json:"ticks"`
	Series     []*Series `json:"series"`
}

// Export snapshots the store for JSON rendering.
func (st *Store) Export() *Export {
	series := st.series
	if series == nil {
		series = []*Series{}
	}
	return &Export{
		IntervalNs: int64(st.Interval / clock.Nanosecond),
		Depth:      st.Depth,
		Ticks:      st.ticks,
		Series:     series,
	}
}

// JSON renders the export as deterministic indented JSON.
func (e *Export) JSON() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}
