// Package metrics is a deterministic, dependency-free metrics registry
// for the simulator: typed counters, gauges, and virtual-time
// histograms with label sets, a Prometheus-style text exposition, and
// a JSON snapshot. All observed times come from the virtual clock and
// all output is sorted, so two runs of the same seeded workload emit
// byte-identical artifacts. A nil registry or instrument is a valid
// no-op, and no method ever advances the clock, so disabled metrics
// cost zero virtual cycles.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/clock"
)

// Label is one key=value dimension on a series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// NodeLabel is the fleet node identity label (1-based node IDs). Every
// series a fleet node emits carries it, so fleet-wide snapshots fold
// and split per node; single-machine code never attaches it, keeping
// pre-fleet metric output byte-identical.
func NodeLabel(id int) Label { return L("node", IntStr(id)) }

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	// Nearly every call site passes labels already in key order; skip
	// the defensive copy then. (Retaining the caller's slice is safe:
	// the registry's variadic entry points hand us a fresh slice.)
	sorted := true
	for i := 1; i < len(labels); i++ {
		if labels[i-1].Key > labels[i].Key {
			sorted = false
			break
		}
	}
	if sorted {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// smallInts interns the decimal strings hot label paths need (vCPU
// IDs, PCIDs, small counts) so building a label never allocates for
// common values.
var smallInts [1024]string

func init() {
	for i := range smallInts {
		smallInts[i] = fmt.Sprintf("%d", i)
	}
}

// IntStr returns the decimal rendering of n, interned for small
// non-negative values. Use it instead of fmt.Sprintf/strconv on label
// construction paths.
func IntStr(n int) string {
	if n >= 0 && n < len(smallInts) {
		return smallInts[n]
	}
	return fmt.Sprintf("%d", n)
}

type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name   string
	help   string
	kind   familyKind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families in creation order. The zero value is
// not usable; call NewRegistry. A nil *Registry hands out nil
// instruments, which are valid no-ops.
type Registry struct {
	families []*family
	byName   map[string]*family
	// view is the scratch Visit refills for each series.
	view SeriesView
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind familyKind) *family {
	f, ok := r.byName[name]
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s and %s",
				name, kindNames[f.kind], kindNames[kind]))
		}
		return f
	}
	f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) get(labels []Label) *series {
	labels = sortLabels(labels)
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: labels}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter is a monotonically increasing uint64. Nil-safe.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ v float64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// exemplar is the last (request id, value) pair a bucket observed,
// retained only when the histogram opted in via EnableExemplars.
type exemplar struct {
	id  uint64
	val clock.Time
	set bool
}

// Histogram is a virtual-time latency distribution with fixed
// nanosecond upper bounds. Nil-safe.
type Histogram struct {
	bounds []int64 // ns, ascending
	counts []uint64
	inf    uint64
	sum    clock.Time
	n      uint64
	// ex holds per-bucket exemplars; non-nil doubles as the opt-in
	// flag. infEx is the +Inf bucket's exemplar.
	ex    []exemplar
	infEx exemplar
}

// DefaultLatencyBuckets covers the simulator's flow latencies
// (hundreds of ns to tens of µs), in nanoseconds.
var DefaultLatencyBuckets = []int64{
	64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
}

// bucket returns the index of the bucket d falls in, len(bounds) for
// +Inf. Compared in picoseconds with integer math — float conversion
// here could round a boundary sample into the wrong bucket.
func (h *Histogram) bucket(d clock.Time) int {
	ps := int64(d)
	for i, ub := range h.bounds {
		if ps <= ub*1000 {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d clock.Time) {
	if h == nil {
		return
	}
	h.sum += d
	h.n++
	if i := h.bucket(d); i < len(h.counts) {
		h.counts[i]++
	} else {
		h.inf++
	}
}

// EnableExemplars opts the histogram into retaining, per bucket, the
// last request ID and value observed through ObserveExemplar. Off by
// default: a histogram that never opts in renders byte-identically to
// one that predates exemplars (a golden test pins this).
func (h *Histogram) EnableExemplars() {
	if h != nil && h.ex == nil {
		h.ex = make([]exemplar, len(h.bounds))
	}
}

// ObserveExemplar records one latency sample attributed to a request
// ID. On a histogram that has not opted in (or with id 0, the reserved
// "no request" value) it degrades to a plain Observe, so callers can
// pass IDs unconditionally.
func (h *Histogram) ObserveExemplar(d clock.Time, id uint64) {
	if h == nil {
		return
	}
	h.sum += d
	h.n++
	i := h.bucket(d)
	if i < len(h.counts) {
		h.counts[i]++
	} else {
		h.inf++
	}
	if h.ex == nil || id == 0 {
		return
	}
	e := exemplar{id: id, val: d, set: true}
	if i < len(h.ex) {
		h.ex[i] = e
	} else {
		h.infEx = e
	}
}

// Exemplar is one bucket's retained (request, value) pair.
type Exemplar struct {
	// BucketNs is the bucket's upper bound in nanoseconds, -1 for the
	// +Inf bucket.
	BucketNs int64
	ID       uint64
	Value    clock.Time
}

// Exemplars returns the recorded exemplars in bucket order, +Inf last;
// nil when the histogram never opted in or recorded none.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil || h.ex == nil {
		return nil
	}
	var out []Exemplar
	for i, e := range h.ex {
		if e.set {
			out = append(out, Exemplar{BucketNs: h.bounds[i], ID: e.id, Value: e.val})
		}
	}
	if h.infEx.set {
		out = append(out, Exemplar{BucketNs: -1, ID: h.infEx.id, Value: h.infEx.val})
	}
	return out
}

// Count returns the number of samples (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total observed virtual time (0 on nil).
func (h *Histogram) Sum() clock.Time {
	if h == nil {
		return 0
	}
	return h.sum
}

// Counter registers (or finds) a counter series. Nil-safe: a nil
// registry returns a nil counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.family(name, help, kindCounter).get(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.family(name, help, kindGauge).get(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or finds) a histogram series with the given
// nanosecond bucket bounds (DefaultLatencyBuckets if nil).
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.family(name, help, kindHistogram).get(labels)
	if s.h == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		s.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
	}
	return s.h
}

// Merge folds src into r. Families register in src's creation order —
// so merging per-cell registries in the fixed sequential cell order
// reproduces the family order a single sequential registry would have —
// and series accumulate: counters add, gauges adopt src's value,
// histograms add bucket counts, sums, and sample counts. Bucket bounds
// must agree (same instrument definitions on both sides).
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	for _, sf := range src.families {
		df := r.family(sf.name, sf.help, sf.kind)
		for _, ss := range sf.series {
			ds := df.get(ss.labels)
			switch sf.kind {
			case kindCounter:
				if ss.c != nil {
					if ds.c == nil {
						ds.c = &Counter{}
					}
					ds.c.v += ss.c.v
				}
			case kindGauge:
				if ss.g != nil {
					if ds.g == nil {
						ds.g = &Gauge{}
					}
					ds.g.v = ss.g.v
				}
			case kindHistogram:
				if ss.h == nil {
					continue
				}
				if ds.h == nil {
					ds.h = &Histogram{
						bounds: ss.h.bounds,
						counts: make([]uint64, len(ss.h.bounds)),
					}
				}
				if len(ds.h.counts) != len(ss.h.counts) {
					panic(fmt.Sprintf("metrics: Merge %s: bucket count mismatch (%d vs %d)",
						sf.name, len(ds.h.counts), len(ss.h.counts)))
				}
				for i, c := range ss.h.counts {
					ds.h.counts[i] += c
				}
				ds.h.inf += ss.h.inf
				ds.h.sum += ss.h.sum
				ds.h.n += ss.h.n
				if ss.h.ex != nil {
					// Adopt src's exemplars per set bucket; merging
					// cells in the fixed sequential order makes "last
					// writer" deterministic.
					if ds.h.ex == nil {
						ds.h.ex = make([]exemplar, len(ds.h.counts))
					}
					for i, e := range ss.h.ex {
						if e.set {
							ds.h.ex[i] = e
						}
					}
					if ss.h.infEx.set {
						ds.h.infEx = ss.h.infEx
					}
				}
			}
		}
	}
}

// SeriesView is a read-only view of one live series handed to Visit
// callbacks. Exactly one of the value groups is meaningful, selected by
// Kind: counters expose Counter, gauges Value, histograms the bucket
// fields. Bounds and Counts alias registry-owned storage — callers must
// copy before retaining or mutating.
type SeriesView struct {
	Name   string
	Kind   string // "counter" | "gauge" | "histogram"
	Labels []Label

	Counter uint64  // counter value
	Value   float64 // gauge value

	Bounds []int64    // histogram bucket upper bounds, ns
	Counts []uint64   // per-bucket counts (not cumulative)
	Inf    uint64     // +Inf bucket count
	Sum    clock.Time // total observed virtual time
	Count  uint64     // total samples
}

// Visit walks every series in family creation order, series in
// registration order within a family. The iteration order is
// deterministic for a deterministic workload, which is what lets a
// telemetry scraper assign stable series identities without sorting.
// Every call of fn gets the same view, refilled per series: it is valid
// only during that call, and fn must not retain the pointer. (The view
// lives in the registry, which, like its instruments, is not safe for
// concurrent use.) Nil-safe: visiting a nil registry is a no-op.
func (r *Registry) Visit(fn func(*SeriesView)) {
	if r == nil {
		return
	}
	v := &r.view
	for _, f := range r.families {
		v.Name, v.Kind = f.name, kindNames[f.kind]
		for _, s := range f.series {
			v.Labels = s.labels
			v.Counter, v.Value = 0, 0
			v.Bounds, v.Counts, v.Inf, v.Sum, v.Count = nil, nil, 0, 0, 0
			switch f.kind {
			case kindCounter:
				v.Counter = s.c.Value()
			case kindGauge:
				v.Value = s.g.Value()
			case kindHistogram:
				if s.h != nil {
					v.Bounds, v.Counts = s.h.bounds, s.h.counts
					v.Inf, v.Sum, v.Count = s.h.inf, s.h.sum, s.h.n
				}
			}
			fn(v)
		}
	}
}

// fmtNanos renders picoseconds as a decimal nanosecond literal with
// three fractional digits, integer math only.
func fmtNanos(ps int64) string {
	neg := ""
	if ps < 0 {
		neg, ps = "-", -ps
	}
	return fmt.Sprintf("%s%d.%03d", neg, ps/1000, ps%1000)
}

func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteProm writes the registry in Prometheus text exposition format.
// Families appear in creation order; series are sorted by label key,
// so the output is byte-stable.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, f.help, f.name, kindNames[f.kind]); err != nil {
			return err
		}
		srs := append([]*series(nil), f.series...)
		sort.Slice(srs, func(i, j int) bool {
			return labelKey(srs[i].labels) < labelKey(srs[j].labels)
		})
		for _, s := range srs {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %g\n", f.name, promLabels(s.labels), s.g.Value())
			case kindHistogram:
				// exSuffix renders the OpenMetrics-style exemplar tail
				// of a bucket line; empty unless the histogram opted in
				// and the bucket holds one, so exemplar-free output is
				// byte-identical to the pre-exemplar format.
				exSuffix := func(e exemplar) string {
					if !e.set {
						return ""
					}
					return fmt.Sprintf(" # {request_id=\"%016x\"} %s", e.id, fmtNanos(int64(e.val)))
				}
				var cum uint64
				for i, ub := range s.h.bounds {
					cum += s.h.counts[i]
					var ex exemplar
					if s.h.ex != nil {
						ex = s.h.ex[i]
					}
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
						promLabels(s.labels, L("le", fmt.Sprintf("%d", ub))), cum, exSuffix(ex)); err != nil {
						return err
					}
				}
				cum += s.h.inf
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
					promLabels(s.labels, L("le", "+Inf")), cum, exSuffix(s.h.infEx)); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
					promLabels(s.labels), fmtNanos(int64(s.h.sum))); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(s.labels), s.h.n)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesSnapshot is one series in a JSON snapshot. encoding/json sorts
// the Labels map keys, keeping the bytes deterministic.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	SumNs  *int64            `json:"sum_ns,omitempty"`
	Bounds []int64           `json:"buckets_ns,omitempty"`
	Counts []uint64          `json:"bucket_counts,omitempty"`
	Inf    *uint64           `json:"inf_count,omitempty"`
	// Exemplars appears only on histograms that opted in and recorded
	// at least one, so exemplar-free snapshots keep their exact bytes.
	Exemplars []ExemplarSnapshot `json:"exemplars,omitempty"`
}

// ExemplarSnapshot is one bucket exemplar in a JSON snapshot.
type ExemplarSnapshot struct {
	// BucketNs is the bucket upper bound in nanoseconds, -1 for +Inf.
	BucketNs  int64  `json:"bucket_ns"`
	RequestID string `json:"request_id"`
	ValueNs   int64  `json:"value_ns"`
}

// FamilySnapshot is one metric family in a JSON snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Help   string           `json:"help"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is the full registry state, JSON-ready.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Snapshot captures the registry for JSON export.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Families: []FamilySnapshot{}}
	if r == nil {
		return snap
	}
	for _, f := range r.families {
		fs := FamilySnapshot{Name: f.name, Kind: kindNames[f.kind], Help: f.help,
			Series: []SeriesSnapshot{}}
		srs := append([]*series(nil), f.series...)
		sort.Slice(srs, func(i, j int) bool {
			return labelKey(srs[i].labels) < labelKey(srs[j].labels)
		})
		for _, s := range srs {
			ss := SeriesSnapshot{}
			if len(s.labels) > 0 {
				ss.Labels = map[string]string{}
				for _, l := range s.labels {
					ss.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				v := float64(s.c.Value())
				ss.Value = &v
			case kindGauge:
				v := s.g.Value()
				ss.Value = &v
			case kindHistogram:
				n := s.h.n
				sum := int64(s.h.sum) / 1000
				inf := s.h.inf
				ss.Count = &n
				ss.SumNs = &sum
				ss.Bounds = s.h.bounds
				ss.Counts = s.h.counts
				ss.Inf = &inf
				for _, e := range s.h.Exemplars() {
					ss.Exemplars = append(ss.Exemplars, ExemplarSnapshot{
						BucketNs:  e.BucketNs,
						RequestID: fmt.Sprintf("%016x", e.ID),
						ValueNs:   int64(e.Value) / 1000,
					})
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// JSON renders the snapshot as deterministic indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
