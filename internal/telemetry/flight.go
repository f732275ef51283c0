package telemetry

import (
	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/trace"
)

// The flight recorder: a bounded ring of the most recent spans and
// audit records, polled incrementally from the live recorders, that
// can dump a postmortem bundle — the time-series windows, spans, and
// audit tail around an instant — the moment an alert fires or the
// supervisor watchdog declares a container dead. Bounded memory makes
// it safe to leave attached for a whole fleet run; determinism makes
// the dumped bundle a committed-artifact candidate.

// FlightRecorder keeps the last SpanDepth spans and EventDepth audit
// events seen through Poll, in two fixed-capacity rings.
type FlightRecorder struct {
	// Node and Runtime label every bundle this recorder dumps.
	Node    int
	Runtime string

	// SpanDepth and EventDepth are the ring capacities; they are fixed
	// once the first Poll has run.
	SpanDepth  int
	EventDepth int

	spans   ring[trace.Span]
	events  ring[audit.Event]
	spanCur int
	evCur   int
}

// Default flight-recorder ring depths.
const (
	DefaultSpanDepth  = 4096
	DefaultEventDepth = 8192
)

// NewFlightRecorder creates a recorder with the given ring depths
// (defaults when <= 0).
func NewFlightRecorder(spanDepth, eventDepth int) *FlightRecorder {
	if spanDepth <= 0 {
		spanDepth = DefaultSpanDepth
	}
	if eventDepth <= 0 {
		eventDepth = DefaultEventDepth
	}
	return &FlightRecorder{SpanDepth: spanDepth, EventDepth: eventDepth}
}

// ring is a FIFO of at most depth entries in one slab, allocated by
// the first push: it fills the slab, then each push overwrites the
// oldest entries in place.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry once the ring is full
}

// push adds the newest min(len(src), depth) entries of src.
func (r *ring[T]) push(src []T, depth int) {
	if len(src) == 0 {
		return
	}
	if r.buf == nil {
		r.buf = make([]T, 0, depth)
	}
	if len(src) > depth {
		src = src[len(src)-depth:]
	}
	if room := depth - len(r.buf); room > 0 {
		n := min(room, len(src))
		r.buf = append(r.buf, src[:n]...)
		src = src[n:]
	}
	for len(src) > 0 {
		n := copy(r.buf[r.head:], src)
		src = src[n:]
		r.head = (r.head + n) % depth
	}
}

// halves returns the ring's contents in order as two views: the
// older entries, then the newer.
func (r *ring[T]) halves() (older, newer []T) {
	return r.buf[r.head:], r.buf[:r.head]
}

// contents returns a copy of the ring's contents, oldest first; nil
// while the ring is empty.
func (r *ring[T]) contents() []T {
	older, newer := r.halves()
	return append(append([]T(nil), older...), newer...)
}

// Poll copies everything recorded since the last Poll into the rings,
// reading the recorders' retained entries in place. Either recorder
// may be nil. Pure observation: the sources are only read, and nothing
// advances any clock.
func (f *FlightRecorder) Poll(sr *trace.SpanRecorder, ar *audit.Recorder) {
	if f == nil {
		return
	}
	if sr != nil {
		f.spans.push(sr.SpansFrom(f.spanCur), f.SpanDepth)
		f.spanCur = sr.Len()
	}
	if ar != nil {
		if ev := ar.View(); f.evCur < len(ev) {
			f.events.push(ev[f.evCur:], f.EventDepth)
		}
		f.evCur = ar.Len()
	}
}

// Spans returns a copy of the span ring's contents (oldest first).
func (f *FlightRecorder) Spans() []trace.Span { return f.spans.contents() }

// Events returns a copy of the audit ring's contents (oldest first).
func (f *FlightRecorder) Events() []audit.Event { return f.events.contents() }

// BundleEvent is one audit record rendered for a bundle.
type BundleEvent struct {
	AtPs   int64  `json:"at_ps"`
	Kind   string `json:"kind"`
	VCPU   int    `json:"vcpu"`
	Detail string `json:"detail"`
}

// Bundle is a postmortem capture around one instant: why it was
// taken, the alert (if one triggered it), the time-series windows
// leading up to it, and the span and audit tails from the rings.
type Bundle struct {
	// Reason is "alert" (a burn-rate rule fired) or "watchdog" (the
	// supervisor declared a container dead).
	Reason  string `json:"reason"`
	AtNs    int64  `json:"at_ns"`
	Node    int    `json:"node,omitempty"`
	Runtime string `json:"runtime,omitempty"`
	Alert   *Alert `json:"alert,omitempty"`
	// Series carries, per stored series, only the windows inside the
	// bundle's trailing capture range.
	Series []*Series     `json:"series"`
	Spans  []trace.Span  `json:"spans"`
	Events []BundleEvent `json:"events"`
}

// Dump captures a postmortem bundle at virtual time at: the last
// radius scrape windows of every series in st (nil st for none), plus
// the span and audit tails inside that same time range. reason is
// "alert" or "watchdog"; alert may be nil for watchdog dumps.
func (f *FlightRecorder) Dump(reason string, at clock.Time, alert *Alert, st *Store, radius int) *Bundle {
	b := &Bundle{
		Reason: reason,
		AtNs:   int64(at / clock.Nanosecond),
		Alert:  alert,
		Series: []*Series{},
	}
	if f != nil {
		b.Node = f.Node
		b.Runtime = f.Runtime
	}
	since := clock.Time(0)
	if st != nil && radius > 0 {
		if lo := at - clock.Time(radius)*st.Interval; lo > 0 {
			since = lo
		}
	}
	if st != nil {
		atNs := int64(at / clock.Nanosecond)
		sinceNs := int64(since / clock.Nanosecond)
		for _, s := range st.Series() {
			cut := &Series{Name: s.Name, Kind: s.Kind, Labels: s.Labels}
			for i, w := range s.Windows {
				if w.AtNs < sinceNs || w.AtNs > atNs {
					continue
				}
				if cut.Windows == nil {
					cut.FirstTick = s.FirstTick + i
				}
				cut.Windows = append(cut.Windows, w)
			}
			if cut.Windows != nil {
				b.Series = append(b.Series, cut)
			}
		}
	}
	b.Spans, b.Events = []trace.Span{}, []BundleEvent{}
	if f != nil {
		// The span window is the same one behind ckitrace -since/-until.
		b.Spans = collect(&f.spans, func(s *trace.Span) bool { return s.StartsIn(since, at) },
			func(s *trace.Span) trace.Span { return *s })
		b.Events = collect(&f.events, func(e *audit.Event) bool { return e.At >= since && e.At <= at },
			func(e *audit.Event) BundleEvent {
				return BundleEvent{AtPs: int64(e.At), Kind: e.Kind.String(), VCPU: int(e.VCPU), Detail: e.Detail()}
			})
	}
	return b
}

// collect converts the ring entries that keep accepts, oldest first,
// into a slice sized exactly.
func collect[T, U any](r *ring[T], keep func(*T) bool, conv func(*T) U) []U {
	older, newer := r.halves()
	n := 0
	for _, h := range [2][]T{older, newer} {
		for i := range h {
			if keep(&h[i]) {
				n++
			}
		}
	}
	out := make([]U, 0, n)
	for _, h := range [2][]T{older, newer} {
		for i := range h {
			if keep(&h[i]) {
				out = append(out, conv(&h[i]))
			}
		}
	}
	return out
}
