package telemetry

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// refFlight is the flight recorder as it was before its rings: slices
// appended to on every Poll and shifted back to their depth. The ring
// implementation must be indistinguishable from it.
type refFlight struct {
	Node    int
	Runtime string

	SpanDepth  int
	EventDepth int

	spans   []trace.Span
	events  []audit.Event
	spanCur int
	evCur   int
}

func refTrimSpans(s []trace.Span, depth int) []trace.Span {
	if len(s) > depth {
		return append(s[:0], s[len(s)-depth:]...)
	}
	return s
}

func refTrimEvents(s []audit.Event, depth int) []audit.Event {
	if len(s) > depth {
		return append(s[:0], s[len(s)-depth:]...)
	}
	return s
}

// refEventsFrom is the copying cursor read the reference polled
// through.
func refEventsFrom(r *audit.Recorder, n int) []audit.Event {
	if r == nil || n >= r.Len() {
		return nil
	}
	if n < 0 {
		n = 0
	}
	return append([]audit.Event(nil), r.View()[n:]...)
}

func (f *refFlight) Poll(sr *trace.SpanRecorder, ar *audit.Recorder) {
	if f == nil {
		return
	}
	if sr != nil {
		f.spans = append(f.spans, sr.SpansFrom(f.spanCur)...)
		f.spanCur = sr.Len()
		f.spans = refTrimSpans(f.spans, f.SpanDepth)
	}
	if ar != nil {
		f.events = append(f.events, refEventsFrom(ar, f.evCur)...)
		f.evCur = ar.Len()
		f.events = refTrimEvents(f.events, f.EventDepth)
	}
}

func (f *refFlight) Dump(reason string, at clock.Time, alert *Alert, st *Store, radius int) *Bundle {
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
	if f != nil {
		b.Spans = trace.FilterSpans(f.spans, since, at)
		for _, e := range f.events {
			if e.At < since || e.At > at {
				continue
			}
			b.Events = append(b.Events, BundleEvent{
				AtPs: int64(e.At), Kind: e.Kind.String(),
				VCPU: int(e.VCPU), Detail: e.Detail(),
			})
		}
	}
	if b.Spans == nil {
		b.Spans = []trace.Span{}
	}
	if b.Events == nil {
		b.Events = []BundleEvent{}
	}
	return b
}

// TestFlightRecorderMatchesReference drives the ring recorder and the
// slice-and-trim reference through the same random history — Poll
// batches of 0, 1, depth-1, depth and 3×depth entries, spans held open
// across polls, SpanRecorder.Trim between them — and requires equal
// ring contents after every Poll and equal bundles from every Dump at
// random instants and radii.
func TestFlightRecorderMatchesReference(t *testing.T) {
	for _, depth := range []int{1, 2, 5, 8, 64} {
		rng := rand.New(rand.NewSource(int64(depth)))
		clk := &clock.Clock{}
		sr := trace.NewSpanRecorder(clk)
		ar := audit.NewRecorder(clk)
		fr := NewFlightRecorder(depth, 2*depth)
		ref := &refFlight{SpanDepth: depth, EventDepth: 2 * depth}
		fr.Node, fr.Runtime = 2, "cki"
		ref.Node, ref.Runtime = 2, "cki"
		reg := metrics.NewRegistry()
		c := reg.Counter("polls_total", "")
		st := NewStore(4*clock.Nanosecond, 16)
		batches := []int{0, 1, depth - 1, depth, 3 * depth}
		held := -1
		for step := 0; step < 300; step++ {
			for n := batches[rng.Intn(len(batches))]; n > 0; n-- {
				id := sr.Begin("op")
				clk.Advance(clock.Time(rng.Intn(3)))
				if rng.Intn(4) == 0 {
					sr.EmitAt("remote", clk.Now()-clock.Time(rng.Intn(5)), 1, 1, id)
				}
				sr.End(id)
			}
			for n := batches[rng.Intn(len(batches))]; n > 0; n-- {
				ar.Emit(audit.EvSyscall, rng.Intn(4), 0x101, uint64(step), uint64(n), 0)
				clk.Advance(clock.Time(rng.Intn(2)))
			}
			switch {
			case held < 0 && rng.Intn(8) == 0:
				held = sr.Begin("held")
			case held >= 0 && rng.Intn(4) == 0:
				sr.End(held)
				held = -1
			}
			if rng.Intn(3) == 0 {
				sr.Trim()
			}
			fr.Poll(sr, ar)
			ref.Poll(sr, ar)
			if !reflect.DeepEqual(fr.Spans(), ref.spans) || !reflect.DeepEqual(fr.Events(), ref.events) {
				t.Fatalf("depth %d step %d: rings diverged:\n spans %+v\n  want %+v\nevents %+v\n  want %+v",
					depth, step, fr.Spans(), ref.spans, fr.Events(), ref.events)
			}
			c.Inc()
			st.Scrape(reg, clk.Now())
			if rng.Intn(4) == 0 {
				at := clock.Time(0)
				if rng.Intn(6) != 0 {
					at = clock.Time(rng.Int63n(int64(clk.Now()) + 1))
				}
				radius := rng.Intn(5)
				got, want := fr.Dump("watchdog", at, nil, st, radius), ref.Dump("watchdog", at, nil, st, radius)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("depth %d step %d: Dump(at %d, radius %d) diverged:\n got %+v\nwant %+v",
						depth, step, at, radius, got, want)
				}
			}
		}
	}
}
