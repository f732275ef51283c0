// Package trace records what the simulated machine did, in virtual
// time: hierarchical phase spans of guest-kernel and monitor flows
// (SpanRecorder; folded, ranked and exported as Chrome traces) and the
// fleet's per-request segment waterfalls (RequestRecorder). Recording
// never advances the clock, so traced and untraced runs take
// byte-identical virtual time.
package trace

import (
	"encoding/json"
	"sort"

	"repro/internal/clock"
)

// Span is one closed phase of a flow: a syscall, one of its gate legs,
// a PKRS write, an IPI leg, a remote TLB flush. Spans nest: Parent is
// the index of the enclosing span, or -1 for a root. Durations are
// virtual time, so two runs of the same seeded workload produce
// byte-identical span lists.
type Span struct {
	ID     int        `json:"id"`
	Parent int        `json:"parent"`
	Phase  string     `json:"phase"`
	At     clock.Time `json:"at"`
	Dur    clock.Time `json:"dur"`
	VCPU   int        `json:"vcpu"`
	PID    int        `json:"pid"`
	// Node is the fleet node the span ran on, 0 outside the fleet
	// layer. Omitted when zero, so single-machine span output is
	// byte-identical to what it was before nodes existed.
	Node int `json:"node,omitempty"`
	// Async marks spans that model concurrent activity (a remote
	// vCPU servicing an IPI) and therefore do not consume initiator
	// time: folds and sum checks skip them.
	Async bool `json:"async,omitempty"`
}

// SpanRecorder collects hierarchical spans against a virtual clock.
// A nil *SpanRecorder is a valid no-op recorder, and no method ever
// advances the clock, so enabling or disabling tracing never changes
// a flow's virtual cost.
type SpanRecorder struct {
	Clk *clock.Clock
	// Runtime and Container label every span produced through this
	// recorder when exported. Node, when non-zero, stamps every span
	// with the fleet node identity (1-based; 0 = not part of a fleet).
	Runtime   string
	Container int
	Node      int
	// VCPUFn and PIDFn, when set, supply the current vCPU and PID at
	// Begin time (the guest kernel installs them).
	VCPUFn func() int
	PIDFn  func() int

	// spans holds the retained spans; spans[0] has ID base. Trim
	// advances base, so IDs, Parent links and Len keep counting as if
	// nothing had been dropped.
	spans []Span
	stack []int
	base  int
}

// NewSpanRecorder creates a recorder reading timestamps from clk.
func NewSpanRecorder(clk *clock.Clock) *SpanRecorder {
	return &SpanRecorder{Clk: clk}
}

// Begin opens a span under the innermost open span and returns its ID.
// On a nil recorder it returns -1.
func (r *SpanRecorder) Begin(phase string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := r.base + len(r.spans)
	s := Span{ID: id, Parent: parent, Phase: phase, At: r.Clk.Now(), Node: r.Node}
	if r.VCPUFn != nil {
		s.VCPU = r.VCPUFn()
	}
	if r.PIDFn != nil {
		s.PID = r.PIDFn()
	}
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, id)
	return id
}

// End closes the span with the given ID (and, defensively, anything
// opened after it that was left open). No-op on a nil recorder or a
// negative ID.
func (r *SpanRecorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := r.Clk.Now()
	for len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		s := &r.spans[top-r.base]
		s.Dur = now - s.At
		if top == id {
			return
		}
	}
}

// EmitAt records an already-closed span with explicit timing, used for
// async activity (remote shootdown service) whose wall placement is
// known but which did not run on the recording vCPU. parent may be -1
// or the ID of an open or closed span. Returns the new span's ID.
func (r *SpanRecorder) EmitAt(phase string, at, dur clock.Time, vcpu, parent int) int {
	if r == nil {
		return -1
	}
	id := r.base + len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Phase: phase, At: at, Dur: dur,
		VCPU: vcpu, Node: r.Node, Async: true,
	})
	return id
}

// Spans returns the retained spans in creation order (a copy): every
// span since the last Trim.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return append([]Span(nil), r.spans...)
}

// SpansFrom returns the retained spans with ID n and later as a
// read-only view of the recorder's buffer, valid until the next Begin,
// EmitAt, Trim or Reset: a caller that keeps spans copies them.
// Telemetry pollers use it as an incremental cursor: remember Len(),
// then read only what arrived since.
func (r *SpanRecorder) SpansFrom(n int) []Span {
	if r == nil {
		return nil
	}
	n = max(n, r.base)
	if n >= r.Len() {
		return nil
	}
	return r.spans[n-r.base:]
}

// Len reports the number of spans ever recorded, trimmed ones included:
// it is the ID the next span will get.
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	return r.base + len(r.spans)
}

// Trim drops every retained span older than the oldest still-open one,
// keeping the buffer's capacity, so a long run whose readers only poll
// new spans (the SpansFrom view with a Len cursor) records in bounded
// memory.
// IDs, Parent links and Len are unaffected: a trimmed recorder yields
// exactly the spans an untrimmed one would from the cursor on.
func (r *SpanRecorder) Trim() {
	if r == nil {
		return
	}
	keep := r.Len()
	if len(r.stack) > 0 {
		keep = r.stack[0] // the stack holds open IDs in ascending order
	}
	r.spans = r.spans[:copy(r.spans, r.spans[keep-r.base:])]
	r.base = keep
}

// Reserve ensures room for n more spans without reallocating, so a
// steady-state recording loop can run allocation-free.
func (r *SpanRecorder) Reserve(n int) {
	if r == nil || cap(r.spans)-len(r.spans) >= n {
		return
	}
	grown := make([]Span, len(r.spans), len(r.spans)+n)
	copy(grown, r.spans)
	r.spans = grown
}

// Reset drops all recorded spans and open state.
func (r *SpanRecorder) Reset() {
	if r == nil {
		return
	}
	r.spans = r.spans[:0]
	r.stack = r.stack[:0]
	r.base = 0
}

// SpansJSON renders spans as deterministic indented JSON.
func SpansJSON(spans []Span) ([]byte, error) {
	if spans == nil {
		spans = []Span{}
	}
	return json.MarshalIndent(spans, "", "  ")
}

// RootTotal sums the durations of non-async root spans — the total
// attributed virtual time of the recorded flows.
func RootTotal(spans []Span) clock.Time {
	var total clock.Time
	for _, s := range spans {
		if s.Parent == -1 && !s.Async {
			total += s.Dur
		}
	}
	return total
}

// RootsIn returns the non-async root spans fully inside [lo, hi).
func RootsIn(spans []Span, lo, hi clock.Time) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == -1 && !s.Async && s.At >= lo && s.At+s.Dur <= hi {
			out = append(out, s)
		}
	}
	return out
}

// StartsIn reports whether the span's start time falls in
// [since, until]; until == 0 means unbounded above. It is the window
// behind ckitrace -since/-until and the flight-recorder dump path.
func (s *Span) StartsIn(since, until clock.Time) bool {
	return s.At >= since && (until == 0 || s.At <= until)
}

// FilterSpans returns the spans that start in [since, until] (see
// StartsIn), in order, in a slice sized exactly.
func FilterSpans(spans []Span, since, until clock.Time) []Span {
	n := 0
	for i := range spans {
		if spans[i].StartsIn(since, until) {
			n++
		}
	}
	out := make([]Span, 0, n)
	for i := range spans {
		if spans[i].StartsIn(since, until) {
			out = append(out, spans[i])
		}
	}
	return out
}

// PhaseSet returns the sorted set of distinct phase names.
func PhaseSet(spans []Span) []string {
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Phase] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
