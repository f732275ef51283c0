package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
)

// A nil recorder is the disabled fast path: every method is a no-op and
// none of them may touch the clock.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *SpanRecorder
	if id := r.Begin("syscall"); id != -1 {
		t.Errorf("nil Begin = %d, want -1", id)
	}
	r.End(-1)
	r.End(7) // stale ID from an enabled phase must also be safe
	if id := r.EmitAt("remote", 10, 20, 1, -1); id != -1 {
		t.Errorf("nil EmitAt = %d, want -1", id)
	}
	if s := r.Spans(); s != nil {
		t.Errorf("nil Spans = %v, want nil", s)
	}
	if n := r.Len(); n != 0 {
		t.Errorf("nil Len = %d, want 0", n)
	}
	r.Reset()
}

// Recording must never advance the virtual clock: attaching a recorder
// costs exactly zero virtual cycles.
func TestRecordingAdvancesNoVirtualTime(t *testing.T) {
	clk := &clock.Clock{}
	clk.Advance(123)
	r := NewSpanRecorder(clk)
	id := r.Begin("syscall")
	inner := r.Begin("pt_switch")
	r.End(inner)
	r.End(id)
	r.EmitAt("shootdown_remote", 0, 50, 2, -1)
	if now := clk.Now(); now != 123 {
		t.Errorf("recording moved the clock to %d, want 123", now)
	}
}

func TestSpanNesting(t *testing.T) {
	clk := &clock.Clock{}
	r := NewSpanRecorder(clk)
	r.VCPUFn = func() int { return 3 }
	r.PIDFn = func() int { return 42 }

	outer := r.Begin("syscall")
	clk.Advance(10)
	inner := r.Begin("pt_switch")
	clk.Advance(5)
	r.End(inner)
	clk.Advance(3)
	r.End(outer)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	o, i := spans[0], spans[1]
	if o.Parent != -1 || o.Phase != "syscall" || o.At != 0 || o.Dur != 18 {
		t.Errorf("outer = %+v, want root syscall at 0 dur 18", o)
	}
	if i.Parent != o.ID || i.Phase != "pt_switch" || i.At != 10 || i.Dur != 5 {
		t.Errorf("inner = %+v, want child of %d at 10 dur 5", i, o.ID)
	}
	if o.VCPU != 3 || o.PID != 42 {
		t.Errorf("outer labels vcpu=%d pid=%d, want 3/42", o.VCPU, o.PID)
	}
	if o.Async || i.Async {
		t.Error("Begin/End spans must not be async")
	}
}

// Ending an outer span must defensively close anything left open under
// it, attributing the time to the abandoned child as recorded.
func TestEndClosesAbandonedChildren(t *testing.T) {
	clk := &clock.Clock{}
	r := NewSpanRecorder(clk)
	outer := r.Begin("syscall")
	r.Begin("gate_call")
	clk.Advance(7)
	r.End(outer)
	spans := r.Spans()
	if spans[1].Dur != 7 || spans[0].Dur != 7 {
		t.Errorf("durations = %v/%v, want 7/7", spans[0].Dur, spans[1].Dur)
	}
	// The stack must be empty again: a new span is a root.
	id := r.Begin("access")
	r.End(id)
	if got := r.Spans()[2].Parent; got != -1 {
		t.Errorf("post-recovery span parent = %d, want -1", got)
	}
}

func TestEmitAtIsAsync(t *testing.T) {
	clk := &clock.Clock{}
	r := NewSpanRecorder(clk)
	root := r.Begin("shootdown")
	clk.Advance(100)
	rs := r.EmitAt("shootdown_remote", 40, 30, 2, root)
	child := r.EmitAt("invlpg", 40, 10, 2, rs)
	r.End(root)

	spans := r.Spans()
	if !spans[rs].Async || !spans[child].Async {
		t.Error("EmitAt spans must be async")
	}
	if spans[child].Parent != rs || spans[rs].Parent != root {
		t.Error("EmitAt parent chain wrong")
	}
	// Async spans never count toward attributed root time.
	if got := RootTotal(spans); got != 100 {
		t.Errorf("RootTotal = %v, want 100 (async excluded)", got)
	}
}

// A trimmed recorder is indistinguishable from an untrimmed one through
// its cursor API: the same IDs, Parent links and Len, and the same
// SpansFrom answers for every cursor at or past the trim point, each a
// view of the recorder's own buffer rather than a copy. A span left
// open across a Trim is retained and closes with its full duration.
func TestTrimMatchesUntrimmed(t *testing.T) {
	full, trimmed := NewSpanRecorder(&clock.Clock{}), NewSpanRecorder(&clock.Clock{})
	both := func(f func(r *SpanRecorder) int) {
		t.Helper()
		if a, b := f(full), f(trimmed); a != b {
			t.Fatalf("recorders diverged: %d vs %d", a, b)
		}
	}
	cursor := 0
	var held int
	for round := 0; round < 12; round++ {
		if round%4 == 1 {
			both(func(r *SpanRecorder) int { return r.Begin("held") })
			held = full.Len() - 1
		}
		both(func(r *SpanRecorder) int {
			root := r.Begin("syscall")
			r.Clk.Advance(3)
			inner := r.Begin("gate_call")
			r.EmitAt("remote", r.Clk.Now(), 2, 1, inner)
			r.Clk.Advance(2)
			r.End(inner)
			r.End(root)
			return root
		})
		if round%4 == 2 {
			both(func(r *SpanRecorder) int { r.End(held); return r.Len() })
		}
		if full.Len() != trimmed.Len() {
			t.Fatalf("round %d: Len %d vs %d", round, full.Len(), trimmed.Len())
		}
		got, want := trimmed.SpansFrom(cursor), full.SpansFrom(cursor)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: SpansFrom(%d)\n got %+v\nwant %+v", round, cursor, got, want)
		}
		if len(got) == 0 || &got[0] != &trimmed.spans[cursor-trimmed.base] {
			t.Fatalf("round %d: SpansFrom(%d) is not a view of the retained buffer", round, cursor)
		}
		if ret := trimmed.Spans(); len(ret) > 0 &&
			!reflect.DeepEqual(ret, full.Spans()[full.Len()-len(ret):]) {
			t.Fatalf("round %d: retained spans are not the untrimmed suffix", round)
		}
		cursor = trimmed.Len()
		trimmed.Trim()
		if n := len(trimmed.Spans()); round%4 == 1 && n == 0 {
			t.Fatalf("round %d: Trim dropped the open span", round)
		}
	}
	if trimmed.SpansFrom(0) != nil || len(trimmed.Spans()) != 0 {
		t.Errorf("closed spans survived the final Trim: %+v", trimmed.Spans())
	}
}

func TestRootsInWindow(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Phase: "a", At: 0, Dur: 10},
		{ID: 1, Parent: -1, Phase: "b", At: 10, Dur: 10},
		{ID: 2, Parent: 1, Phase: "c", At: 12, Dur: 2},
		{ID: 3, Parent: -1, Phase: "d", At: 20, Dur: 10},
		{ID: 4, Parent: -1, Phase: "r", At: 12, Dur: 2, Async: true},
	}
	in := RootsIn(spans, 10, 30)
	if len(in) != 2 || in[0].Phase != "b" || in[1].Phase != "d" {
		t.Errorf("RootsIn = %+v, want roots b and d", in)
	}
}

func TestFoldTreeTotalsAndSelf(t *testing.T) {
	// Two syscalls, each with one pt_switch child; one async remote span
	// that must be skipped.
	spans := []Span{
		{ID: 0, Parent: -1, Phase: "syscall", At: 0, Dur: 90},
		{ID: 1, Parent: 0, Phase: "pt_switch", At: 10, Dur: 30},
		{ID: 2, Parent: -1, Phase: "syscall", At: 100, Dur: 90},
		{ID: 3, Parent: 2, Phase: "pt_switch", At: 110, Dur: 30},
		{ID: 4, Parent: -1, Phase: "shootdown_remote", At: 0, Dur: 400, Async: true},
	}
	root := Fold(spans)
	if len(root.Children) != 1 {
		t.Fatalf("got %d top-level phases, want 1", len(root.Children))
	}
	sc := root.Children[0]
	if sc.Phase != "syscall" || sc.Count != 2 || sc.Total != 180 {
		t.Errorf("syscall node = %+v, want count 2 total 180", sc)
	}
	if self := sc.Self(); self != 120 {
		t.Errorf("syscall Self = %v, want 120", self)
	}
	if len(sc.Children) != 1 || sc.Children[0].Total != 60 {
		t.Errorf("pt_switch child = %+v, want total 60", sc.Children)
	}
}

func TestTopPhasesRanking(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Phase: "syscall", At: 0, Dur: 100},
		{ID: 1, Parent: 0, Phase: "pt_switch", At: 0, Dur: 70},
		{ID: 2, Parent: -1, Phase: "compute", At: 100, Dur: 50},
	}
	top := TopPhases(spans)
	want := []string{"pt_switch", "compute", "syscall"} // self: 70, 50, 30
	if len(top) != 3 {
		t.Fatalf("got %d phases, want 3", len(top))
	}
	for i, w := range want {
		if top[i].Phase != w {
			t.Errorf("top[%d] = %s, want %s", i, top[i].Phase, w)
		}
	}
}

func TestFoldedStacksFormat(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Phase: "syscall", At: 0, Dur: 100},
		{ID: 1, Parent: 0, Phase: "pt_switch", At: 0, Dur: 70},
	}
	got := FoldedStacks("cki/1vcpu", spans)
	want := "cki/1vcpu;syscall 30\ncki/1vcpu;syscall;pt_switch 70\n"
	if got != want {
		t.Errorf("FoldedStacks:\n%q\nwant:\n%q", got, want)
	}
	if got2 := FoldedStacks("cki/1vcpu", spans); got2 != got {
		t.Error("FoldedStacks not deterministic")
	}
}

func TestPhaseSetSorted(t *testing.T) {
	spans := []Span{
		{Phase: "syscall"}, {Phase: "access"}, {Phase: "syscall"},
	}
	got := PhaseSet(spans)
	if len(got) != 2 || got[0] != "access" || got[1] != "syscall" {
		t.Errorf("PhaseSet = %v", got)
	}
}

func TestSpansJSONRoundTrip(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Phase: "syscall", At: 5, Dur: 90, VCPU: 1, PID: 2},
	}
	b, err := SpansJSON(spans)
	if err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != spans[0] {
		t.Errorf("round trip = %+v, want %+v", back, spans)
	}
	if b2, _ := SpansJSON(spans); !bytes.Equal(b, b2) {
		t.Error("SpansJSON not byte-deterministic")
	}
}

// The Chrome export must be valid JSON, carry one metadata row per
// process and per used vCPU, and be byte-deterministic.
func TestChromeTraceValidAndDeterministic(t *testing.T) {
	tracks := []TrackSet{{
		Name: `cki "8vcpu"\x`,
		Spans: []Span{
			{ID: 0, Parent: -1, Phase: "syscall", At: 1234567, Dur: 90000, VCPU: 0, PID: 1},
			{ID: 1, Parent: -1, Phase: "shootdown_remote", At: 2000000, Dur: 400000, VCPU: 3, Async: true},
		},
	}}
	b := ChromeTrace(tracks)
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("ChromeTrace is not valid JSON: %v\n%s", err, b)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var meta, events int
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			events++
			cats[e.Cat] = true
		}
	}
	// process_name + two thread_name rows (vcpu 0 and 3).
	if meta != 3 || events != 2 {
		t.Errorf("got %d metadata + %d X events, want 3 + 2", meta, events)
	}
	if !cats["flow"] || !cats["remote"] {
		t.Errorf("categories = %v, want flow and remote", cats)
	}
	// Timestamps are µs with a six-digit ps-resolution fraction.
	if !strings.Contains(string(b), `"ts":1.234567`) {
		t.Errorf("expected ts 1.234567 in:\n%s", b)
	}
	if b2 := ChromeTrace(tracks); !bytes.Equal(b, b2) {
		t.Error("ChromeTrace not byte-deterministic")
	}
}
