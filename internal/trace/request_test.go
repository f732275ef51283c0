package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func TestMintRequestID(t *testing.T) {
	seen := map[RequestID]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for seq := 0; seq < 1000; seq++ {
			id := MintRequestID(seed, seq)
			if id == 0 {
				t.Fatalf("MintRequestID(%d, %d) = 0; zero is reserved", seed, seq)
			}
			if seen[id] {
				t.Fatalf("MintRequestID(%d, %d) = %s collides within a small window", seed, seq, id)
			}
			seen[id] = true
		}
	}
	if a, b := MintRequestID(7, 42), MintRequestID(7, 42); a != b {
		t.Fatalf("MintRequestID not deterministic: %s vs %s", a, b)
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	id := MintRequestID(0xf1ee7, 99)
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("String() = %q, want 16 hex chars", s)
	}
	back, err := ParseRequestID(s)
	if err != nil {
		t.Fatalf("ParseRequestID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: %s -> %q -> %s", id, s, back)
	}
	if _, err := ParseRequestID("not-hex"); err == nil {
		t.Fatal("ParseRequestID accepted garbage")
	}
	if _, err := ParseRequestID("0"); err == nil {
		t.Fatal("ParseRequestID accepted the reserved zero id")
	}
}

func TestNilRequestRecorder(t *testing.T) {
	var r *RequestRecorder
	if got := r.Emit(1, SegArrival, 0, 0, 0, ""); got != -1 {
		t.Fatalf("nil Emit = %d, want -1", got)
	}
	if r.Requests() != nil || r.Segments(1) != nil || r.Len() != 0 {
		t.Fatal("nil recorder must be an empty no-op")
	}
}

func TestRecorderChaining(t *testing.T) {
	r := NewRequestRecorder()
	id := MintRequestID(1, 0)
	other := MintRequestID(1, 1)

	r.Emit(id, SegArrival, 100, 0, 0, "")
	r.Emit(other, SegArrival, 150, 0, 0, "")
	r.Emit(id, SegPlacement, 100, 0, 3, "queued")
	r.Emit(id, SegQueue, 100, 50, 3, "")
	r.Emit(other, SegReject, 150, 0, 0, "")
	r.Emit(id, SegBoot, 150, 30, 3, "")
	r.Emit(id, SegService, 180, 20, 3, "")
	r.Emit(id, SegComplete, 200, 0, 3, "")

	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
	reqs := r.Requests()
	if len(reqs) != 2 || reqs[0] != id || reqs[1] != other {
		t.Fatalf("Requests() = %v, want first-seen order [%s %s]", reqs, id, other)
	}

	segs := r.Segments(id)
	if len(segs) != 6 {
		t.Fatalf("Segments(id) = %d segments, want 6", len(segs))
	}
	for i, s := range segs {
		if s.ID != i || s.Parent != i-1 {
			t.Fatalf("segment %d: ID=%d Parent=%d, want chain", i, s.ID, s.Parent)
		}
		if s.Req != id {
			t.Fatalf("segment %d carries req %s, want %s", i, s.Req, id)
		}
	}
	// Interleaved requests must not cross-link.
	osegs := r.Segments(other)
	if len(osegs) != 2 || osegs[1].Kind != SegReject || osegs[1].Parent != 0 {
		t.Fatalf("other request corrupted by interleaving: %+v", osegs)
	}

	if term, ok := r.TerminalOf(id); !ok || term.Kind != SegComplete {
		t.Fatalf("TerminalOf(id) = %+v, %v", term, ok)
	}

	// Segments returns a copy.
	segs[0].Kind = "mutated"
	if r.Segments(id)[0].Kind != SegArrival {
		t.Fatal("Segments leaked internal storage")
	}
}

func TestConserve(t *testing.T) {
	id := MintRequestID(2, 0)
	mk := func(kind string, at, dur clock.Time) Segment {
		return Segment{Req: id, Kind: kind, At: at, Dur: dur}
	}
	chain := func(segs ...Segment) []Segment {
		for i := range segs {
			segs[i].ID = i
			segs[i].Parent = i - 1
		}
		return segs
	}

	good := chain(
		mk(SegArrival, 100, 0),
		mk(SegQueue, 100, 40),
		mk(SegBoot, 140, 30),
		mk(SegStormRedo, 170, 10),
		mk(SegWarmRestore, 180, 5),
		mk(SegService, 185, 15),
		mk(SegComplete, 200, 0),
	)
	lat, err := Conserve(good)
	if err != nil {
		t.Fatalf("Conserve(good): %v", err)
	}
	if lat != 100 {
		t.Fatalf("Conserve(good) = %v, want 100", lat)
	}

	rejected := chain(mk(SegArrival, 50, 0), mk(SegReject, 50, 0))
	if lat, err := Conserve(rejected); err != nil || lat != 0 {
		t.Fatalf("Conserve(rejected) = %v, %v; want 0, nil", lat, err)
	}

	bad := []struct {
		name string
		segs []Segment
	}{
		{"empty", nil},
		{"no arrival", chain(mk(SegQueue, 0, 10), mk(SegComplete, 10, 0))},
		{"gap", chain(mk(SegArrival, 0, 0), mk(SegQueue, 0, 10), mk(SegService, 15, 5), mk(SegComplete, 20, 0))},
		{"overlap", chain(mk(SegArrival, 0, 0), mk(SegBoot, 0, 10), mk(SegService, 5, 15), mk(SegComplete, 20, 0))},
		{"latency mismatch", chain(mk(SegArrival, 0, 0), mk(SegService, 0, 10), mk(SegComplete, 25, 0))},
		{"no terminal", chain(mk(SegArrival, 0, 0), mk(SegService, 0, 10))},
		{"double terminal", chain(mk(SegArrival, 0, 0), mk(SegService, 0, 10), mk(SegComplete, 10, 0), mk(SegComplete, 10, 0))},
		{"broken chain", []Segment{
			{Req: id, ID: 0, Parent: -1, Kind: SegArrival},
			{Req: id, ID: 1, Parent: 1, Kind: SegComplete},
		}},
	}
	for _, tc := range bad {
		if _, err := Conserve(tc.segs); err == nil {
			t.Errorf("Conserve(%s): want error, got nil", tc.name)
		}
	}
}

// refRecorder is the map-of-slices recorder the flat log replaced,
// kept verbatim as the reference TestRequestRecorderMatchesReference
// checks the log against.
type refRecorder struct {
	byReq map[RequestID]int
	reqs  []refLog
}

type refLog struct {
	id   RequestID
	segs []Segment
}

func newRefRecorder() *refRecorder {
	return &refRecorder{byReq: map[RequestID]int{}}
}

func (r *refRecorder) Emit(req RequestID, kind string, at, dur clock.Time, node int, outcome string) int {
	li, ok := r.byReq[req]
	if !ok {
		li = len(r.reqs)
		r.byReq[req] = li
		r.reqs = append(r.reqs, refLog{id: req})
	}
	l := &r.reqs[li]
	id := len(l.segs)
	l.segs = append(l.segs, Segment{
		Req: req, ID: id, Parent: id - 1,
		Kind: kind, At: at, Dur: dur, Node: node, Outcome: outcome,
	})
	return id
}

func (r *refRecorder) Requests() []RequestID {
	out := make([]RequestID, len(r.reqs))
	for i := range r.reqs {
		out[i] = r.reqs[i].id
	}
	return out
}

func (r *refRecorder) Segments(req RequestID) []Segment {
	li, ok := r.byReq[req]
	if !ok {
		return nil
	}
	return append([]Segment(nil), r.reqs[li].segs...)
}

func (r *refRecorder) Len() int { return len(r.reqs) }

func (r *refRecorder) TerminalOf(req RequestID) (Segment, bool) {
	var term Segment
	n := 0
	for _, s := range r.Segments(req) {
		if s.Terminal() {
			term = s
			n++
		}
	}
	return term, n == 1
}

// Every kind and outcome an emit script draws from: all the Seg*
// constants, the fleet's placement and eviction outcomes, and one name
// of each that the fleet never emits.
var (
	scriptKinds = []string{
		SegArrival, SegQueue, SegPlacement, SegBoot, SegWarmRestore,
		SegForkBoot, SegService, SegStormRedo, SegEvict, SegReject,
		SegComplete, "custom_kind",
	}
	scriptOutcomes = []string{"", "started", "queued", "warm", "cold", "requeued", "custom_outcome"}
)

// emitOp is one Emit call of a script.
type emitOp struct {
	req           RequestID
	kind, outcome string
	at, dur       clock.Time
	node          int
}

// emitScript is a random interleaving of Emits over many requests,
// long enough to cross more than one chunk boundary of the log.
type emitScript []emitOp

// GoString keeps a failing check's report short: quick prints the
// input with %#v.
func (ops emitScript) GoString() string {
	return fmt.Sprintf("emitScript{%d ops}", len(ops))
}

func (emitScript) Generate(rnd *rand.Rand, size int) reflect.Value {
	reqs := 1 + rnd.Intn(400)
	ops := make(emitScript, logChunkRecs+1+rnd.Intn(3*logChunkRecs))
	for i := range ops {
		ops[i] = emitOp{
			req:     MintRequestID(uint64(size), rnd.Intn(reqs)),
			kind:    scriptKinds[rnd.Intn(len(scriptKinds))],
			outcome: scriptOutcomes[rnd.Intn(len(scriptOutcomes))],
			at:      clock.Time(rnd.Int63()),
			dur:     clock.Time(rnd.Int63n(1 << 40)),
			node:    int(rnd.Int31()) - rnd.Intn(2)<<31,
		}
		// The first ops draw every kind and outcome in turn.
		if i < len(scriptKinds) {
			ops[i].kind = scriptKinds[i]
		}
		if i < len(scriptOutcomes) {
			ops[i].outcome = scriptOutcomes[i]
		}
	}
	return reflect.ValueOf(ops)
}

// TestRequestRecorderMatchesReference drives the flat log and the
// reference recorder with the same random scripts: every Emit return,
// Requests, Len, every request's Segments and TerminalOf, and the Each
// walk must agree. All Segments copies are taken before any is
// compared, so a copy that aliases shared storage shows.
func TestRequestRecorderMatchesReference(t *testing.T) {
	check := func(ops emitScript) bool {
		r, ref := NewRequestRecorder(), newRefRecorder()
		for i, op := range ops {
			got := r.Emit(op.req, op.kind, op.at, op.dur, op.node, op.outcome)
			if want := ref.Emit(op.req, op.kind, op.at, op.dur, op.node, op.outcome); got != want {
				t.Logf("op %d: Emit = %d, reference %d", i, got, want)
				return false
			}
		}
		ids := r.Requests()
		if !reflect.DeepEqual(ids, ref.Requests()) || r.Len() != ref.Len() {
			t.Logf("Requests/Len: %d ids, Len %d; reference %d, %d", len(ids), r.Len(), ref.Len(), len(ref.reqs))
			return false
		}
		segs := make([][]Segment, len(ids))
		for i, id := range ids {
			segs[i] = r.Segments(id)
		}
		for i, id := range ids {
			if want := ref.Segments(id); !reflect.DeepEqual(segs[i], want) {
				t.Logf("Segments(%s): %d segments, reference %d", id, len(segs[i]), len(want))
				return false
			}
			term, one := r.TerminalOf(id)
			wantTerm, wantOne := ref.TerminalOf(id)
			if term != wantTerm || one != wantOne {
				t.Logf("TerminalOf(%s) = %+v, %v; reference %+v, %v", id, term, one, wantTerm, wantOne)
				return false
			}
		}
		walked := 0
		err := r.Each(func(seen int, id RequestID, got []Segment) error {
			if seen != walked || id != ids[seen] {
				return fmt.Errorf("Each visit %d: seen %d, id %s", walked, seen, id)
			}
			if want := ref.Segments(id); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Each(%s): %d segments, reference %d", id, len(got), len(want))
			}
			walked++
			return nil
		})
		if err == nil && walked != ref.Len() {
			err = fmt.Errorf("Each visited %d requests, reference holds %d", walked, ref.Len())
		}
		if err != nil {
			t.Log(err)
			return false
		}
		return r.Segments(MintRequestID(1<<62, 0)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestRecorderEachStops: Each returns the first error its
// callback returns, and walks no further.
func TestRequestRecorderEachStops(t *testing.T) {
	r := NewRequestRecorder()
	for seq := 0; seq < 5; seq++ {
		r.Emit(MintRequestID(3, seq), SegArrival, 0, 0, 0, "")
	}
	stop := errors.New("stop")
	calls := 0
	err := r.Each(func(seen int, _ RequestID, _ []Segment) error {
		calls++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Fatalf("Each = %v after %d calls, want the callback's error after 3", err, calls)
	}
	var nilRec *RequestRecorder
	if err := nilRec.Each(func(int, RequestID, []Segment) error { return stop }); err != nil {
		t.Fatalf("nil Each = %v, want nil", err)
	}
}

// fillLifecycles records n complete six-segment request lifecycles.
func fillLifecycles(r *RequestRecorder, n int) {
	for seq := 0; seq < n; seq++ {
		id := MintRequestID(9, seq)
		at := clock.Time(seq) * 1000
		r.Emit(id, SegArrival, at, 0, 0, "")
		r.Emit(id, SegPlacement, at, 0, seq%16, "queued")
		r.Emit(id, SegQueue, at, 100, seq%16, "")
		r.Emit(id, SegBoot, at+100, 300, seq%16, "")
		r.Emit(id, SegService, at+400, 500, seq%16, "")
		r.Emit(id, SegComplete, at+900, 0, seq%16, "")
	}
}

// TestRequestRecorderAllocs pins the log's allocation budget: a walk
// with Each allocates nothing once its buffer has grown, and Emit's
// allocations are amortized — ten times the requests adds only the
// extra log chunks plus logarithmic growth of the request headers and
// the ID index, not allocations per request or per segment.
func TestRequestRecorderAllocs(t *testing.T) {
	r := NewRequestRecorder()
	fillLifecycles(r, 2000)
	segs := 0
	walk := func(_ int, _ RequestID, s []Segment) error {
		segs += len(s)
		return nil
	}
	if n := testing.AllocsPerRun(10, func() { _ = r.Each(walk) }); n != 0 {
		t.Errorf("Each over %d requests allocs/run = %v, want 0", r.Len(), n)
	}
	if segs == 0 {
		t.Fatal("Each walked no segments")
	}

	fill := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { fillLifecycles(NewRequestRecorder(), n) })
	}
	const small, growth = 1000, 10
	// Three structures grow by reallocation — the header slice, the
	// chunk directory and the ID index — each by at least 1.25x a
	// step, so 10x the requests costs each at most
	// ceil(log_1.25 10) + 1 = 12 more allocations.
	const logGrowth = 3 * 12
	chunks := func(n int) float64 { return float64((6*n + logChunkRecs - 1) / logChunkRecs) }
	base, big := fill(small), fill(growth*small)
	if extra := big - base - (chunks(growth*small) - chunks(small)); extra > logGrowth {
		t.Errorf("Emit allocations grow with the requests: %v allocs for %d lifecycles, %v for %d (%v beyond the extra chunks, want <= %d)",
			base, small, big, growth*small, extra, logGrowth)
	}
}

// TestRequestLogPointerFree keeps the log invisible to the collector:
// no type the log stores may hold a string, pointer, slice, map,
// interface, channel or func.
func TestRequestLogPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the request log must be pointer-free", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("logRecord", reflect.TypeOf(logRecord{}))
	walk("chunk", reflect.TypeOf([logChunkRecs]logRecord{}))
	walk("reqHeader", reflect.TypeOf(reqHeader{}))
}
