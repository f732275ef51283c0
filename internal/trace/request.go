package trace

// Per-request causal tracing: where Span decomposes one machine flow
// (a syscall, a shootdown) into phases, a request trace decomposes one
// fleet request's whole life — arrival, queueing, placement, boot or
// warm restore, service, storm-induced redo — into Segments that tile
// the request's end-to-end latency exactly. Every segment carries the
// RequestID minted at the DES arrival source and a parent link to its
// causal predecessor, so a tail-latency report can say not just that
// p999 blew up but which concrete request paid for it and where.

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/clock"
)

// RequestID is the stable identity of one open-loop request, minted at
// the DES arrival source (MintRequestID) and propagated unchanged
// through admission, queueing, placement, service, eviction, and
// re-placement. Zero means "no request" everywhere an ID can be absent.
type RequestID uint64

// String renders the ID as the fixed-width hex the artifacts and CLIs
// use (ckitrace -request parses it back).
func (id RequestID) String() string {
	return fmt.Sprintf("%016x", uint64(id))
}

// ParseRequestID parses the hex rendering of String.
func ParseRequestID(s string) (RequestID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad request id %q: %w", s, err)
	}
	if v == 0 {
		return 0, fmt.Errorf("trace: request id 0 is reserved")
	}
	return RequestID(v), nil
}

// MintRequestID derives the request ID from the arrival stream's seed
// and the arrival's sequence number — an FNV-64a fold, so the ID is a
// pure function of the stream (byte-identical across runs and host
// parallelism) yet distinct streams do not collide on small sequence
// numbers. Never returns zero.
func MintRequestID(seed uint64, seq int) RequestID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{seed, uint64(int64(seq))} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	if h == 0 {
		h = 1
	}
	return RequestID(h)
}

// Segment kinds. Timed kinds (non-zero Dur) tile the request's life
// with no gaps or overlaps, so their durations sum exactly to the
// end-to-end latency; marker kinds are zero-duration lifecycle events.
const (
	// SegArrival is the root marker: the request entered the system.
	SegArrival = "arrival"
	// SegQueue is time spent waiting in a node's start queue.
	SegQueue = "queue"
	// SegPlacement is the scheduler's decision point (instantaneous in
	// the control-plane model): Node is the chosen node, Outcome is
	// "started" or "queued".
	SegPlacement = "placement"
	// SegBoot is a cold container boot that counted toward completion.
	SegBoot = "boot"
	// SegWarmRestore is a warm restore from a snapshot after an
	// eviction.
	SegWarmRestore = "warm_restore"
	// SegForkBoot is a fork-from-snapshot instantiation (the serverless
	// churn arrival mode): COW page sharing instead of a cold boot.
	SegForkBoot = "fork_boot"
	// SegService is service time preserved toward completion.
	SegService = "service"
	// SegStormRedo is run time (boot or service) an eviction threw
	// away — the storm tax paid in redone work.
	SegStormRedo = "storm_redo"
	// SegEvict marks a storm displacement; Outcome is the
	// fleet.EvictOutcome name (warm, cold, requeued).
	SegEvict = "evict"
	// SegReject is the terminal marker of an admission rejection.
	SegReject = "reject"
	// SegComplete is the terminal marker of a completion.
	SegComplete = "complete"
)

// Segment is one closed piece of a request's life. ID and Parent index
// into the request's own segment list (Parent -1 = root); because a
// request's lifecycle is causal, the parent of each segment is simply
// the segment recorded before it, forming a chain from arrival to the
// terminal marker.
type Segment struct {
	Req     RequestID  `json:"req"`
	ID      int        `json:"id"`
	Parent  int        `json:"parent"`
	Kind    string     `json:"kind"`
	At      clock.Time `json:"at"`
	Dur     clock.Time `json:"dur"`
	Node    int        `json:"node,omitempty"`
	Outcome string     `json:"outcome,omitempty"`
}

// Terminal reports whether the segment ends the request's life.
func (s Segment) Terminal() bool {
	return s.Kind == SegComplete || s.Kind == SegReject
}

// Timed reports whether the segment consumes request latency (its Dur
// participates in the conservation law).
func (s Segment) Timed() bool {
	switch s.Kind {
	case SegQueue, SegBoot, SegWarmRestore, SegForkBoot, SegService, SegStormRedo:
		return true
	}
	return false
}

// The request log. Every segment is stored as one fixed-size record in
// a flat log of chunks found through a directory (the mem.PhysMem
// idiom), so growth allocates one new chunk and never copies a record.
// A record holds no string, pointer, slice or map: kinds and outcomes
// are indexes into the recorder's interned name table, and a request's
// records form a chain through next. The collector therefore never
// scans the log, however many requests it holds.
const (
	logChunkShift = 10
	logChunkRecs  = 1 << logChunkShift
	logChunkMask  = logChunkRecs - 1
	// indexBits sizes a new recorder's ID index at 2^indexBits slots.
	indexBits = 6
)

// logRecord is one stored segment (32 bytes). next is the log index of
// the request's following record, -1 on its last.
type logRecord struct {
	at, dur clock.Time
	next    int32
	node    int32
	kind    uint16
	outcome uint16
}

// reqHeader is one request's entry in first-seen order: the log
// indexes of its first and last records and its segment count n.
type reqHeader struct {
	id            RequestID
	head, tail, n int32
}

// RequestRecorder collects per-request lifecycle segments. A nil
// *RequestRecorder is a valid no-op recorder, and no method ever reads
// or advances a clock — timestamps come from the caller's virtual
// timeline — so attaching one never changes what it observes.
type RequestRecorder struct {
	reqs []reqHeader
	// index finds a request's header: an open-addressing table,
	// probed linearly from the ID's Fibonacci hash, whose nonzero
	// slots hold a header's position plus one. It doubles once half
	// full. shift is 64 - log2(len(index)): the hash's top bits pick
	// the first slot probed.
	index  []int32
	shift  uint
	chunks []*[logChunkRecs]logRecord
	nrec   int32
	names  []string
	// each is the buffer Each rebuilds every request's segments into.
	each []Segment
}

// NewRequestRecorder creates an empty recorder.
func NewRequestRecorder() *RequestRecorder {
	return &RequestRecorder{
		index: make([]int32, 1<<indexBits),
		shift: 64 - indexBits,
	}
}

// slot returns the index slot holding req's header, or the empty slot
// where it belongs.
func (r *RequestRecorder) slot(req RequestID) int {
	mask := len(r.index) - 1
	s := int((uint64(req) * 0x9e3779b97f4a7c15) >> r.shift)
	for {
		v := r.index[s]
		if v == 0 || r.reqs[v-1].id == req {
			return s
		}
		s = (s + 1) & mask
	}
}

// growIndex doubles the index and refiles every header.
func (r *RequestRecorder) growIndex() {
	r.index = make([]int32, 2*len(r.index))
	r.shift--
	for i := range r.reqs {
		r.index[r.slot(r.reqs[i].id)] = int32(i + 1)
	}
}

// record returns the log record at index i.
func (r *RequestRecorder) record(i int32) *logRecord {
	return &r.chunks[i>>logChunkShift][i&logChunkMask]
}

// intern returns name's index in the name table, adding it on first
// use.
func (r *RequestRecorder) intern(name string) uint16 {
	for i, n := range r.names {
		if n == name {
			return uint16(i)
		}
	}
	if len(r.names) > math.MaxUint16 {
		panic("trace: request recorder name table full")
	}
	r.names = append(r.names, name)
	return uint16(len(r.names) - 1)
}

// Emit appends one segment to req's trace and returns its index within
// the request. The parent link is the request's previously recorded
// segment (-1 for the first), which is exactly the causal predecessor
// for a sequential lifecycle. On a nil recorder it returns -1. node
// must fit in an int32.
func (r *RequestRecorder) Emit(req RequestID, kind string, at, dur clock.Time, node int, outcome string) int {
	if r == nil {
		return -1
	}
	if node != int(int32(node)) {
		panic(fmt.Sprintf("trace: segment node %d out of range", node))
	}
	s := r.slot(req)
	hi := r.index[s] - 1
	if hi < 0 {
		hi = int32(len(r.reqs))
		r.reqs = append(r.reqs, reqHeader{id: req})
		r.index[s] = hi + 1
		if 2*len(r.reqs) >= len(r.index) {
			r.growIndex()
		}
	}
	i := r.nrec
	if i == math.MaxInt32 {
		panic("trace: request log full")
	}
	if i&logChunkMask == 0 {
		r.chunks = append(r.chunks, new([logChunkRecs]logRecord))
	}
	r.nrec++
	*r.record(i) = logRecord{
		at: at, dur: dur, next: -1, node: int32(node),
		kind: r.intern(kind), outcome: r.intern(outcome),
	}
	h := &r.reqs[hi]
	if h.n == 0 {
		h.head = i
	} else {
		r.record(h.tail).next = i
	}
	h.tail = i
	h.n++
	return int(h.n - 1)
}

// appendSegments rebuilds h's segments, in causal order, onto dst.
func (r *RequestRecorder) appendSegments(dst []Segment, h *reqHeader) []Segment {
	id := 0
	for i := h.head; i >= 0; id++ {
		rec := r.record(i)
		dst = append(dst, Segment{
			Req: h.id, ID: id, Parent: id - 1,
			Kind: r.names[rec.kind], At: rec.at, Dur: rec.dur,
			Node: int(rec.node), Outcome: r.names[rec.outcome],
		})
		i = rec.next
	}
	return dst
}

// Each calls fn on every traced request in first-seen order, with its
// first-seen index and its segments in causal order, and stops at the
// first error fn returns. segs is one buffer reused across calls, so
// the walk copies nothing per request: fn must not keep segs past its
// return, nor call Each itself.
func (r *RequestRecorder) Each(fn func(seen int, id RequestID, segs []Segment) error) error {
	if r == nil {
		return nil
	}
	for i := range r.reqs {
		h := &r.reqs[i]
		r.each = r.appendSegments(r.each[:0], h)
		if err := fn(i, h.id, r.each); err != nil {
			return err
		}
	}
	return nil
}

// Requests returns every traced RequestID in first-seen order (a
// copy) — deterministic for a deterministic workload.
func (r *RequestRecorder) Requests() []RequestID {
	if r == nil {
		return nil
	}
	out := make([]RequestID, len(r.reqs))
	for i := range r.reqs {
		out[i] = r.reqs[i].id
	}
	return out
}

// Segments returns req's segments in causal order (a copy), nil when
// the request was never seen.
func (r *RequestRecorder) Segments(req RequestID) []Segment {
	if r == nil {
		return nil
	}
	v := r.index[r.slot(req)]
	if v == 0 {
		return nil
	}
	h := &r.reqs[v-1]
	return r.appendSegments(make([]Segment, 0, h.n), h)
}

// Len reports the number of traced requests.
func (r *RequestRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.reqs)
}

// TerminalOf returns the request's terminal segment and true when the
// trace holds exactly one terminal (the well-formedness the fleet's
// generation counters guarantee: a stale completion after re-placement
// must not double-terminate).
func (r *RequestRecorder) TerminalOf(req RequestID) (Segment, bool) {
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

// Conserve checks the conservation law on one request's segments: the
// timed segments must tile [arrival, terminal] back to back — each
// starting where its predecessor ended, summing exactly to the
// end-to-end latency. It returns the latency on success and an error
// naming the first violation otherwise. Rejected requests conserve
// trivially (zero latency, no timed segments after the reject).
func Conserve(segs []Segment) (clock.Time, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("trace: empty request trace")
	}
	if segs[0].Kind != SegArrival {
		return 0, fmt.Errorf("trace: request %s: first segment is %q, not arrival", segs[0].Req, segs[0].Kind)
	}
	var term *Segment
	cursor := segs[0].At
	var sum clock.Time
	for i := range segs {
		s := &segs[i]
		if s.Parent != i-1 {
			return 0, fmt.Errorf("trace: request %s: segment %d parent %d breaks the causal chain", s.Req, s.ID, s.Parent)
		}
		if s.Terminal() {
			if term != nil {
				return 0, fmt.Errorf("trace: request %s: two terminal segments (%s at %v, %s at %v)",
					s.Req, term.Kind, term.At, s.Kind, s.At)
			}
			term = s
		}
		if !s.Timed() {
			continue
		}
		if s.At != cursor {
			return 0, fmt.Errorf("trace: request %s: %s segment starts at %v, previous work ended at %v",
				s.Req, s.Kind, s.At, cursor)
		}
		cursor = s.At + s.Dur
		sum += s.Dur
	}
	if term == nil {
		return 0, fmt.Errorf("trace: request %s: no terminal segment", segs[0].Req)
	}
	if term.Kind == SegComplete {
		if lat := term.At - segs[0].At; lat != sum {
			return 0, fmt.Errorf("trace: request %s: segments sum to %v, end-to-end latency is %v",
				segs[0].Req, sum, lat)
		}
		if term.At != cursor {
			return 0, fmt.Errorf("trace: request %s: completion at %v but last work ended at %v",
				segs[0].Req, term.At, cursor)
		}
	}
	return sum, nil
}
