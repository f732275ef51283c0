// Open-loop traffic: the heavy-traffic arrival model of the fleet
// layer. The closed-loop models above (ClosedLoop, SMPLoop) assume a
// fixed client population that waits for responses — fine for one
// machine, wrong for a datacenter front door, where millions of users
// submit work with no regard for how loaded the service is. Open-loop
// arrivals decouple offered load from completion rate, which is what
// makes overload a real state: work queues, waits, and — past the
// admission bound — is rejected rather than absorbed invisibly.
//
// Every generator here is a pure function of its seed, so two runs
// produce byte-identical arrival sequences — the property the fleet
// experiment's committed artifacts depend on.
package des

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/trace"
)

// Arrival is one open-loop request arrival: a unit of work (for the
// fleet layer, one secure-container instance to place and run) entering
// the system at a time the system does not control. ID is the request's
// stable causal-tracing identity, minted here at the source — a pure
// function of (seed, Seq) — and propagated unchanged through every
// downstream lifecycle stage.
type Arrival struct {
	At  clock.Time
	Seq int
	ID  trace.RequestID
}

// Rand is a small deterministic PRNG (SplitMix64) for arrival
// generation. Unlike math/rand it is guaranteed stable across Go
// releases, so seeded traces are reproducible forever.
type Rand struct{ state uint64 }

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential sample with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Source is an open-loop arrival stream, pulled one arrival at a time
// in At order. Next reports false once the stream is exhausted, and
// keeps reporting false after that. A source is consumed by one reader:
// every run that needs the stream builds its own.
type Source interface {
	Next() (Arrival, bool)
}

// sliceSource streams a materialized arrival list.
type sliceSource struct {
	arrivals []Arrival
	next     int
}

// Slice streams the given arrivals in order, as hand-built fixtures
// need. It passes them through as given: a consumer that requires time
// order checks it.
func Slice(arrivals ...Arrival) Source { return &sliceSource{arrivals: arrivals} }

func (s *sliceSource) Next() (Arrival, bool) {
	if s.next >= len(s.arrivals) {
		return Arrival{}, false
	}
	s.next++
	return s.arrivals[s.next-1], true
}

// poissonSource is PoissonArrivals' stream: the running sum t of
// exponential gaps, in nanoseconds, and the count n yielded so far.
type poissonSource struct {
	rng       Rand
	seed      uint64
	meanGapNs float64
	horizon   clock.Time
	t         float64
	n         int
	done      bool
}

// PoissonArrivals streams a Poisson arrival process at ratePerSec over
// [0, horizon): exponential inter-arrival times drawn from the seeded
// generator. Deterministic per (seed, rate, horizon).
func PoissonArrivals(seed uint64, ratePerSec float64, horizon clock.Time) Source {
	if ratePerSec <= 0 || horizon <= 0 {
		return &poissonSource{done: true}
	}
	return &poissonSource{rng: Rand{state: seed}, seed: seed, meanGapNs: 1e9 / ratePerSec, horizon: horizon}
}

func (p *poissonSource) Next() (Arrival, bool) {
	if p.done {
		return Arrival{}, false
	}
	p.t += p.rng.ExpFloat64() * p.meanGapNs
	at := clock.FromNanos(p.t)
	if at >= p.horizon {
		p.done = true
		return Arrival{}, false
	}
	a := Arrival{At: at, Seq: p.n, ID: trace.MintRequestID(p.seed, p.n)}
	p.n++
	return a, true
}

// RateSegment is one piece of a piecewise-constant rate trace: hold
// RatePerSec for Dur of virtual time.
type RateSegment struct {
	RatePerSec float64
	Dur        clock.Time
}

// piecewiseSource is PiecewiseArrivals' stream: seg is the segment
// being drawn, base its start time, and t the gap sum inside it once
// inSeg has loaded the segment's mean gap and limit (in nanoseconds).
type piecewiseSource struct {
	rng                 Rand
	seed                uint64
	segs                []RateSegment
	seg                 int
	base                clock.Time
	inSeg               bool
	t, limit, meanGapNs float64
	n                   int
}

// PiecewiseArrivals streams a Poisson process whose rate follows the
// given segments back to back. The arrival stream is continuous across
// segment boundaries (the residual inter-arrival gap carries over,
// rescaled to the new rate). Deterministic per (seed, segments); the
// source keeps its own copy of segs.
func PiecewiseArrivals(seed uint64, segs []RateSegment) Source {
	return &piecewiseSource{rng: Rand{state: seed}, seed: seed, segs: slices.Clone(segs)}
}

func (p *piecewiseSource) Next() (Arrival, bool) {
	for ; p.seg < len(p.segs); p.seg++ {
		s := p.segs[p.seg]
		if s.Dur <= 0 {
			continue
		}
		if s.RatePerSec > 0 {
			if !p.inSeg {
				p.meanGapNs, p.t, p.limit = 1e9/s.RatePerSec, 0, float64(s.Dur)/float64(clock.Nanosecond)
				p.inSeg = true
			}
			p.t += p.rng.ExpFloat64() * p.meanGapNs
			if p.t < p.limit {
				a := Arrival{At: p.base + clock.FromNanos(p.t), Seq: p.n, ID: trace.MintRequestID(p.seed, p.n)}
				p.n++
				return a, true
			}
			p.inSeg = false
		}
		p.base += s.Dur
	}
	return Arrival{}, false
}

// ParseRateTrace reads a piecewise-constant rate trace, one segment per
// line as "<rate_per_sec> <duration_ms>"; blank lines and #-comments
// are skipped. This is the -trace-file format of ckibench -exp fleet.
// A malformed line — wrong field count, trailing garbage, a
// non-numeric or non-finite value, a non-positive rate, or a
// non-positive duration — is an error naming the offending line. A
// zero rate is rejected too: PiecewiseArrivals would silently emit no
// arrivals for the segment, and a trace that stalls its own stream is
// always a typo, not an intent.
func ParseRateTrace(r io.Reader) ([]RateSegment, error) {
	var segs []RateSegment
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("des: trace line %d: %q: want \"<rate_per_sec> <duration_ms>\"", line, text)
		}
		rate, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("des: trace line %d: bad rate %q", line, fields[0])
		}
		durMs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("des: trace line %d: bad duration %q", line, fields[1])
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || math.IsNaN(durMs) || math.IsInf(durMs, 0) {
			return nil, fmt.Errorf("des: trace line %d: values must be finite", line)
		}
		if rate <= 0 || durMs <= 0 {
			return nil, fmt.Errorf("des: trace line %d: rate and duration must be > 0 (got rate %v, duration %vms)", line, rate, durMs)
		}
		segs = append(segs, RateSegment{RatePerSec: rate, Dur: clock.Time(durMs * float64(clock.Millisecond))})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("des: trace holds no segments")
	}
	return segs, nil
}

// DiurnalTrace is a bursty day-shaped arrival generator: a sinusoidal
// rate swing between BaseRate (trough) and BaseRate*PeakFactor (peak),
// compressed so Periods full day-cycles fit inside Horizon, with
// seeded request bursts (a thundering herd, a retry storm) layered on
// top. It stands in for the diurnal traffic of a large user
// population without needing wall-clock-sized horizons.
type DiurnalTrace struct {
	Seed     uint64
	BaseRate float64 // trough arrivals/sec (> 0)
	// PeakFactor is peak rate / trough rate (>= 1).
	PeakFactor float64
	// Periods is how many full day-cycles span the horizon (>= 1).
	Periods float64
	// BurstProb is the per-arrival probability of spawning a burst of
	// BurstSize extra arrivals spread uniformly over BurstSpread.
	BurstProb   float64
	BurstSize   int
	BurstSpread clock.Time
	Horizon     clock.Time
}

// rate returns the instantaneous arrival rate at time t.
func (d DiurnalTrace) rate(t clock.Time) float64 {
	if d.PeakFactor < 1 {
		return d.BaseRate
	}
	// 0 at the trough, 1 at the peak.
	phase := 0.5 - 0.5*math.Cos(2*math.Pi*d.Periods*float64(t)/float64(d.Horizon))
	return d.BaseRate * (1 + (d.PeakFactor-1)*phase)
}

// diurnalSource is DiurnalTrace.Arrivals' stream. The thinned base
// candidates come in time order, but each accepted one may spawn a
// burst that reaches ahead of later candidates, so every accepted time
// waits in pending, a min-heap ordered by (At, generation order). No
// later candidate, nor any burst it spawns, can precede nextAt, so a
// pending time at or before nextAt is final: releasing those in heap
// order yields exactly the stable time sort of the generation order.
type diurnalSource struct {
	d         DiurnalTrace
	rng       Rand
	peak      float64
	meanGapNs float64
	limit     float64
	t         float64
	nextAt    clock.Time
	done      bool
	pending   Queue[struct{}]
	n         int
}

// Arrivals streams the trace by thinning a Poisson process at the peak
// rate, then layering bursts. The stream is sorted by time (equal
// times in generation order) and deterministic per seed.
func (d DiurnalTrace) Arrivals() Source {
	if d.BaseRate <= 0 || d.Horizon <= 0 {
		return &diurnalSource{done: true}
	}
	if d.PeakFactor < 1 {
		d.PeakFactor = 1
	}
	if d.Periods < 1 {
		d.Periods = 1
	}
	peak := d.BaseRate * d.PeakFactor
	s := &diurnalSource{
		d: d, rng: Rand{state: d.Seed}, peak: peak, meanGapNs: 1e9 / peak,
		limit: float64(d.Horizon) / float64(clock.Nanosecond),
	}
	s.advance()
	return s
}

// advance draws the next base candidate time, or marks the candidates
// exhausted.
func (s *diurnalSource) advance() {
	s.t += s.rng.ExpFloat64() * s.meanGapNs
	if s.t >= s.limit {
		s.done = true
		return
	}
	s.nextAt = clock.FromNanos(s.t)
}

func (s *diurnalSource) Next() (Arrival, bool) {
	d := &s.d
	for {
		if at, ok := s.pending.Peek(); ok && (s.done || at <= s.nextAt) {
			s.pending.Next(d.Horizon)
			a := Arrival{At: at, Seq: s.n, ID: trace.MintRequestID(d.Seed, s.n)}
			s.n++
			return a, true
		}
		if s.done {
			return Arrival{}, false
		}
		at := s.nextAt
		// Thinning: accept with probability rate(t)/peak.
		if s.rng.Float64()*s.peak <= d.rate(at) {
			s.pending.At(at, struct{}{})
			if d.BurstProb > 0 && d.BurstSize > 0 && s.rng.Float64() < d.BurstProb {
				for i := 0; i < d.BurstSize; i++ {
					bt := at + clock.Time(s.rng.Float64()*float64(d.BurstSpread))
					if bt < d.Horizon {
						s.pending.At(bt, struct{}{})
					}
				}
			}
		}
		s.advance()
	}
}
