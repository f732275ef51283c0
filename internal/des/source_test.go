package des

import (
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/trace"
)

// The slice generators the streaming sources replaced, kept verbatim as
// the references the sources must reproduce arrival for arrival.

// refPoissonArrivals generates a Poisson arrival process at ratePerSec
// over [0, horizon): exponential inter-arrival times drawn from the
// seeded generator. Deterministic per (seed, rate, horizon).
func refPoissonArrivals(seed uint64, ratePerSec float64, horizon clock.Time) []Arrival {
	if ratePerSec <= 0 || horizon <= 0 {
		return nil
	}
	rng := NewRand(seed)
	meanGapNs := 1e9 / ratePerSec
	var out []Arrival
	t := 0.0 // ns
	for {
		t += rng.ExpFloat64() * meanGapNs
		at := clock.FromNanos(t)
		if at >= horizon {
			return out
		}
		out = append(out, Arrival{At: at, Seq: len(out), ID: trace.MintRequestID(seed, len(out))})
	}
}

// refPiecewiseArrivals generates a Poisson process whose rate follows the
// given segments back to back. The arrival stream is continuous across
// segment boundaries (the residual inter-arrival gap carries over,
// rescaled to the new rate). Deterministic per (seed, segments).
func refPiecewiseArrivals(seed uint64, segs []RateSegment) []Arrival {
	rng := NewRand(seed)
	var out []Arrival
	var base clock.Time
	for _, s := range segs {
		if s.Dur <= 0 {
			continue
		}
		if s.RatePerSec > 0 {
			meanGapNs := 1e9 / s.RatePerSec
			t := 0.0
			limit := float64(s.Dur) / float64(clock.Nanosecond)
			for {
				t += rng.ExpFloat64() * meanGapNs
				if t >= limit {
					break
				}
				out = append(out, Arrival{At: base + clock.FromNanos(t), Seq: len(out), ID: trace.MintRequestID(seed, len(out))})
			}
		}
		base += s.Dur
	}
	return out
}

// refDiurnalArrivals generates the trace by thinning a Poisson process at the
// peak rate, then layering bursts. The result is sorted by time and
// deterministic per seed.
func refDiurnalArrivals(d DiurnalTrace) []Arrival {
	if d.BaseRate <= 0 || d.Horizon <= 0 {
		return nil
	}
	if d.PeakFactor < 1 {
		d.PeakFactor = 1
	}
	if d.Periods < 1 {
		d.Periods = 1
	}
	rng := NewRand(d.Seed)
	peak := d.BaseRate * d.PeakFactor
	meanGapNs := 1e9 / peak
	var times []clock.Time
	t := 0.0
	limit := float64(d.Horizon) / float64(clock.Nanosecond)
	for {
		t += rng.ExpFloat64() * meanGapNs
		if t >= limit {
			break
		}
		at := clock.FromNanos(t)
		// Thinning: accept with probability rate(t)/peak.
		if rng.Float64()*peak > d.rate(at) {
			continue
		}
		times = append(times, at)
		if d.BurstProb > 0 && d.BurstSize > 0 && rng.Float64() < d.BurstProb {
			for i := 0; i < d.BurstSize; i++ {
				bt := at + clock.Time(rng.Float64()*float64(d.BurstSpread))
				if bt < d.Horizon {
					times = append(times, bt)
				}
			}
		}
	}
	// Bursts land out of order; restore time order with a stable,
	// deterministic sort (insertion: burst tails are near their heads).
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	out := make([]Arrival, len(times))
	for i, at := range times {
		out[i] = Arrival{At: at, Seq: i, ID: trace.MintRequestID(d.Seed, i)}
	}
	return out
}

// collect drains src.
func collect(src Source) []Arrival {
	var out []Arrival
	for a, ok := src.Next(); ok; a, ok = src.Next() {
		out = append(out, a)
	}
	return out
}

// sameStream reports whether src yields exactly want, then stays
// exhausted.
func sameStream(t *testing.T, name string, src Source, want []Arrival) {
	t.Helper()
	got := collect(src)
	if len(got) == 0 && len(want) == 0 {
		got, want = nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: arrival %d = %+v, reference %+v (%d vs %d arrivals)", name, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d arrivals, reference %d", name, len(got), len(want))
	}
	if a, ok := src.Next(); ok {
		t.Fatalf("%s: exhausted source yielded %+v", name, a)
	}
}

// TestSourcesMatchReference: every source yields the identical
// (At, Seq, ID) sequence its slice generator produced, across seeds,
// rates, horizons, segment lists (zero-rate and zero- or negative-
// duration segments included) and burst settings, down to bursts so
// narrow that they land on their base arrival's exact time.
func TestSourcesMatchReference(t *testing.T) {
	ms := clock.Millisecond
	for seed := uint64(0); seed < 8; seed++ {
		for _, rate := range []float64{-1, 0, 1, 3_000, 250_000, 4e6} {
			for _, h := range []clock.Time{-ms, 0, 1, 100 * clock.Microsecond, 3 * ms} {
				sameStream(t, "poisson", PoissonArrivals(seed, rate, h), refPoissonArrivals(seed, rate, h))
			}
		}
		for _, segs := range [][]RateSegment{
			nil,
			{{RatePerSec: 1e6, Dur: ms}},
			{{RatePerSec: 1e6, Dur: ms}, {RatePerSec: 0, Dur: ms}, {RatePerSec: 2e6, Dur: ms}},
			{{RatePerSec: 5e5, Dur: 0}, {RatePerSec: 3e5, Dur: -ms}, {RatePerSec: 7e5, Dur: 2 * ms}},
			{{RatePerSec: 0, Dur: ms}},
			{{RatePerSec: 1e4, Dur: 10 * clock.Microsecond}, {RatePerSec: 1e4, Dur: 10 * clock.Microsecond}, {RatePerSec: 3e6, Dur: 50 * clock.Microsecond}},
			{{RatePerSec: 2e6, Dur: ms}, {RatePerSec: -5, Dur: ms}, {RatePerSec: 2e6, Dur: 1}},
		} {
			sameStream(t, "piecewise", PiecewiseArrivals(seed, segs), refPiecewiseArrivals(seed, segs))
		}
		for _, d := range []DiurnalTrace{
			{BaseRate: 200_000, PeakFactor: 3, Periods: 2, BurstProb: 0.01, BurstSize: 8, BurstSpread: 50 * clock.Microsecond, Horizon: 20 * ms},
			{BaseRate: 500_000, PeakFactor: 4, Periods: 1, Horizon: 5 * ms},
			{BaseRate: 100_000, PeakFactor: 0.5, Periods: 0, BurstProb: 0.2, BurstSize: 3, BurstSpread: ms, Horizon: 4 * ms},
			// Bursts spread over less than one clock tick land on their
			// base arrival's exact time: ties with it and each other.
			{BaseRate: 300_000, PeakFactor: 2, Periods: 3, BurstProb: 0.3, BurstSize: 4, BurstSpread: 1, Horizon: 2 * ms},
			{BaseRate: 300_000, PeakFactor: 2, Periods: 1, BurstProb: 1, BurstSize: 5, BurstSpread: 0, Horizon: ms},
			// Bursts reaching past the horizon, and past many later bases.
			{BaseRate: 1e6, PeakFactor: 1.5, Periods: 1, BurstProb: 0.05, BurstSize: 20, BurstSpread: 400 * clock.Microsecond, Horizon: ms},
			{BaseRate: 0, Horizon: ms},
			{BaseRate: 1e5, Horizon: 0},
		} {
			d.Seed = seed
			sameStream(t, "diurnal", d.Arrivals(), refDiurnalArrivals(d))
		}
	}
	arrivals := refPoissonArrivals(3, 1e5, ms)
	sameStream(t, "slice", Slice(arrivals...), arrivals)
	sameStream(t, "empty slice", Slice(), nil)
}
