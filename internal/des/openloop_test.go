package des

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
)

// TestPoissonDeterminism: the same seed yields the identical arrival
// sequence; different seeds diverge.
func TestPoissonDeterminism(t *testing.T) {
	h := 10 * clock.Millisecond
	a := PoissonArrivals(42, 100_000, h)
	b := PoissonArrivals(42, 100_000, h)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different arrival sequences")
	}
	c := PoissonArrivals(43, 100_000, h)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical sequences")
	}
	if len(a) == 0 {
		t.Fatalf("no arrivals generated")
	}
	for i, ar := range a {
		if ar.Seq != i {
			t.Fatalf("arrival %d has Seq %d", i, ar.Seq)
		}
		if ar.At < 0 || ar.At >= h {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, ar.At, h)
		}
		if i > 0 && ar.At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
}

// TestPoissonRate: the empirical rate lands near the configured rate
// (law of large numbers, generous tolerance).
func TestPoissonRate(t *testing.T) {
	h := 100 * clock.Millisecond
	rate := 1_000_000.0 // 1M/s -> ~100k arrivals
	n := float64(len(PoissonArrivals(7, rate, h)))
	want := rate * h.Seconds()
	if n < 0.97*want || n > 1.03*want {
		t.Fatalf("got %v arrivals, want ~%v", n, want)
	}
}

// TestDiurnalReproducibility: byte-stable per seed, seed-sensitive,
// time-ordered, inside the horizon.
func TestDiurnalReproducibility(t *testing.T) {
	d := DiurnalTrace{
		Seed: 99, BaseRate: 200_000, PeakFactor: 3, Periods: 2,
		BurstProb: 0.01, BurstSize: 8, BurstSpread: 50 * clock.Microsecond,
		Horizon: 20 * clock.Millisecond,
	}
	a := d.Arrivals()
	b := d.Arrivals()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different diurnal traces")
	}
	d2 := d
	d2.Seed = 100
	if reflect.DeepEqual(a, d2.Arrivals()) {
		t.Fatalf("different seeds produced identical diurnal traces")
	}
	if len(a) == 0 {
		t.Fatalf("no arrivals")
	}
	for i, ar := range a {
		if ar.At < 0 || ar.At >= d.Horizon {
			t.Fatalf("arrival %d at %v outside horizon", i, ar.At)
		}
		if i > 0 && ar.At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if ar.Seq != i {
			t.Fatalf("arrival %d has Seq %d", i, ar.Seq)
		}
	}
}

// TestDiurnalPeakSwing: the peak half of the cycle carries measurably
// more arrivals than the trough half.
func TestDiurnalPeakSwing(t *testing.T) {
	d := DiurnalTrace{
		Seed: 5, BaseRate: 500_000, PeakFactor: 4, Periods: 1,
		Horizon: 20 * clock.Millisecond,
	}
	a := d.Arrivals()
	// One period: trough at the edges, peak in the middle.
	mid, edge := 0, 0
	for _, ar := range a {
		q := float64(ar.At) / float64(d.Horizon)
		switch {
		case q >= 0.25 && q < 0.75:
			mid++
		default:
			edge++
		}
	}
	if mid <= edge*2 {
		t.Fatalf("no diurnal swing: mid-cycle %d vs edges %d", mid, edge)
	}
}

// TestPiecewiseArrivals: segment rates shape the stream, and parsing
// round-trips the -trace-file format.
func TestPiecewiseArrivals(t *testing.T) {
	parsed, err := ParseRateTrace(strings.NewReader(`
# rate_per_sec duration_ms
1000000 2
2000000 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("got %d segments, want 2", len(parsed))
	}
	// A zero-rate gap is a valid *programmatic* segment (a silent
	// window); the trace-file parser rejects it as a typo, so the gap is
	// built directly here.
	segs := []RateSegment{parsed[0], {RatePerSec: 0, Dur: clock.Millisecond}, parsed[1]}
	a := PiecewiseArrivals(11, segs)
	if !reflect.DeepEqual(a, PiecewiseArrivals(11, segs)) {
		t.Fatalf("same seed, different piecewise streams")
	}
	var n1, n0, n2 int
	for i, ar := range a {
		if i > 0 && ar.At < a[i-1].At {
			t.Fatalf("out of order at %d", i)
		}
		switch {
		case ar.At < 2*clock.Millisecond:
			n1++
		case ar.At < 3*clock.Millisecond:
			n0++
		default:
			n2++
		}
	}
	if n0 != 0 {
		t.Fatalf("%d arrivals inside the zero-rate segment", n0)
	}
	// Segment 3 runs at twice segment 1's rate for the same duration.
	if n1 == 0 || float64(n2) < 1.7*float64(n1) || float64(n2) > 2.3*float64(n1) {
		t.Fatalf("rate shape wrong: %d arrivals at 1M/s vs %d at 2M/s", n1, n2)
	}

	if _, err := ParseRateTrace(strings.NewReader("bogus line")); err == nil {
		t.Fatalf("malformed trace accepted")
	}
	if _, err := ParseRateTrace(strings.NewReader("# only comments\n")); err == nil {
		t.Fatalf("empty trace accepted")
	}
	if _, err := ParseRateTrace(strings.NewReader("100 -5")); err == nil {
		t.Fatalf("negative duration accepted")
	}
}

// TestParseRateTraceMalformed walks every malformed-input error path:
// wrong field counts, trailing garbage, non-numeric and non-finite
// values, zero and negative rates/durations. Each error must name the
// offending line number.
func TestParseRateTraceMalformed(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"one field", "1000"},
		{"three fields", "1000 2 3"},
		{"trailing garbage", "1000 2 # not a comment"},
		{"non-numeric rate", "fast 2"},
		{"non-numeric duration", "1000 long"},
		{"nan rate", "NaN 2"},
		{"inf rate", "+Inf 2"},
		{"inf duration", "1000 Inf"},
		{"negative rate", "-1 2"},
		{"zero rate", "0 2"},
		{"zero rate float", "0.0 2"},
		{"zero duration", "1000 0"},
		{"negative duration", "1000 -0.5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two valid leading lines pin the reported line number.
			in := "# header\n500 1\n" + tc.in + "\n"
			_, err := ParseRateTrace(strings.NewReader(in))
			if err == nil {
				t.Fatalf("ParseRateTrace accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), "line 3") {
				t.Fatalf("error %q does not name line 3", err)
			}
		})
	}
	// Whitespace-separated valid input still parses (Fields, not Split).
	segs, err := ParseRateTrace(strings.NewReader("  1000\t2.5  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].RatePerSec != 1000 ||
		segs[0].Dur != clock.Time(2.5*float64(clock.Millisecond)) {
		t.Fatalf("tab-separated segment parsed wrong: %+v", segs)
	}
}
