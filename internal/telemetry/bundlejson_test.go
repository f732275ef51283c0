package telemetry_test

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// checkEncoder holds the bundle encoder to its oracle: Bundle.JSON
// writes exactly json.MarshalIndent's bytes, Digest is their FNV-64a,
// and both fail exactly where MarshalIndent does (NaN and ±Inf).
func checkEncoder(t *testing.T, b *telemetry.Bundle) {
	t.Helper()
	want, wantErr := json.MarshalIndent(b, "", "  ")
	got, err := b.JSON()
	sum, sumErr := b.Digest()
	if (err != nil) != (wantErr != nil) || (sumErr != nil) != (wantErr != nil) {
		t.Fatalf("errors differ: JSON %v, Digest %v, MarshalIndent %v", err, sumErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("JSON differs from MarshalIndent at byte %d:\n got %q\nwant %q",
			i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
	h := fnv.New64a()
	h.Write(want)
	if sum != h.Sum64() {
		t.Fatalf("Digest %#x, want FNV-64a of the JSON bytes %#x", sum, h.Sum64())
	}
}

// oddFloats are the values where encoding/json's float rules turn:
// both zeros, either side of the 1e-6 and 1e21 format switches,
// subnormals, and the extremes.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e-7, -1e-7, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	5e-324, -5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, -math.MaxFloat64,
	1e300, 123456789.125, 0.1,
}

// oddPieces are the string fragments encoding/json escapes specially:
// HTML-sensitive and quoting bytes, every C0 control byte, the JSONP
// line separators, and invalid or truncated UTF-8.
var oddPieces = func() []string {
	p := []string{"<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\xff", "\xc3", "\xe2\x80",
		"\x7f", "é", "日本", "plain", "reason=pte-update", " "}
	for c := 0; c < 0x20; c++ {
		p = append(p, string(rune(c)))
	}
	return p
}()

type gen struct{ r *rand.Rand }

func (g gen) str() string {
	var b []byte
	for n := g.r.Intn(5); n > 0; n-- {
		b = append(b, oddPieces[g.r.Intn(len(oddPieces))]...)
	}
	return string(b)
}

func (g gen) float(special bool) float64 {
	if special && g.r.Intn(40) == 0 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(3)]
	}
	if g.r.Intn(3) == 0 {
		return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(60)-30))
	}
	return oddFloats[g.r.Intn(len(oddFloats))]
}

func (g gen) int() int64 {
	switch g.r.Intn(4) {
	case 0:
		return 0
	case 1:
		return -g.r.Int63()
	}
	return g.r.Int63n(1 << uint(g.r.Intn(62)+1))
}

// count picks how a slice is shaped: -1 for nil, else a length.
func (g gen) count() int { return g.r.Intn(5) - 1 }

func (g gen) labels() map[string]string {
	n := g.count()
	if n < 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		m[g.str()] = g.str()
	}
	return m
}

func (g gen) bundle(special bool) *telemetry.Bundle {
	b := &telemetry.Bundle{Reason: g.str(), AtNs: g.int(), Runtime: g.str(), Node: int(g.int())}
	if g.r.Intn(2) == 0 {
		b.Alert = &telemetry.Alert{SLO: g.str(), Severity: g.str(), Labels: g.labels(),
			FiredAtNs: g.int(), ResolvedAtNs: g.int(), ShortBurn: g.float(special), LongBurn: g.float(special)}
	}
	if n := g.count(); n >= 0 {
		b.Series = make([]*telemetry.Series, n)
		for i := range b.Series {
			if g.r.Intn(8) == 0 {
				continue // a nil element
			}
			s := &telemetry.Series{Name: g.str(), Kind: g.str(), Labels: g.labels(), FirstTick: int(g.int())}
			if m := g.count(); m >= 0 {
				s.Windows = make([]telemetry.Window, m)
				for j := range s.Windows {
					s.Windows[j] = telemetry.Window{Tick: int(g.int()), AtNs: g.int(),
						Delta: g.float(special), Value: g.float(special), Total: g.float(special),
						Count: uint64(g.int()) * uint64(g.r.Intn(2)),
						P50Ns: g.float(special), P99Ns: g.float(special)}
				}
			}
			b.Series[i] = s
		}
	}
	if n := g.count(); n >= 0 {
		b.Spans = make([]trace.Span, n)
		for i := range b.Spans {
			b.Spans[i] = trace.Span{ID: int(g.int()), Parent: int(g.int()), Phase: g.str(),
				At: clock.Time(g.int()), Dur: clock.Time(g.int()), VCPU: int(g.int()), PID: int(g.int()),
				Node: int(g.int()), Async: g.r.Intn(2) == 0}
		}
	}
	if n := g.count(); n >= 0 {
		b.Events = make([]telemetry.BundleEvent, n)
		for i := range b.Events {
			b.Events[i] = telemetry.BundleEvent{AtPs: g.int(), Kind: g.str(), VCPU: int(g.int()), Detail: g.str()}
		}
	}
	return b
}

// randBundle makes random Bundles for testing/quick.
type randBundle struct{ B *telemetry.Bundle }

func (randBundle) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randBundle{gen{r}.bundle(r.Intn(4) == 0)})
}

// TestBundleEncoderMatchesMarshalIndent compares the encoder with its
// oracle over random bundles covering every nil/empty/non-empty slice
// and map shape, the float format switches, and the escaped strings.
func TestBundleEncoderMatchesMarshalIndent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 200
	}
	if err := quick.Check(func(rb randBundle) bool {
		checkEncoder(t, rb.B)
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	checkEncoder(t, nil)
	checkEncoder(t, &telemetry.Bundle{})
}

// sloShaped builds a small bundle in the shape the slo experiment
// dumps: labelled histogram series of a few windows, a span tree and
// an audit tail; alert-triggered when alert is true.
func sloShaped(alert bool) *telemetry.Bundle {
	b := &telemetry.Bundle{Reason: "watchdog", AtNs: 11336482, Node: 1, Runtime: "CKI-BM"}
	if alert {
		b.Reason, b.Node = "alert", 0
		b.Alert = &telemetry.Alert{SLO: "latency-p99", Severity: "page",
			Labels: map[string]string{"runtime": "CKI-BM"}, FiredAtNs: 60000, ShortBurn: 14.4, LongBurn: 6.25}
	}
	for i := 0; i < 2; i++ {
		s := &telemetry.Series{Name: "syscall_latency_ns", Kind: "histogram", FirstTick: 10,
			Labels: map[string]string{"container": string(rune('0' + i)), "node": "1"}}
		for t := 0; t < 3; t++ {
			s.Windows = append(s.Windows, telemetry.Window{Tick: 10 + t, AtNs: int64(5670628 + 515420*t),
				Total: float64(22 + 2*t), Count: 2, P50Ns: 512, P99Ns: 1024.5})
		}
		b.Series = append(b.Series, s)
	}
	for i := 0; i < 4; i++ {
		b.Spans = append(b.Spans, trace.Span{ID: 9000 + i, Parent: 9000 + i - i%4 - 1, Phase: "gate_call",
			At: clock.Time(i) * 7 * clock.Microsecond, Dur: 700 * clock.Nanosecond, VCPU: i % 2, PID: 1, Node: 1})
	}
	for i := 0; i < 3; i++ {
		b.Events = append(b.Events, telemetry.BundleEvent{AtPs: int64(i) * 7_000_000,
			Kind: "syscall", VCPU: i % 2, Detail: "nr=39 reason=pte-update"})
	}
	return b
}

// FuzzBundleEncode keeps the encoder to its oracle on hostile input,
// never panicking. Its seeds are small bundles in the slo experiment's
// shape (internal/bench checks every bundle the experiment dumps byte
// for byte); each input is a bundle's JSON with one float and one
// string planted into it, so the fuzzer reaches NaN, ±Inf and invalid
// UTF-8 (which JSON decoding alone cannot produce).
func FuzzBundleEncode(f *testing.F) {
	for i, b := range []*telemetry.Bundle{sloShaped(false), sloShaped(true)} {
		data, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, oddFloats[i], oddPieces[i])
	}
	f.Add([]byte(`{"reason":"alert","series":[null],"spans":[],"events":null}`), math.NaN(), "\xff<&>")
	f.Add([]byte(`{}`), math.Inf(-1), "\u2028")

	f.Fuzz(func(t *testing.T, data []byte, x float64, s string) {
		var b telemetry.Bundle
		if json.Unmarshal(data, &b) != nil {
			return
		}
		b.Runtime += s
		if b.Alert == nil {
			b.Alert = &telemetry.Alert{SLO: s}
		}
		b.Alert.LongBurn = x
		for _, sr := range b.Series {
			if sr != nil && len(sr.Windows) > 0 {
				sr.Windows[0].P99Ns = x
				sr.Name += s
				break
			}
		}
		if len(b.Events) > 0 {
			b.Events[0].Detail += s
		}
		checkEncoder(t, &b)
	})
}
