package telemetry

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/trace"
)

// The bundle encoder: a reflection-free writer of exactly the bytes
// json.MarshalIndent(b, "", "  ") produces for a Bundle — the same
// field order, omitempty rules, sorted label maps, null for nil slices
// and [] for empty ones, and encoding/json's HTML-safe string escaping
// and float formatting. json.MarshalIndent remains its test oracle.
// Bundle.JSON keeps the bytes; Bundle.Digest streams them through
// FNV-64a in fixed chunks without ever holding the whole document.

// digestChunk is how many encoded bytes Digest accumulates before
// hashing them; its buffer leaves headroom for one more element.
const digestChunk = 4 << 10

// bundleEncoder carries the encoder's state between its append
// functions. The output buffer is passed through them rather than
// stored here, which lets Digest's fixed chunk live on the stack.
type bundleEncoder struct {
	depth int
	// first is true right after an opening bracket, before the first
	// member of that object or array.
	first bool
	err   error
	// digest makes spill hash the buffered bytes into sum and drop them.
	digest bool
	sum    uint64
}

// JSON renders the bundle as deterministic indented JSON: the bytes of
// json.MarshalIndent(b, "", "  "), written by the reflection-free
// bundle encoder.
func (b *Bundle) JSON() ([]byte, error) {
	var e bundleEncoder
	buf := e.bundle(nil, b)
	if e.err != nil {
		return nil, e.err
	}
	return buf, nil
}

// Digest returns the FNV-64a hash of the bundle's JSON bytes (those of
// JSON, without the trailing newline a bundle file adds), encoding in
// fixed chunks so the document is never materialized.
func (b *Bundle) Digest() (uint64, error) {
	var chunk [2 * digestChunk]byte
	e := bundleEncoder{digest: true, sum: fnvOffset}
	buf := e.bundle(chunk[:0], b)
	return fnvUpdate(e.sum, buf), e.err
}

// spill hashes and drops the buffered bytes once a chunk has filled.
func (e *bundleEncoder) spill(buf []byte) []byte {
	if e.digest && len(buf) >= digestChunk {
		e.sum = fnvUpdate(e.sum, buf)
		return buf[:0]
	}
	return buf
}

func (e *bundleEncoder) newline(buf []byte) []byte {
	buf = append(buf, '\n')
	for i := 0; i < e.depth; i++ {
		buf = append(buf, ' ', ' ')
	}
	return buf
}

func (e *bundleEncoder) open(buf []byte, c byte) []byte {
	e.depth++
	e.first = true
	return append(buf, c)
}

func (e *bundleEncoder) close(buf []byte, c byte) []byte {
	e.depth--
	e.first = false
	return append(e.newline(buf), c)
}

// next starts an object member or array element.
func (e *bundleEncoder) next(buf []byte) []byte {
	if !e.first {
		buf = append(buf, ',')
	}
	e.first = false
	return e.newline(buf)
}

// field starts an object member; names are plain ASCII literals.
func (e *bundleEncoder) field(buf []byte, name string) []byte {
	buf = append(e.next(buf), '"')
	buf = append(buf, name...)
	return append(buf, '"', ':', ' ')
}

// array writes null for a nil array and [] for an empty one, else
// opens it and reports that elements follow.
func (e *bundleEncoder) array(buf []byte, isNil bool, n int) ([]byte, bool) {
	switch {
	case isNil:
		return append(buf, "null"...), false
	case n == 0:
		return append(buf, '[', ']'), false
	}
	return e.open(buf, '['), true
}

func appendInt(buf []byte, v int) []byte { return strconv.AppendInt(buf, int64(v), 10) }

// float follows encoding/json: 'f' format, switching to 'e' below
// 1e-6 or at 1e21 and above with a one-digit negative exponent
// unpadded; NaN and ±Inf are an error.
func (e *bundleEncoder) float(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("telemetry: bundle: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return append(buf, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// optFloat writes an omitempty float member.
func (e *bundleEncoder) optFloat(buf []byte, name string, v float64) []byte {
	if v == 0 {
		return buf
	}
	return e.float(e.field(buf, name), v)
}

// labels writes a label map with its keys sorted, as encoding/json
// orders map keys.
func (e *bundleEncoder) labels(buf []byte, m map[string]string) []byte {
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = e.open(buf, '{')
	for _, k := range keys {
		buf = appendJSONString(e.next(buf), k)
		buf = appendJSONString(append(buf, ':', ' '), m[k])
	}
	return e.close(buf, '}')
}

func (e *bundleEncoder) bundle(buf []byte, b *Bundle) []byte {
	if b == nil {
		return append(buf, "null"...)
	}
	buf = e.open(buf, '{')
	buf = appendJSONString(e.field(buf, "reason"), b.Reason)
	buf = strconv.AppendInt(e.field(buf, "at_ns"), b.AtNs, 10)
	if b.Node != 0 {
		buf = appendInt(e.field(buf, "node"), b.Node)
	}
	if b.Runtime != "" {
		buf = appendJSONString(e.field(buf, "runtime"), b.Runtime)
	}
	if b.Alert != nil {
		buf = e.alert(e.field(buf, "alert"), b.Alert)
	}
	var more bool
	if buf, more = e.array(e.field(buf, "series"), b.Series == nil, len(b.Series)); more {
		for _, s := range b.Series {
			buf = e.series(e.next(buf), s)
		}
		buf = e.close(buf, ']')
	}
	if buf, more = e.array(e.field(buf, "spans"), b.Spans == nil, len(b.Spans)); more {
		for i := range b.Spans {
			buf = e.spill(e.span(e.next(buf), &b.Spans[i]))
		}
		buf = e.close(buf, ']')
	}
	if buf, more = e.array(e.field(buf, "events"), b.Events == nil, len(b.Events)); more {
		for i := range b.Events {
			buf = e.spill(e.event(e.next(buf), &b.Events[i]))
		}
		buf = e.close(buf, ']')
	}
	return e.close(buf, '}')
}

func (e *bundleEncoder) alert(buf []byte, a *Alert) []byte {
	buf = e.open(buf, '{')
	buf = appendJSONString(e.field(buf, "slo"), a.SLO)
	buf = appendJSONString(e.field(buf, "severity"), a.Severity)
	if len(a.Labels) > 0 {
		buf = e.labels(e.field(buf, "labels"), a.Labels)
	}
	buf = strconv.AppendInt(e.field(buf, "fired_at_ns"), a.FiredAtNs, 10)
	if a.ResolvedAtNs != 0 {
		buf = strconv.AppendInt(e.field(buf, "resolved_at_ns"), a.ResolvedAtNs, 10)
	}
	buf = e.float(e.field(buf, "short_burn"), a.ShortBurn)
	buf = e.float(e.field(buf, "long_burn"), a.LongBurn)
	return e.close(buf, '}')
}

func (e *bundleEncoder) series(buf []byte, s *Series) []byte {
	if s == nil {
		return append(buf, "null"...)
	}
	buf = e.open(buf, '{')
	buf = appendJSONString(e.field(buf, "name"), s.Name)
	buf = appendJSONString(e.field(buf, "kind"), s.Kind)
	if len(s.Labels) > 0 {
		buf = e.labels(e.field(buf, "labels"), s.Labels)
	}
	buf = appendInt(e.field(buf, "first_tick"), s.FirstTick)
	var more bool
	if buf, more = e.array(e.field(buf, "windows"), s.Windows == nil, len(s.Windows)); more {
		for i := range s.Windows {
			buf = e.spill(e.window(e.next(buf), &s.Windows[i]))
		}
		buf = e.close(buf, ']')
	}
	return e.close(buf, '}')
}

func (e *bundleEncoder) window(buf []byte, w *Window) []byte {
	buf = e.open(buf, '{')
	buf = appendInt(e.field(buf, "tick"), w.Tick)
	buf = strconv.AppendInt(e.field(buf, "at_ns"), w.AtNs, 10)
	buf = e.optFloat(buf, "delta", w.Delta)
	buf = e.optFloat(buf, "value", w.Value)
	buf = e.optFloat(buf, "total", w.Total)
	if w.Count != 0 {
		buf = strconv.AppendUint(e.field(buf, "count"), w.Count, 10)
	}
	buf = e.optFloat(buf, "p50_ns", w.P50Ns)
	buf = e.optFloat(buf, "p99_ns", w.P99Ns)
	return e.close(buf, '}')
}

func (e *bundleEncoder) span(buf []byte, s *trace.Span) []byte {
	buf = e.open(buf, '{')
	buf = appendInt(e.field(buf, "id"), s.ID)
	buf = appendInt(e.field(buf, "parent"), s.Parent)
	buf = appendJSONString(e.field(buf, "phase"), s.Phase)
	buf = strconv.AppendInt(e.field(buf, "at"), int64(s.At), 10)
	buf = strconv.AppendInt(e.field(buf, "dur"), int64(s.Dur), 10)
	buf = appendInt(e.field(buf, "vcpu"), s.VCPU)
	buf = appendInt(e.field(buf, "pid"), s.PID)
	if s.Node != 0 {
		buf = appendInt(e.field(buf, "node"), s.Node)
	}
	if s.Async {
		buf = append(e.field(buf, "async"), "true"...)
	}
	return e.close(buf, '}')
}

func (e *bundleEncoder) event(buf []byte, ev *BundleEvent) []byte {
	buf = e.open(buf, '{')
	buf = strconv.AppendInt(e.field(buf, "at_ps"), ev.AtPs, 10)
	buf = appendJSONString(e.field(buf, "kind"), ev.Kind)
	buf = appendInt(e.field(buf, "vcpu"), ev.VCPU)
	buf = appendJSONString(e.field(buf, "detail"), ev.Detail)
	return e.close(buf, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with
// encoding/json's escaping: '"' and '\\' backslashed; \b, \f, \n, \r
// and \t short-escaped; other control bytes and the HTML-sensitive
// '<', '>' and '&' as \u00XX; U+2028 and U+2029 as \u202X; and each
// byte of invalid UTF-8 as the six characters \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
