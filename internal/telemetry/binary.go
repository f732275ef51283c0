package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/clock"
)

// The CKITS1 binary time-series format: a compact canonical encoding
// of a Store for artifacts and the ckimon CLI.
//
//	magic   "CKITS1\x00\x01"           (8 bytes: name + format version)
//	header  u64 interval_ps, u32 depth, u32 ticks, u32 nseries
//	series  str name, str kind, u16 nlabels, nlabels × (str k, str v),
//	        u32 first_tick, u32 nwindows, nwindows × window
//	window  i64 at_ns, f64 delta, f64 value, f64 total, u64 count,
//	        f64 p50_ns, f64 p99_ns          (ticks are recomputed)
//	trailer u64 FNV-64a of everything before it
//
// str is u16 length + bytes. All integers are little-endian. Labels
// encode in sorted key order, so the bytes are canonical: the same
// store state always encodes to the same bytes.

var binMagic = [8]byte{'C', 'K', 'I', 'T', 'S', '1', 0, 1}

// DecodeError is a typed binary-decode failure naming the offset.
type DecodeError struct {
	Off int
	Msg string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("telemetry: bad CKITS1 data at offset %d: %s", e.Off, e.Msg)
}

// fnvOffset is the FNV-64a initial state: the artifact fingerprint
// hash shared by the binary trailer and bundle digests.
const fnvOffset = 0xcbf29ce484222325

func fnv64a(data []byte) uint64 { return fnvUpdate(fnvOffset, data) }

// fnvUpdate folds data into the running FNV-64a state h.
func fnvUpdate(h uint64, data []byte) uint64 {
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

type binWriter struct{ buf []byte }

func (w *binWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *binWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *binWriter) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// EncodeBinary renders the store in the CKITS1 format.
func (st *Store) EncodeBinary() []byte {
	w := &binWriter{}
	w.buf = append(w.buf, binMagic[:]...)
	w.u64(uint64(st.Interval))
	w.u32(uint32(st.Depth))
	w.u32(uint32(st.ticks))
	w.u32(uint32(len(st.series)))
	for _, s := range st.series {
		w.str(s.Name)
		w.str(s.Kind)
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.u16(uint16(len(keys)))
		for _, k := range keys {
			w.str(k)
			w.str(s.Labels[k])
		}
		w.u32(uint32(s.FirstTick))
		w.u32(uint32(len(s.Windows)))
		for _, win := range s.Windows {
			w.u64(uint64(win.AtNs))
			w.f64(win.Delta)
			w.f64(win.Value)
			w.f64(win.Total)
			w.u64(win.Count)
			w.f64(win.P50Ns)
			w.f64(win.P99Ns)
		}
	}
	w.u64(fnv64a(w.buf))
	return w.buf
}

type binReader struct {
	buf []byte
	off int
	err *DecodeError
}

func (r *binReader) fail(msg string) {
	if r.err == nil {
		r.err = &DecodeError{Off: r.off, Msg: msg}
	}
}

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated")
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *binReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *binReader) str() string {
	n := int(r.u16())
	b := r.take(n)
	return string(b)
}

// DecodeBinary parses CKITS1 bytes back into a Store, verifying the
// magic, structure, and checksum trailer. Every failure is a
// *DecodeError naming the offending offset.
func DecodeBinary(data []byte) (*Store, error) {
	if len(data) < len(binMagic)+8 {
		return nil, &DecodeError{Off: 0, Msg: "too short for magic and trailer"}
	}
	for i, m := range binMagic {
		if data[i] != m {
			return nil, &DecodeError{Off: i, Msg: "bad magic (not a CKITS1 file?)"}
		}
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if sum := binary.LittleEndian.Uint64(trailer); sum != fnv64a(body) {
		return nil, &DecodeError{Off: len(body), Msg: "checksum mismatch (corrupt or torn write)"}
	}
	r := &binReader{buf: body, off: len(binMagic)}
	st := NewStore(clock.Time(r.u64()), int(r.u32()))
	st.ticks = int(r.u32())
	nseries := int(r.u32())
	for i := 0; i < nseries && r.err == nil; i++ {
		s := &Series{Name: r.str(), Kind: r.str()}
		nlabels := int(r.u16())
		var labels []struct{ k, v string }
		for j := 0; j < nlabels && r.err == nil; j++ {
			k, v := r.str(), r.str()
			labels = append(labels, struct{ k, v string }{k, v})
		}
		if len(labels) > 0 {
			s.Labels = make(map[string]string, len(labels))
			var b []byte
			b = append(b, s.Name...)
			for _, l := range labels {
				s.Labels[l.k] = l.v
				b = append(b, '|')
				b = append(b, l.k...)
				b = append(b, '=')
				b = append(b, l.v...)
			}
			s.key = string(b)
		} else {
			s.key = s.Name
		}
		s.FirstTick = int(r.u32())
		nwin := int(r.u32())
		if r.err == nil && nwin > len(body) {
			r.fail("window count exceeds input size")
		}
		for j := 0; j < nwin && r.err == nil; j++ {
			s.Windows = append(s.Windows, Window{
				Tick:  s.FirstTick + j,
				AtNs:  int64(r.u64()),
				Delta: r.f64(),
				Value: r.f64(),
				Total: r.f64(),
				Count: r.u64(),
				P50Ns: r.f64(),
				P99Ns: r.f64(),
			})
		}
		if r.err == nil {
			st.byKey[s.key] = s
			st.series = append(st.series, s)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, &DecodeError{Off: r.off, Msg: "trailing bytes after last series"}
	}
	return st, nil
}
