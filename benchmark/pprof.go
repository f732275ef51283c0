package main

// A reader for the pprof profile format (gzip-compressed protocol
// buffers, as runtime/pprof writes them) that keeps only what the
// module fold needs, and the fold itself: every sample is charged to
// the repository module of its innermost repro/internal frame.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

var errProfile = errors.New("malformed profile")

// profile is a decoded pprof profile.
type profile struct {
	types   []valueType
	samples []profSample
	// frames maps a location ID to its function names, innermost
	// inlined frame first, so a sample's locations expand leaf-first.
	frames map[uint64][]string
}

type valueType struct{ typ, unit string }

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// fields walks the protocol-buffer fields of b, passing each one's
// number, wire type, varint or fixed value, and length-delimited
// payload to fn.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := int(key & 7); wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed pprof profile.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Names are string-table indices until the whole message is read.
	var strs []string
	var types [][2]uint64
	funcs := map[uint64]uint64{}  // function ID → name index
	locs := map[uint64][]uint64{} // location ID → function IDs
	p := &profile{}
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			types = append(types, t)
			return fields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					types[len(types)-1][num-1] = v
				}
				return nil
			})
		case 2: // sample
			var s profSample
			var vals []uint64
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case 2:
					vals, err = appendUints(vals, wire, v, data)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: one per inlined frame, innermost first
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5: // function
			var id, name uint64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errProfile
		}
		return strs[i], nil
	}
	for _, t := range types {
		typ, err1 := str(t[0])
		unit, err2 := str(t[1])
		if err := errors.Join(err1, err2); err != nil {
			return nil, err
		}
		p.types = append(p.types, valueType{typ, unit})
	}
	p.frames = make(map[uint64][]string, len(locs))
	for id, fids := range locs {
		names := make([]string, len(fids))
		for i, fid := range fids {
			name, ok := funcs[fid]
			if !ok {
				return nil, errProfile
			}
			if names[i], err = str(name); err != nil {
				return nil, err
			}
		}
		p.frames[id] = names
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.types) {
			return nil, errProfile
		}
	}
	return p, nil
}

// valueIndex returns the index of the sample value of the given type.
func (p *profile) valueIndex(typ, unit string) (int, error) {
	for i, t := range p.types {
		if t == (valueType{typ, unit}) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %s/%s values", typ, unit)
}

const internalPrefix = "repro/internal/"

// moduleOf returns the repository module a function belongs to
// ("guest" for repro/internal/guest.(*Kernel).fileWrite), or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// moduleFold is one profile value folded onto the repository modules.
type moduleFold struct {
	// self charges each sample to the module of its innermost
	// repro/internal frame, so runtime and standard-library frames are
	// charged to the module that called them; incl charges it once to
	// every module on its stack.
	self, incl map[string]float64
	// harness is samples with no module frame but a frame of the
	// benchmark itself; bg is samples with neither (GC workers,
	// scavenger, profiler).
	harness, bg float64
}

// fold folds the sample values of the given type by module.
func (p *profile) fold(typ, unit string) (moduleFold, error) {
	vi, err := p.valueIndex(typ, unit)
	if err != nil {
		return moduleFold{}, err
	}
	f := moduleFold{self: map[string]float64{}, incl: map[string]float64{}}
	seen := map[string]bool{}
	for _, s := range p.samples {
		v := float64(s.values[vi])
		self, harness := "", false
		clear(seen)
		for _, loc := range s.locs {
			for _, fn := range p.frames[loc] {
				if m := moduleOf(fn); m != "" {
					if self == "" {
						self = m
					}
					seen[m] = true
				} else if strings.HasPrefix(fn, "main.") {
					harness = true
				}
			}
		}
		switch {
		case self != "":
			f.self[self] += v
		case harness:
			f.harness += v
		default:
			f.bg += v
		}
		for m := range seen {
			f.incl[m] += v
		}
	}
	return f, nil
}
