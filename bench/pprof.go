package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run records a runtime/pprof CPU profile around its sweep and
// charges each sample to the innermost retri/internal/<module> frame on
// its stack. This file decodes just enough of the gzipped profile.proto
// format for that, with the standard library only.

// errProfile reports a malformed profile.
var errProfile = errors.New("bench: malformed CPU profile")

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint or fixed value
	b    []byte // length-delimited payload
}

// pbFields decodes a protobuf message's top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProfile
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProfile
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProfile
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profileSamples decodes a gzipped CPU profile into sample counts per
// layer: the module of the innermost retri/internal frame, or "runtime"
// for stacks without one.
func profileSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: CPU profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct{ locs, values []uint64 }
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, sf := range fs {
				vs, err := pbUints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.values = append(s.values, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line: inlined callees come first
					ls, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = ff.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProfile
				}
				if m, ok := internalModule(strs[idx]); ok {
					layer = m
					break stack
				}
			}
		}
		out[layer] += int64(s.values[0])
	}
	return out, nil
}

// internalModule extracts <module> from a retri/internal/<module>.Func
// symbol.
func internalModule(fn string) (string, bool) {
	const prefix = "retri/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}
