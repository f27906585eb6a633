package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the bucketing
// needs: each sample's stack as function names and files, innermost
// frame first, with inlined frames expanded.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	count int64
	stack []profFrame
}

type profFrame struct {
	name, file string
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes. Only the fields the bucketing reads are
// decoded; the rest are skipped.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	err = protoFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1: // location_id, packed or not
					ids, err := protoUints(v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: [samples, nanoseconds]
					vals, err := protoUints(v, data)
					if len(vals) > 0 {
						s.count = int64(vals[0])
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f rawFunc
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				f := funcs[fid]
				ps.stack = append(ps.stack, profFrame{name: str(f.name), file: str(f.file)})
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message. For varint
// fields fn gets the value in v; for length-delimited fields it gets
// the bytes in data. Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := protoVarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// protoUints returns a repeated integer field's values: v itself when
// the field arrived unpacked, or the varints packed in data.
func protoUints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := protoVarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}

// protoVarint decodes one varint, returning its length (0 if b is
// truncated or the varint overflows).
func protoVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
