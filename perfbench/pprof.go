package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// leaf is the flat sample count of one leaf function.
type leaf struct {
	function string
	file     string
	samples  int64
}

// leafSamples decodes a gzipped pprof CPU profile (profile.proto) far
// enough to attribute every sample to its leaf function: the innermost
// line of the sample's first location. It reads only the fields it
// needs and skips the rest.
func leafSamples(prof []byte) ([]leaf, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type function struct{ name, file int64 }
	var (
		strs      []string
		samples   [][2]uint64 // leaf location id, sample count
		locFunc   = make(map[uint64]uint64)
		functions = make(map[uint64]function)
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var loc, count uint64
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					if b == nil {
						if first {
							loc, first = v, false
						}
						return nil
					}
					if id, n := binary.Uvarint(b); n > 0 && first {
						loc, first = id, false
					}
				case 2: // value: [samples, cpu nanoseconds]
					if b == nil {
						if count == 0 {
							count = v
						}
						return nil
					}
					if c, n := binary.Uvarint(b); n > 0 {
						count = c
					}
				}
				return nil
			})
			samples = append(samples, [2]uint64{loc, count})
			return err
		case 4: // location
			var id, fn uint64
			var haveLine bool
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var f function
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			functions[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	byName := make(map[[2]string]int64)
	for _, s := range samples {
		f := functions[locFunc[s[0]]]
		byName[[2]string{str(f.name), str(f.file)}] += int64(s[1])
	}
	out := make([]leaf, 0, len(byName))
	for k, n := range byName {
		out = append(out, leaf{function: k[0], file: k[1], samples: n})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling f for every field: v holds
// varint and fixed-width values, b the payload of length-delimited ones
// (nil for the others).
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
