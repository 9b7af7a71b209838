package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// flatSamples reads a runtime/pprof CPU profile and returns, per leaf
// function, how many samples ended in it: what `go tool pprof -top` lists
// as flat. The profile is gzipped protobuf (profile.proto); only the five
// fields needed are decoded.
func flatSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}

	var strs []string
	leafFunc := map[uint64]uint64{} // location id -> function id of its innermost line
	funcName := map[uint64]uint64{} // function id -> string index
	leaves := map[uint64]int64{}    // location id -> samples ending there
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id = 1 (leaf first), value = 2 (samples, ns)
			var leaf, count uint64
			var haveLeaf, haveCount bool
			if err := fields(b, func(num int, v uint64, b []byte) error {
				first := func() (uint64, bool) {
					if b == nil {
						return v, true
					}
					x, n := binary.Uvarint(b)
					return x, n > 0
				}
				if num == 1 && !haveLeaf {
					leaf, haveLeaf = first()
				}
				if num == 2 && !haveCount {
					count, haveCount = first()
				}
				return nil
			}); err != nil {
				return err
			}
			if haveLeaf {
				leaves[leaf] += int64(count)
			}
		case 4: // Location: id = 1, line = 4 (innermost first) { function_id = 1 }
			var id, fn uint64
			var haveFn bool
			if err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveFn:
					haveFn = true
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			if err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}

	flat := map[string]int64{}
	for loc, n := range leaves {
		name := "unknown"
		if idx := funcName[leafFunc[loc]]; idx > 0 && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		flat[name] += n
	}
	return flat, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2:
			ln, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < ln {
				return fmt.Errorf("bad length")
			}
			b = msg[n : n+int(ln) : n+int(ln)]
			msg = msg[n+int(ln):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}
