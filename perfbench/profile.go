package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// gateBucket names the gate-layer share a function's self time goes to:
// "kernel" for the batched run kernels (assembly k* kernels and the
// generic Go batchEvalGo* kernels), "patch" for fault-hook installation
// and patching, "sweep" for the rest of the gate package (the per-cycle
// sweep and event loop), and "" outside the gate package.
func gateBucket(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/gate.")
	if !ok {
		return ""
	}
	if len(rest) > 1 && rest[0] == 'k' && rest[1] >= 'A' && rest[1] <= 'Z' || strings.HasPrefix(rest, "batchEvalGo") {
		return "kernel"
	}
	for _, p := range []string{"patchHooks", "applyHooks", "compileHook", "installFault", "ReplaceFaults",
		"pruneHooks", "SetFaults", "ClearFaults", "DropLaneFaults"} {
		if strings.HasPrefix(rest, "(*Sim)."+p) {
			return "patch"
		}
	}
	return "sweep"
}

// gateShares decodes a runtime/pprof CPU profile and returns the share of
// all sampled CPU time whose innermost function falls in each gate
// bucket, plus the total CPU seconds sampled.
func gateShares(gz []byte) (shares map[string]float64, cpuSeconds float64, err error) {
	self, err := profileSelf(gz)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	shares = map[string]float64{"sweep": 0, "kernel": 0, "patch": 0}
	for fn, ns := range self {
		total += ns
		if b := gateBucket(fn); b != "" {
			shares[b] += ns
		}
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, total / 1e9, nil
}

// profileSelf returns CPU nanoseconds per innermost function (inlined
// frames resolved to the function the instruction belongs to) from a
// gzipped profile.proto message as runtime/pprof writes it. Only the
// handful of fields needed are decoded.
func profileSelf(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		sampleTypes [][]byte
		samples     [][]byte
		locFunc     = make(map[uint64]uint64) // location id -> innermost function id
		funcName    = make(map[uint64]int64)  // function id -> string index
		strs        []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id, fn uint64
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if first {
						first = false
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU-time value is the sample type whose type string is "cpu".
	valueIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		_ = fields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(strs) && strs[v] == "cpu" {
				valueIdx = i
			}
			return nil
		})
	}
	out := make(map[string]float64)
	for _, s := range samples {
		var locs, vals []uint64
		err := fields(s, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				locs = appendPacked(locs, v, b)
			case 2:
				vals = appendPacked(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || valueIdx < 0 || valueIdx >= len(vals) {
			continue
		}
		name := "?"
		if si := funcName[locFunc[locs[0]]]; si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += float64(int64(vals[valueIdx]))
	}
	return out, nil
}

// appendPacked appends one repeated-integer field occurrence: a single
// varint (v, b == nil) or a packed run of varints (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field number
// and either its integer value (varint and fixed wire types, b == nil)
// or its bytes (length-delimited).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
