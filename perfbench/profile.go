package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU attribution. A sample belongs to the layer of the innermost stack
// frame in this module; samples with no module frame belong to runtime.

// modulePath is the import path of the system under test.
const modulePath = "github.com/fastba/fastba"

// layers are the CPU-share layers, in report order. The internal packages
// on the append path have their own layer, the root package splits by
// file, and everything else in the module (other internal packages, the
// rest of the root package, this benchmark's own load generator) is other.
var layers = []string{
	"sampler", "prng", "core", "pipeline", "simnet", "log",
	"netrun", "wire", "store", "server", "client", "runtime", "other",
}

// frame is one function in a sampled stack.
type frame struct {
	fn   string // fully qualified function name, as the profile names it
	file string
}

// sample is one profile sample: its stack, innermost frame first, and
// its weight (CPU nanoseconds).
type sample struct {
	stack  []frame
	weight int64
}

// layerOf names the layer a frame belongs to, or reports false when the
// frame is outside this module.
func layerOf(f frame) (string, bool) {
	switch {
	case strings.HasPrefix(f.fn, "main."):
		return "other", true
	case strings.HasPrefix(f.fn, modulePath+"."):
		switch path.Base(f.file) {
		case "client.go":
			return "client", true
		case "log.go":
			return "log", true
		}
		return "other", true
	case strings.HasPrefix(f.fn, modulePath+"/internal/"):
		pkg := strings.TrimPrefix(f.fn, modulePath+"/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l, true
			}
		}
		return "other", true
	case strings.HasPrefix(f.fn, modulePath+"/"):
		return "other", true
	}
	return "", false
}

// cpuShares attributes samples to layers. Every layer is present in the
// result, and the shares sum to 1 unless there are no samples.
func cpuShares(samples []sample) map[string]float64 {
	weight := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		layer := "runtime"
		for _, f := range s.stack {
			if l, ok := layerOf(f); ok {
				layer = l
				break
			}
		}
		weight[layer] += s.weight
		total += s.weight
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(weight[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) into
// samples weighted by their last value, the CPU time.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64][2]int64{} // function id → name, filename string indexes
	)
	err = fields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wt, v, b)
				case 2:
					for _, u := range appendUints(nil, wt, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, wt int, v uint64, b []byte) error {
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
			var names [2]int64
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					names[0] = int64(v)
				case 4:
					names[1] = int64(v)
				}
				return nil
			})
			funcs[id] = names
			return err
		case 6: // string table
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
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.values) == 0 {
			continue
		}
		s := sample{weight: rs.values[len(rs.values)-1]}
		for _, loc := range rs.locs {
			for _, fn := range locs[loc] {
				names := funcs[fn]
				s.stack = append(s.stack, frame{fn: str(names[0]), file: str(names[1])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks one protobuf message, calling visit with each field's
// number, wire type, and its varint value or length-delimited bytes.
func fields(b []byte, visit func(num, wireType int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := visit(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst []uint64, wireType int, v uint64, b []byte) []uint64 {
	if wireType != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
