package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a CPU profile in memory and splits its samples by
// package. The profile is the gzipped protobuf runtime/pprof writes; the
// small decoder below reads only the fields the split needs.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// repoPrefix is the import path prefix of the program's packages.
const repoPrefix = "github.com/rtcl/drtp/internal/"

// gcRoots are the runtime functions under which garbage collection work
// runs, in the background or as allocation assists.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// stop ends profiling. It returns each program package's flat share of the
// CPU time sampled (keyed by the package's last path element) and the
// share spent in garbage collection.
func (p *cpuProfile) stop() (map[string]float64, float64, error) {
	pprof.StopCPUProfile()
	prof, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("decode cpu profile: %w", err)
	}
	flat := make(map[string]int64)
	var total, gc int64
	for _, s := range prof.samples {
		total += s.value
		if len(s.stack) == 0 {
			continue
		}
		if leaf := s.stack[0]; strings.HasPrefix(leaf, repoPrefix) {
			pkg := leaf[len(repoPrefix):]
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			flat[pkg] += s.value
		}
		for _, fn := range s.stack {
			if isGCRoot(fn) {
				gc += s.value
				break
			}
		}
	}
	shares := make(map[string]float64, len(flat))
	for pkg, v := range flat {
		shares[pkg] = ratio(float64(v), float64(total))
	}
	return shares, ratio(float64(gc), float64(total)), nil
}

func isGCRoot(fn string) bool {
	for _, r := range gcRoots {
		if fn == r {
			return true
		}
	}
	return false
}

// profSample is one decoded sample: its CPU nanoseconds and its stack as
// function names, leaf first (inlined frames expanded).
type profSample struct {
	value int64
	stack []string
}

type decodedProfile struct {
	samples []profSample
}

// decodeProfile reads a gzipped profile.proto message.
func decodeProfile(gz []byte) (*decodedProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &decodedProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		ps := profSample{value: s.values[1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField calls fn for every field of a protobuf message: varint fields
// pass their value in v, length-delimited ones their bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errBadProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errBadProto
			}
			msg = msg[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one value
// or packed.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
