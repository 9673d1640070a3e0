package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host CPU is attributed to the repository's modules. repoModules are the
// ones a stack frame can belong to; a sample with no repository frame is
// "gc" under a GC worker and "runtime" otherwise.
var repoModules = []string{
	"paradice", "kernel", "cvd", "hv", "mem", "driver", "sim", "trace", "load", "other", "bench",
}

var cpuBuckets = append(append([]string{}, repoModules...), "gc", "runtime")

// moduleOf maps a Go function name to its repository module, or "" for a
// frame outside the repository. The benchmark itself is package main.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "paradice/internal/"):
		pkg := strings.TrimPrefix(fn, "paradice/internal/")
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "kernel", "cvd", "mem", "sim", "trace", "load":
			return pkg
		case "hv", "grant", "iommu":
			return "hv"
		case "driver", "device":
			return "driver"
		}
		return "other"
	case strings.HasPrefix(fn, "paradice."):
		return "paradice"
	}
	return ""
}

// gcRoots are the runtime functions GC work runs under.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares reads a gzipped pprof CPU profile and returns, per module, the
// share of samples whose innermost repository frame is in it
// (host.cpu.<m>) and the share with any frame in it (host.cpu_cum.<m>).
func cpuShares(gz []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	self := make(map[string]float64)
	cum := make(map[string]float64)
	var total float64
	for _, s := range stacks {
		total += s.weight
		seen := make(map[string]bool)
		inner := ""
		for _, fn := range s.funcs { // innermost first
			m := moduleOf(fn)
			if m == "" {
				continue
			}
			if inner == "" {
				inner = m
			}
			seen[m] = true
		}
		if inner == "" {
			inner = "runtime"
			for _, fn := range s.funcs {
				for _, root := range gcRoots {
					if fn == root {
						inner = "gc"
					}
				}
			}
		}
		self[inner] += s.weight
		for m := range seen {
			cum[m] += s.weight
		}
	}
	if total == 0 {
		return nil, errors.New("no samples")
	}
	out := make(map[string]float64)
	for _, m := range cpuBuckets {
		out["host.cpu."+m] = self[m] / total
	}
	for _, m := range repoModules {
		out["host.cpu_cum."+m] = cum[m] / total
	}
	return out, nil
}

// stack is one profile sample: its function names, innermost first, and its
// sample count.
type stack struct {
	funcs  []string
	weight float64
}

// decodeProfile reads the parts of profile.proto that attribution needs:
// samples (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		fnName  = make(map[uint64]uint64)   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.vals, err = appendPacked(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{weight: float64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. fn gets the field
// number and either the varint value or the bytes of a length-delimited
// field (fixed-width fields are skipped).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b) or not (v).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
