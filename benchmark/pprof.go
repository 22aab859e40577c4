package main

// CPU-profile attribution: the traced pass runs under runtime/pprof, and
// the profile's flat samples are summed by package into <layer>.cpu_share.
// The profile is a gzipped protobuf (profile.proto); the few fields needed
// are read here directly, so the benchmark needs neither `go tool pprof`
// at run time nor a module dependency.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each package's share of the samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return cpuShares(p.buf.Bytes())
}

// layerShares sums package shares into layer shares.
func layerShares(pkgs map[string]float64) map[string]float64 {
	layers := make(map[string]float64)
	for pkg, share := range pkgs {
		layers[profiledLayer(pkg)] += share
	}
	return layers
}

// profiledLayer maps a package path to the layer its samples count for: the
// repository's modules by name, five groups of the runtime and standard
// library the system spends time in, and "other" for the rest (gob, sha256,
// fmt, this program's own code).
func profiledLayer(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "slicc/internal/"); ok {
		return rest
	}
	switch {
	case pkg == "slicc/sdk":
		return "sdk"
	case pkg == "math/rand":
		return "rand" // the workload generators' draws
	case pkg == "syscall" || pkg == "internal/poll" || strings.HasSuffix(pkg, "/syscall") || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net/http" || pkg == "net" || pkg == "bufio" || strings.HasPrefix(pkg, "net/"):
		return "nethttp"
	}
	return "other"
}

// funcPackage extracts the package path from a symbol such as
// "slicc/internal/sim.(*Machine).step" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares parses a pprof CPU profile and returns, per package, the share
// of samples whose leaf frame is in that package.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		leafCount = map[uint64]int64{}  // location id -> samples with it as leaf
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var leaf uint64
			var count int64
			haveLeaf, haveCount := false, false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first; packed or not
					ids, err := uvarints(v, b)
					if err == nil && len(ids) > 0 && !haveLeaf {
						leaf, haveLeaf = ids[0], true
					}
					return err
				case 2: // value, first is the sample count
					vals, err := uvarints(v, b)
					if err == nil && len(vals) > 0 && !haveCount {
						count, haveCount = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLeaf {
				leafCount[leaf] += count
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost (inlined) frame
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := map[string]float64{}
	var total int64
	for loc, n := range leafCount {
		name := ""
		if idx := funcName[locFunc[loc]]; idx < uint64(len(strs)) {
			name = strs[idx]
		}
		shares[funcPackage(name)] += float64(n)
		total += n
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

var errProto = errors.New("malformed profile protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
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

// uvarints decodes a repeated varint field delivered either unpacked (one
// value in v, b nil) or packed (values back to back in b).
func uvarints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
