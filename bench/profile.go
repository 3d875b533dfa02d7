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

// The traced run attributes CPU time to layers from a plain CPU
// profile: each sample goes to the first frame, counted from the leaf,
// whose function belongs to one of this repository's packages — so
// time spent in gob, malloc or a syscall lands on the layer that asked
// for it. Samples with no such frame go to the runtime's collector, to
// net/http's client or server side, to the harness, or to "other".

// stack is one profile sample: its frames leaf first, and its weight.
type stack struct {
	frames []string
	value  int64
}

const modulePrefix = "repro/internal/"

// layerOf names the layer a sample belongs to.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, l := range cpuLayers {
				if l == rest {
					return l
				}
			}
			return "other"
		}
	}
	for _, rule := range outsideModule {
		if hasFrame(frames, rule.prefixes) {
			return rule.layer
		}
	}
	return "other"
}

// outsideModule places, in this order, a sample with no frame of the
// module: by any frame with one of the prefixes.
var outsideModule = []struct {
	layer    string
	prefixes []string
}{
	{"runtime_gc", []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.gcAssistAlloc"}},
	{"net_http_client", []string{"net/http.(*persistConn)", "net/http.(*Transport)", "net/http.(*Client)"}},
	{"net_http_server", []string{"net/http.(*conn)", "net/http.(*Server)", "net/http.serverHandler", "net/http.(*response)"}},
	{"harness", []string{"main."}},
}

// cpuShares is a profile summed by layer.
type cpuShares struct {
	total   int64
	byLayer map[string]int64
	stacks  []stack
}

func attribute(stacks []stack) cpuShares {
	s := cpuShares{byLayer: map[string]int64{}, stacks: stacks}
	for _, st := range stacks {
		s.byLayer[layerOf(st.frames)] += st.value
		s.total += st.value
	}
	return s
}

// share is one layer's part of the profile; the parts sum to 1.
func (s cpuShares) share(layer string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.byLayer[layer]) / float64(s.total)
}

// under is the part of the profile spent in or below any function with
// one of the prefixes, whichever layer the sample was attributed to.
func (s cpuShares) under(prefixes ...string) float64 {
	if s.total == 0 {
		return 0
	}
	var sum int64
	for _, st := range s.stacks {
		if hasFrame(st.frames, prefixes) {
			sum += st.value
		}
	}
	return float64(sum) / float64(s.total)
}

func hasFrame(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

func (s cpuShares) into(r *run) {
	for _, l := range cpuLayers {
		r.set("cpu_share."+l, s.share(l))
	}
}

// cpuProfile is a running CPU profile of this process.
type cpuProfile struct {
	buf bytes.Buffer
	err error
}

func startCPUProfile() *cpuProfile {
	p := &cpuProfile{}
	p.err = pprof.StartCPUProfile(&p.buf)
	return p
}

func (p *cpuProfile) stop() cpuShares {
	if p.err != nil {
		return attribute(nil)
	}
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return attribute(nil)
	}
	return attribute(stacks)
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: per sample its function
// names leaf first (inlined frames included) and its last value, CPU
// nanoseconds.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
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
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
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
		st := stack{value: s.val}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, packed []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
