package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Every input is a pure function of (seed, workload, stream): scenario
// seeds, the op/key/value sequence of each client and the arrival
// schedule of the paced phase. The program under test sees only these
// generated inputs, never the seed.

// subSeed derives an independent positive seed for one named stream.
func subSeed(seed int64, workload, stream string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	// Scenario configs treat a zero seed as "use the default".
	return int64(h.Sum64()>>1) | 1
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// op is one request of a serve workload. A PUT's value is unique over
// the whole run, so a value found in a store names the write that put
// it there.
type op struct {
	kind  opKind
	key   uint32
	value float64
}

// opGen yields one client's op sequence.
type opGen struct {
	rng      *rand.Rand
	client   int
	n        uint64
	keys     int
	readFrac float64
}

func newOpGen(seed int64, workload string, client, keys int, readFrac float64) *opGen {
	return &opGen{
		rng:    rand.New(rand.NewSource(subSeed(seed, workload, "ops", client))),
		client: client, keys: keys, readFrac: readFrac,
	}
}

func (g *opGen) next() op {
	o := op{key: uint32(g.rng.Intn(g.keys))}
	if g.readFrac > 0 && g.rng.Float64() < g.readFrac {
		o.kind = opGet
		return o
	}
	o.kind = opPut
	o.value = uniqueValue(g.client, g.n)
	g.n++
	return o
}

// uniqueValue packs (client, n) into a float64 that JSON and gob carry
// exactly (below 2^53).
func uniqueValue(client int, n uint64) float64 {
	return float64(uint64(client+1)<<40 | n)
}

// valueOrigin is uniqueValue's inverse.
func valueOrigin(v float64) (client int, n uint64, ok bool) {
	if v < 1<<40 || v >= 1<<53 || v != math.Trunc(v) {
		return 0, 0, false
	}
	u := uint64(v)
	return int(u>>40) - 1, u & (1<<40 - 1), true
}

// arrivals returns n Poisson arrival times at the given rate, as
// offsets from the start of the paced phase.
func arrivals(seed int64, workload string, client int, ratePerSec float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(subSeed(seed, workload, "arrivals", client)))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / ratePerSec
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}
