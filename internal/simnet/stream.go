package simnet

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource is a math/rand Source64 over math/rand/v2's PCG: 16 bytes
// of state and a constant-time Seed, where rand.NewSource carries
// 4.9 KB and seeds with a 780-step loop. It backs every per-node
// stream with shard lanes, where a metropolis holds one per node.
type pcgSource struct{ pcg randv2.PCG }

// Seed sets both PCG words from seed: the high word is seed itself,
// the low word one more splitmix64 round over it.
func (p *pcgSource) Seed(seed int64) {
	p.pcg.Seed(uint64(seed), uint64(MixSeed(seed, 0)))
}

func (p *pcgSource) Uint64() uint64 { return p.pcg.Uint64() }

func (p *pcgSource) Int63() int64 { return int64(p.pcg.Uint64() >> 1) }

// MixSeed derives the stream-th independent seed from seed: output
// stream+1 of a splitmix64 generator started at seed (a golden-ratio
// increment per step, then the finalizer). It seeds sharded nodes'
// streams from their rank and chaos candidates from their index.
func MixSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SubSeed derives an independent seed from seed and a stream label:
// FNV-1a over the label, folded into the seed. Fault campaigns and
// realnet's node and link streams name their streams this way.
func SubSeed(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return seed ^ int64(h)
}

// stream is a *rand.Rand and the PCG source behind it in one value, so
// a node (or anything else holding many streams) allocates the pair
// with itself.
type stream struct {
	r   rand.Rand
	src pcgSource
}

// init seeds the stream and returns its generator.
func (st *stream) init(seed int64) *rand.Rand {
	st.src.Seed(seed)
	st.r = *rand.New(&st.src)
	return &st.r
}

// NewStream returns a deterministic generator seeded with seed over
// 16 bytes of PCG state, in a single small allocation. It is the
// stream every sharded simulation node draws from; realnet builds its
// node and link streams with it too.
func NewStream(seed int64) *rand.Rand {
	return new(stream).init(seed)
}
