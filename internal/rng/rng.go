// Package rng provides deterministic, label-splittable pseudo-random
// streams for the simulator.
//
// Every stochastic element of the simulation (per-node manufacturing
// variability, sensor noise, runtime jitter, scheduler arrivals) draws
// from a Stream derived from a root seed and a chain of string labels.
// Two runs with the same root seed therefore produce bit-identical
// results, and changing one subsystem's draws never perturbs another's
// — the property the paper's five-repeat protocol needs to be testable.
//
// The generator is a 64-bit PCG variant (PCG-XSH-RR with a 128-bit LCG
// replaced by two 64-bit words, matching the construction used by
// math/rand/v2), implemented locally so the stream layout is frozen
// regardless of Go version.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random number generator.
// It is not safe for concurrent use; derive one Stream per goroutine
// via Split.
type Stream struct {
	hi, lo uint64
	// cached spare normal deviate for Box-Muller
	spare    float64
	hasSpare bool
}

// New returns a Stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	s := &Stream{}
	s.seed(seed, seed*0x9e3779b97f4a7c15+0x243f6a8885a308d3)
	return s
}

func (s *Stream) seed(hi, lo uint64) {
	s.hi = hi
	s.lo = lo
	s.hasSpare = false
	// Warm up: the first outputs of a low-entropy LCG state correlate
	// with the seed; discard a few.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
}

const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// Uint64 returns the next 64 bits from the stream.
func (s *Stream) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc.
	hi, lo := s.hi, s.lo
	pHi, pLo := mul64(lo, mulLo)
	newLo := pLo + incLo
	var carry uint64
	if newLo < pLo {
		carry = 1
	}
	newHi := hi*mulLo + lo*mulHi + pHi + incHi + carry
	s.lo = newLo
	s.hi = newHi

	// DXSM output permutation (as in PCG64 DXSM).
	h := s.hi
	l := s.lo | 1
	h ^= h >> 32
	h *= mulLo
	h ^= h >> 48
	h *= l
	return h
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Split derives an independent child stream identified by label.
// The derivation hashes the parent's current state with the label, so
// Split may be called repeatedly with distinct labels to build a tree
// of independent streams. Splitting does not advance the parent.
func (s *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	var buf [16]byte
	putUint64(buf[0:8], s.hi)
	putUint64(buf[8:16], s.lo)
	h.Write(buf[:])
	h.Write([]byte(label))
	child := &Stream{}
	hv := h.Sum64()
	child.seed(hv, hv^0x5851f42d4c957f2d)
	return child
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Float64 returns a uniform deviate in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// Normal returns a normally distributed deviate with the given mean and
// standard deviation, via the Box-Muller transform.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.hasSpare {
		s.hasSpare = false
		return mean + stddev*s.spare
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.spare = v * f
	s.hasSpare = true
	return mean + stddev*u*f
}

// LogNormal returns a deviate whose logarithm is normal with parameters
// mu and sigma. Used for runtime jitter (multiplicative noise ≥ 0).
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed deviate with the
// given mean (used by the scheduler's arrival process).
func (s *Stream) Exponential(mean float64) float64 {
	u := s.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}
