// Package rng provides small, fast, deterministic pseudo-random number
// streams for the simulator.
//
// The paper's methodology requires several independent random sequences per
// simulation (destination selection, interarrival times, adaptive-choice tie
// breaking) and fresh streams at the start of every sampling period. PCG-32
// (O'Neill, 2014) gives 2^63 independent streams from one seed with a tiny
// state, which fits that requirement without any external dependency.
package rng

// Stream is a single PCG-32 pseudo-random stream. The zero value is not
// usable; create streams with New or NewStream.
type Stream struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// pcgMultiplier2 is pcgMultiplier squared modulo 2^64: two PCG steps are
// one, state*pcgMultiplier2 + inc*(pcgMultiplier+1).
const pcgMultiplier2 = pcgMultiplier * pcgMultiplier % (1 << 64)

// New returns a stream seeded with seed on the default stream id 0.
func New(seed uint64) *Stream { return NewStream(seed, 0) }

// NewStream returns a stream seeded with seed on stream id stream. Streams
// with different ids are statistically independent even for equal seeds.
func NewStream(seed, stream uint64) *Stream {
	s := &Stream{inc: stream<<1 | 1}
	s.state = s.inc + seed
	s.Uint32()
	s.state += seed
	s.Uint32()
	return s
}

// pcgOutput is the PCG-32 output permutation (xorshift high bits, random
// rotation) applied to a pre-advance state.
func pcgOutput(old uint64) uint32 {
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Stream) Uint32() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	return pcgOutput(old)
}

// Uint64 returns the next 64 uniformly distributed bits: the same two
// Uint32 draws (high word first) with the intermediate state store elided.
func (s *Stream) Uint64() uint64 {
	s1 := s.state
	s2 := s1*pcgMultiplier + s.inc
	s.state = s2*pcgMultiplier + s.inc
	return uint64(pcgOutput(s1))<<32 | uint64(pcgOutput(s2))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	for {
		v := s.Uint32()
		prod := uint64(v) * uint64(bound)
		low := uint32(prod)
		if low >= bound || low >= (-bound)%bound {
			return int(prod >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint53()) / (1 << 53)
}

// Uint53 returns the next 53 uniformly distributed bits — the integer
// Float64 is built from, exposed so hot loops can compare against a
// precomputed BernoulliThreshold without the int-to-float conversion.
func (s *Stream) Uint53() uint64 {
	return s.Uint64() >> 11
}

// Uint53Below reports whether Uint53() < thr, and leaves the stream where
// Uint53 would, but computes the second PCG output only when the first
// does not decide: Uint53() is out1<<21 | out2>>11 for the two outputs, so
// it is below thr exactly when out1 < thr>>21, or out1 == thr>>21 (one
// draw in 2^32) and out2>>11 < thr's low 21 bits.
func (s *Stream) Uint53Below(thr uint64) bool {
	s1 := s.state
	s.state = s1*pcgMultiplier2 + s.inc*(pcgMultiplier+1)
	if hi := uint64(pcgOutput(s1)); hi != thr>>21 {
		return hi < thr>>21
	}
	return uint64(pcgOutput(s1*pcgMultiplier+s.inc))>>11 < thr&(1<<21-1)
}

// BernoulliThreshold converts a probability into the Uint53 cutoff that
// makes "Uint53() < threshold" equivalent to "Float64() < p": with
// k = Uint53(), Float64() is exactly k/2^53, so k/2^53 < p iff
// k < ceil(p*2^53) (p*2^53 is exact for p in (0, 1) — a power-of-two scale
// only shifts the exponent). Probabilities at or below 0 and at or above 1
// map to the always-false and always-true cutoffs.
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	t := p * (1 << 53)
	k := uint64(t)
	if float64(k) < t {
		k++
	}
	return k
}

// Bernoulli reports true with probability p.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Uint53Below(BernoulliThreshold(p))
}
