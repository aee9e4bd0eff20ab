package engine

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64star). It is not safe for concurrent use; each simulated
// agent owns its own instance so that runs replay identically regardless
// of host scheduling.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed int64) *Rand {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &Rand{state: s}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("engine: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold converts a probability into the 53-bit integer threshold
// Below compares against. For every 64-bit draw u, Float64() < p and
// u>>11 < Threshold(p) decide identically: Float64 is (u>>11)/2^53, and
// scaling by 2^53 only shifts the exponent, so p*2^53 is exact and the
// ceiling makes the strict integer compare match the real compare
// whether or not p*2^53 is integral.
func Threshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws one Uint64 and reports Float64() < p for t = Threshold(p),
// without the integer-to-float conversion. It consumes exactly one draw,
// like Float64, so streams interleave identically.
func (r *Rand) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Split derives an independent generator from this one. Useful for giving
// each simulated core its own stream from one top-level seed.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() | 1}
}
