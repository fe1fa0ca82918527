package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64 core). Unlike math/rand it exposes its full state for
// snapshot/restore, which SafetyNet rollback requires: when the system
// recovers to a checkpoint, every workload generator must replay exactly
// the same reference stream it produced the first time.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds produce
// uncorrelated streams for practical purposes.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Scramble so that small seeds (0, 1, 2...) diverge immediately.
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value uniform in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns a sample from a geometric distribution with mean m
// (m >= 1), i.e. the count of trials until first success with p = 1/m.
// Used for inter-arrival gaps in workload generators.
//
// Each trial is Bool(1/m) on one draw: Float64() < p is exactly
// Uint64()>>11 < ceil(p·2^53), since Float64 is that integer over 2^53
// and p·2^53 is exact. The bound and the tail limit are computed once.
func (r *RNG) Geometric(m float64) uint64 {
	if m <= 1 {
		return 1
	}
	n := uint64(1)
	success := uint64(math.Ceil(1 / m * (1 << 53)))
	limit := uint64(64 * m) // bound the tail; negligible probability
	for r.Uint64()>>11 >= success {
		n++
		if n > limit {
			break
		}
	}
	return n
}

// Split returns a new generator derived from this one. Streams of the
// parent and child do not overlap in practice.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef) }

// Snapshot captures the generator state for later Restore.
func (r *RNG) Snapshot() uint64 { return r.state }

// Restore rewinds the generator to a state captured by Snapshot.
func (r *RNG) Restore(s uint64) { r.state = s }
