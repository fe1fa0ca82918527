package explore

import "slices"

// Enc accumulates a canonical state encoding and folds it into a
// 128-bit digest. Models write their state through the typed helpers;
// anything order-free (in-flight message multisets, map-backed tables)
// must be emitted in a canonical order — Section/U64s help with the
// common cases. The buffer is reused across states, so encoding a
// state allocates nothing in steady state.
type Enc struct {
	b []byte
	// scratch backs the sorted-multiset helpers; keys backs the key and
	// address lists the harness builds before encoding them.
	scratch []uint64
	keys    []uint64
}

// Reset clears the encoder for the next state.
func (e *Enc) Reset() { e.b = e.b[:0] }

// Len returns the encoded size so far.
func (e *Enc) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U64 appends a 64-bit value.
func (e *Enc) U64(v uint64) {
	e.b = append(e.b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Int appends an int (two's-complement widened).
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// Multiset appends vs as a sorted multiset: element order in the
// caller's collection does not influence the encoding. vs is sorted in
// place in the encoder's scratch buffer.
func (e *Enc) Multiset(vs []uint64) {
	e.scratch = append(e.scratch[:0], vs...)
	slices.Sort(e.scratch)
	e.U64(uint64(len(e.scratch)))
	for _, v := range e.scratch {
		e.U64(v)
	}
}

// Digest folds the encoded bytes into the 128-bit fingerprint: two
// independently seeded FNV-1a streams. Collisions would prune a
// genuinely new state, so the engine uses 128 bits (the classic hash-
// compaction trade-off: at the ≤2^20 visited states the engine caps
// at, the collision probability is ~2^-88).
func (e *Enc) Digest() Digest {
	const (
		prime = 1099511628211
		seed1 = 14695981039346656037
		seed2 = 0x9e3779b97f4a7c15
	)
	h1, h2 := uint64(seed1), uint64(seed2)
	for _, c := range e.b {
		h1 = (h1 ^ uint64(c)) * prime
		h2 = (h2 ^ uint64(c)) * prime
	}
	// Fold in the length so extension collisions differ in both limbs.
	h1 = (h1 ^ uint64(len(e.b))) * prime
	h2 = (h2 ^ uint64(len(e.b)^0x5a)) * prime
	return Digest{h1, h2}
}

// HashBytes is a standalone FNV-1a for models computing transition
// content keys.
func HashBytes(seed uint64, bs ...uint64) uint64 {
	const prime = 1099511628211
	h := seed ^ 14695981039346656037
	for _, b := range bs {
		for i := 0; i < 8; i++ {
			h = (h ^ (b & 0xff)) * prime
			b >>= 8
		}
	}
	return h
}
