// Package mem models a node's memory hierarchy: main memory contents as
// per-block data versions (Store), and the L1/L2 cache pair with its
// SafetyNet undo logging and rollback restore (Hier), which the
// directory and snooping protocols share. A version is the simulator's
// stand-in for a block's value: every store produces a new, strictly
// larger version, so stale data arriving anywhere becomes detectable by
// comparison.
package mem

import "specsimp/internal/coherence"

// Store maps block addresses to data versions. Unwritten blocks read as
// version 0. The zero value is not usable; use NewStore.
type Store struct {
	versions map[coherence.Addr]uint64
}

// NewStore returns an empty memory image.
func NewStore() *Store {
	return &Store{versions: make(map[coherence.Addr]uint64)}
}

// Read returns the version of block a (0 if never written).
func (s *Store) Read(a coherence.Addr) uint64 {
	return s.versions[coherence.BlockAddr(a)]
}

// Write sets the version of block a.
func (s *Store) Write(a coherence.Addr, v uint64) {
	s.versions[coherence.BlockAddr(a)] = v
}

// Len returns the number of blocks ever written.
func (s *Store) Len() int { return len(s.versions) }

// ForEach visits every written block in unspecified order. Callers
// needing a canonical order (state fingerprinting) must sort; blocks
// holding version 0 are indistinguishable from unwritten ones and are
// skipped.
func (s *Store) ForEach(fn func(a coherence.Addr, v uint64)) {
	//detlint:allow maporder visitor is documented unspecified-order; canonical consumers collect and sort
	for a, v := range s.versions {
		if v != 0 {
			fn(a, v)
		}
	}
}
