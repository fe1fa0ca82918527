// Package cache models set-associative cache arrays with LRU
// replacement. A Line stores the protocol-visible coherence state (an
// opaque uint8 interpreted by the protocol packages) and the block's
// data version (the simulator's stand-in for data values: every store
// increments the version, so coherence bugs become visible as version
// mismatches).
//
// Frames are allocated lazily: a set has no frames until its first
// Victim call, and a set without frames behaves exactly like one whose
// ways are all invalid. A run touches a small fraction of the paper's
// 4 MB L2, so it pays for a 2-byte slot per set instead of zeroing every
// frame up front, and Build pays for neither: a cache gets its slot
// table with its first fill.
package cache

import (
	"fmt"

	"specsimp/internal/coherence"
)

// Line is one cache block frame.
type Line struct {
	Addr    coherence.Addr
	Valid   bool
	State   uint8
	Version uint64
	lastUse uint64
}

// Filled sets take their frames from chunks of chunkSets sets each. A
// chunk is never reallocated, so a *Line handed out stays the same
// frame for the cache's lifetime.
const (
	chunkShift = 6
	chunkSets  = 1 << chunkShift
)

// Cache is a set-associative array. The zero value is not usable; use New.
type Cache struct {
	// slots holds one entry per set: 0 if the set was never filled,
	// else 1 + the set's position in fill order, which locates its
	// frames in chunks. maxSets keeps that within 16 bits. Until the
	// first fill it is a slice of unfilled.
	slots    []uint16
	chunks   [][]Line
	filled   uint16
	ways     int
	useClock uint64
}

// maxSets is the largest set count a cache may have, so that a set's
// slot (1 + its fill position) fits in 16 bits: an 8 MB cache at 4
// ways. The paper's 4 MB L2 has 16,384 sets.
const maxSets = 1 << 15

// Geometry returns the set count of a cache of sizeBytes capacity with
// the given associativity and 64-byte blocks. It is an error unless
// both are positive and the set count is a power of two of at most
// 32,768.
func Geometry(sizeBytes, ways int) (int, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cache: %d bytes and %d ways must both be positive", sizeBytes, ways)
	}
	numSets := sizeBytes / (ways * coherence.BlockBytes)
	if numSets == 0 || numSets&(numSets-1) != 0 {
		return 0, fmt.Errorf("cache: %d bytes / %d ways yields non-power-of-two set count %d", sizeBytes, ways, numSets)
	}
	if numSets > maxSets {
		return 0, fmt.Errorf("cache: %d bytes / %d ways yields %d sets, more than the %d a cache may have", sizeBytes, ways, numSets, maxSets)
	}
	return numSets, nil
}

// unfilled is the slot table every cache reads until its first fill:
// all zeros, shared, and never written. Build therefore zeroes no slot
// tables; a machine's 16 L2 tables are 0.5 MB, and zeroing them in
// Build made its time depend on whether the heap's free pages had been
// returned to the OS (DESIGN.md, "Performance notes").
var unfilled [maxSets]uint16

// New builds a cache of sizeBytes capacity with the given associativity
// and 64-byte blocks. It panics unless Geometry accepts them.
func New(sizeBytes, ways int) *Cache {
	numSets, err := Geometry(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return &Cache{slots: unfilled[:numSets:numSets], ways: ways}
}

// NumSets returns the set count.
func (c *Cache) NumSets() int { return len(c.slots) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setIndex(a coherence.Addr) int {
	return int((uint64(a) / coherence.BlockBytes) & uint64(len(c.slots)-1))
}

// frames returns set s's ways, or nil if the set was never filled.
func (c *Cache) frames(s int) []Line {
	slot := c.slots[s]
	if slot == 0 {
		return nil
	}
	slot--
	base := int(slot&(chunkSets-1)) * c.ways
	return c.chunks[slot>>chunkShift][base : base+c.ways]
}

// fill gives never-filled set s its frames, starting a new chunk when
// the last one is full. A cache smaller than one chunk gets a chunk of
// its own size.
func (c *Cache) fill(s int) []Line {
	if c.filled == 0 {
		c.slots = make([]uint16, len(c.slots)) // leave the shared unfilled table
	}
	if c.filled%chunkSets == 0 {
		c.chunks = append(c.chunks, make([]Line, min(chunkSets, len(c.slots))*c.ways))
	}
	c.filled++
	c.slots[s] = c.filled
	return c.frames(s)
}

// Lookup returns the line holding block a, updating LRU, or nil.
func (c *Cache) Lookup(a coherence.Addr) *Line {
	a = coherence.BlockAddr(a)
	set := c.frames(c.setIndex(a))
	for i := range set {
		if set[i].Valid && set[i].Addr == a {
			c.useClock++
			set[i].lastUse = c.useClock
			return &set[i]
		}
	}
	return nil
}

// Peek returns the line holding block a without updating LRU, or nil.
func (c *Cache) Peek(a coherence.Addr) *Line {
	a = coherence.BlockAddr(a)
	set := c.frames(c.setIndex(a))
	for i := range set {
		if set[i].Valid && set[i].Addr == a {
			return &set[i]
		}
	}
	return nil
}

// Victim selects the frame an insertion of block a would use: an invalid
// way if one exists, else the least-recently-used way whose line
// canEvict approves. It returns nil if every way is pinned (the caller
// must stall). canEvict==nil approves everything.
func (c *Cache) Victim(a coherence.Addr, canEvict func(*Line) bool) *Line {
	s := c.setIndex(a)
	set := c.frames(s)
	if set == nil {
		set = c.fill(s)
	}
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
	}
	var victim *Line
	for i := range set {
		if canEvict != nil && !canEvict(&set[i]) {
			continue
		}
		if victim == nil || set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	return victim
}

// Install fills frame (obtained from Victim) with block a in the given
// state. The caller must have dealt with the victim's contents first.
func (c *Cache) Install(frame *Line, a coherence.Addr, state uint8, version uint64) {
	c.useClock++
	*frame = Line{Addr: coherence.BlockAddr(a), Valid: true, State: state, Version: version, lastUse: c.useClock}
}

// Invalidate removes block a if present.
func (c *Cache) Invalidate(a coherence.Addr) {
	if l := c.Peek(a); l != nil {
		l.Valid = false
	}
}

// ForEachSetLRU visits every valid line set by set, in ascending set
// index, ordering the lines within a set by recency (least recently
// used first) — the canonical order for state fingerprinting: two
// caches behave identically under future lookups and victim choices iff
// their per-set LRU rankings and contents match, regardless of absolute
// useClock values or the order in which sets were first filled. The
// callback must not insert or remove lines.
func (c *Cache) ForEachSetLRU(fn func(set int, l *Line)) {
	order := make([]int, c.ways)
	for s := range c.slots {
		set := c.frames(s)
		n := 0
		for w := range set {
			if set[w].Valid {
				order[n] = w
				n++
			}
		}
		// Insertion sort by lastUse (ways are small).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && set[order[j]].lastUse < set[order[j-1]].lastUse; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for i := 0; i < n; i++ {
			fn(s, &set[order[i]])
		}
	}
}

// ForEach visits every valid line in ascending set index. The callback
// must not insert or remove lines.
func (c *Cache) ForEach(fn func(*Line)) {
	for s := range c.slots {
		set := c.frames(s)
		for w := range set {
			if set[w].Valid {
				fn(&set[w])
			}
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

// Clear invalidates every line (used when a recovery rebuilds cache
// contents from the checkpoint log). Only filled sets have frames to
// clear; they keep them.
func (c *Cache) Clear() {
	for _, chunk := range c.chunks {
		for i := range chunk {
			chunk[i].Valid = false
		}
	}
}
