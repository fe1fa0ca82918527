package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"specsimp/internal/coherence"
)

func TestNewGeometry(t *testing.T) {
	c := New(128*1024, 4) // paper L1: 128 KB 4-way
	if c.NumSets() != 512 || c.Ways() != 4 {
		t.Fatalf("geometry %d sets x %d ways, want 512x4", c.NumSets(), c.Ways())
	}
	c2 := New(4*1024*1024, 4) // paper L2: 4 MB 4-way
	if c2.NumSets() != 16384 {
		t.Fatalf("L2 sets=%d want 16384", c2.NumSets())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, g := range []struct{ bytes, ways int }{
		{3 * 64, 1},         // 3 sets: not a power of two
		{65536 * 64, 1},     // 65,536 sets: slots would overflow 16 bits
		{0, 4}, {64 * 4, 0}, // non-positive size or ways
	} {
		if _, err := Geometry(g.bytes, g.ways); err == nil {
			t.Errorf("Geometry(%d, %d) accepted", g.bytes, g.ways)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", g.bytes, g.ways)
				}
			}()
			New(g.bytes, g.ways)
		}()
	}
}

// TestFirstFillLeavesSharedTable: caches read the shared unfilled slot
// table until their first fill, which must take a table of its own.
func TestFirstFillLeavesSharedTable(t *testing.T) {
	a, b := New(1024, 2), New(1024, 2)
	a.Install(a.Victim(0x40, nil), 0x40, 1, 1)
	if b.Peek(0x40) != nil || b.CountValid() != 0 {
		t.Fatal("a fill in one cache is visible in another")
	}
	for s, v := range unfilled {
		if v != 0 {
			t.Fatalf("shared unfilled table written at set %d", s)
		}
	}
}

// TestLargestCacheFindsEveryLine: at the largest set count a 16-bit slot
// can index, every set fills and every line is found again.
func TestLargestCacheFindsEveryLine(t *testing.T) {
	const ways = 2
	c := New(maxSets*ways*coherence.BlockBytes, ways)
	if c.NumSets() != maxSets {
		t.Fatalf("%d sets, want %d", c.NumSets(), maxSets)
	}
	lines := maxSets * ways
	addr := func(i int) coherence.Addr { return coherence.Addr(i * coherence.BlockBytes) }
	for i := 0; i < lines; i++ {
		f := c.Victim(addr(i), nil)
		if f == nil || f.Valid {
			t.Fatalf("line %d: no free frame", i)
		}
		c.Install(f, addr(i), 1, uint64(i))
	}
	for i := 0; i < lines; i++ {
		if l := c.Peek(addr(i)); l == nil || l.Version != uint64(i) {
			t.Fatalf("line %d not found intact: %+v", i, l)
		}
	}
	if n := c.CountValid(); n != lines {
		t.Fatalf("%d valid lines, want %d", n, lines)
	}
}

func TestInstallLookupPeek(t *testing.T) {
	c := New(1024, 2)
	a := coherence.Addr(0x1000)
	f := c.Victim(a, nil)
	c.Install(f, a, 3, 7)
	l := c.Lookup(a)
	if l == nil || l.State != 3 || l.Version != 7 {
		t.Fatalf("lookup after install: %+v", l)
	}
	if c.Peek(a) == nil {
		t.Fatal("peek missed installed line")
	}
	if c.Peek(0x9999000) != nil {
		t.Fatal("peek hit absent line")
	}
}

func TestBlockAliasing(t *testing.T) {
	c := New(1024, 2)
	f := c.Victim(0x1000, nil)
	c.Install(f, 0x1000, 1, 1)
	if c.Lookup(0x1004) == nil {
		t.Fatal("offset within same block missed")
	}
	if c.Lookup(0x1040) != nil {
		t.Fatal("adjacent block falsely hit")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	c := New(2*64, 2) // 1 set, 2 ways
	c.Install(c.Victim(0x000, nil), 0x000, 1, 0)
	c.Install(c.Victim(0x040, nil), 0x040, 1, 0)
	c.Lookup(0x000) // touch: 0x040 is now LRU
	v := c.Victim(0x080, nil)
	if v.Addr != 0x040 {
		t.Fatalf("victim=%#x want 0x40 (LRU)", uint64(v.Addr))
	}
}

func TestVictimHonorsPin(t *testing.T) {
	c := New(2*64, 2)
	c.Install(c.Victim(0x000, nil), 0x000, 9, 0)
	c.Install(c.Victim(0x040, nil), 0x040, 9, 0)
	pinned := func(l *Line) bool { return l.State != 9 }
	if v := c.Victim(0x080, pinned); v != nil {
		t.Fatalf("victim %+v returned despite all ways pinned", v)
	}
	c.Peek(0x040).State = 2
	v := c.Victim(0x080, pinned)
	if v == nil || v.Addr != 0x040 {
		t.Fatalf("victim=%v want the unpinned 0x40", v)
	}
}

func TestInvalidateAndClear(t *testing.T) {
	c := New(1024, 2)
	c.Install(c.Victim(0x100, nil), 0x100, 1, 0)
	c.Install(c.Victim(0x200, nil), 0x200, 1, 0)
	c.Invalidate(0x100)
	if c.Peek(0x100) != nil {
		t.Fatal("line survived invalidate")
	}
	if c.CountValid() != 1 {
		t.Fatalf("CountValid=%d want 1", c.CountValid())
	}
	c.Clear()
	if c.CountValid() != 0 {
		t.Fatal("lines survived Clear")
	}
}

func TestForEachVisitsAllValid(t *testing.T) {
	c := New(4096, 4)
	want := map[coherence.Addr]bool{}
	for i := 0; i < 20; i++ {
		a := coherence.Addr(i * 64)
		c.Install(c.Victim(a, nil), a, 1, 0)
		want[a] = true
	}
	got := map[coherence.Addr]bool{}
	c.ForEach(func(l *Line) { got[l.Addr] = true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d lines, want %d", len(got), len(want))
	}
}

// Property: a cache never holds two valid lines for the same block, and
// capacity is never exceeded, under arbitrary install/invalidate traffic.
func TestCacheUniquenessProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(16*64, 2) // tiny: 8 sets x 2 ways
		for _, op := range ops {
			a := coherence.Addr(op&0x3ff) * 64
			if op&0x8000 != 0 {
				c.Invalidate(a)
				continue
			}
			if c.Peek(a) != nil {
				continue
			}
			if v := c.Victim(a, nil); v != nil {
				c.Install(v, a, 1, 0)
			}
		}
		seen := map[coherence.Addr]int{}
		c.ForEach(func(l *Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.CountValid() <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// eagerCache is the reference model for the lazy frame store: the
// original array that allocated every set's frames up front. The
// oracle test drives it and Cache with the same operations.
type eagerCache struct {
	sets     [][]Line
	numSets  int
	ways     int
	useClock uint64
}

func newEager(sizeBytes, ways int) *eagerCache {
	numSets := sizeBytes / (ways * coherence.BlockBytes)
	e := &eagerCache{sets: make([][]Line, numSets), numSets: numSets, ways: ways}
	backing := make([]Line, numSets*ways)
	for i := range e.sets {
		e.sets[i] = backing[i*ways : (i+1)*ways]
	}
	return e
}

func (e *eagerCache) set(a coherence.Addr) []Line {
	return e.sets[(uint64(a)/coherence.BlockBytes)&uint64(e.numSets-1)]
}

func (e *eagerCache) Lookup(a coherence.Addr) *Line {
	a = coherence.BlockAddr(a)
	set := e.set(a)
	for i := range set {
		if set[i].Valid && set[i].Addr == a {
			e.useClock++
			set[i].lastUse = e.useClock
			return &set[i]
		}
	}
	return nil
}

func (e *eagerCache) Peek(a coherence.Addr) *Line {
	a = coherence.BlockAddr(a)
	set := e.set(a)
	for i := range set {
		if set[i].Valid && set[i].Addr == a {
			return &set[i]
		}
	}
	return nil
}

func (e *eagerCache) Victim(a coherence.Addr, canEvict func(*Line) bool) *Line {
	set := e.set(coherence.BlockAddr(a))
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

func (e *eagerCache) Install(frame *Line, a coherence.Addr, state uint8, version uint64) {
	e.useClock++
	*frame = Line{Addr: coherence.BlockAddr(a), Valid: true, State: state, Version: version, lastUse: e.useClock}
}

func (e *eagerCache) Invalidate(a coherence.Addr) {
	if l := e.Peek(a); l != nil {
		l.Valid = false
	}
}

func (e *eagerCache) ForEachSetLRU(fn func(set int, l *Line)) {
	order := make([]int, e.ways)
	for s, set := range e.sets {
		n := 0
		for w := range set {
			if set[w].Valid {
				order[n] = w
				n++
			}
		}
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

func (e *eagerCache) CountValid() int {
	n := 0
	for _, set := range e.sets {
		for w := range set {
			if set[w].Valid {
				n++
			}
		}
	}
	return n
}

func (e *eagerCache) Clear() {
	for _, set := range e.sets {
		for w := range set {
			set[w].Valid = false
		}
	}
}

// frame is a line's identity: its set and way, or (-1, -1) for nil.
type frame struct{ set, way int }

func (c *Cache) frameOf(l *Line) frame {
	for s := range c.slots {
		set := c.frames(s)
		for w := range set {
			if &set[w] == l {
				return frame{s, w}
			}
		}
	}
	return frame{-1, -1}
}

func (e *eagerCache) frameOf(l *Line) frame {
	for s, set := range e.sets {
		for w := range set {
			if &set[w] == l {
				return frame{s, w}
			}
		}
	}
	return frame{-1, -1}
}

type visit struct {
	set  int
	line Line
}

func lruVisits(forEach func(func(int, *Line))) []visit {
	var vs []visit
	forEach(func(s int, l *Line) { vs = append(vs, visit{s, *l}) })
	return vs
}

// TestLazyMatchesEagerOracle drives random operation sequences through
// Cache and the eager reference at several geometries — one set, a
// 3-way cache, and more sets than one chunk holds — and requires every
// returned line (frame and contents), every ForEachSetLRU sequence and
// every CountValid to match.
func TestLazyMatchesEagerOracle(t *testing.T) {
	geometries := []struct {
		name            string
		sizeBytes, ways int
	}{
		{"1set-4way", 4 * 64, 4},
		{"8set-3way", 8 * 3 * 64, 3},
		{"256set-2way", 256 * 2 * 64, 2},
		{"512set-4way", 128 * 1024, 4},
	}
	for _, g := range geometries {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				runOracle(t, g.sizeBytes, g.ways, seed)
			})
		}
	}
}

func runOracle(t *testing.T, sizeBytes, ways int, seed uint64) {
	c, e := New(sizeBytes, ways), newEager(sizeBytes, ways)
	if c.NumSets() != e.numSets {
		t.Fatalf("set count %d, reference %d", c.NumSets(), e.numSets)
	}
	rng := rand.New(rand.NewPCG(seed, 0x0c0ffee))
	// Blocks spread over four times the capacity so sets overflow and
	// evict; the in-block offset exercises block aliasing.
	blocks := 4 * c.NumSets() * ways
	pinned := func(l *Line) bool { return l.State != 3 }
	check := func(step int, op string, got, want *Line) {
		t.Helper()
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d %s: got %v, reference %v", step, op, got, want)
		}
		if got == nil {
			return
		}
		if gf, wf := c.frameOf(got), e.frameOf(want); gf != wf {
			t.Fatalf("step %d %s: frame %+v, reference %+v", step, op, gf, wf)
		}
		if *got != *want {
			t.Fatalf("step %d %s: line %+v, reference %+v", step, op, *got, *want)
		}
	}
	for step := 0; step < 3000; step++ {
		a := coherence.Addr(rng.IntN(blocks)*coherence.BlockBytes + rng.IntN(coherence.BlockBytes))
		switch op := rng.IntN(100); {
		case op < 25:
			check(step, "Lookup", c.Lookup(a), e.Lookup(a))
		case op < 40:
			check(step, "Peek", c.Peek(a), e.Peek(a))
		case op < 50:
			// Mutate through the returned pointer, as protocols do.
			got, want := c.Peek(a), e.Peek(a)
			check(step, "Peek", got, want)
			if got != nil {
				s := uint8(rng.IntN(4))
				got.State, want.State = s, s
			}
		case op < 85:
			canEvict := func(*Line) bool { return true }
			if op < 70 {
				canEvict = nil
			} else if op < 78 {
				canEvict = pinned
			}
			got, want := c.Victim(a, canEvict), e.Victim(a, canEvict)
			check(step, "Victim", got, want)
			if got != nil && c.Peek(a) == nil {
				state, version := uint8(rng.IntN(4)), rng.Uint64()
				c.Install(got, a, state, version)
				e.Install(want, a, state, version)
			}
		case op < 99:
			c.Invalidate(a)
			e.Invalidate(a)
		default:
			c.Clear()
			e.Clear()
		}
		if got, want := c.CountValid(), e.CountValid(); got != want {
			t.Fatalf("step %d: CountValid %d, reference %d", step, got, want)
		}
		if got, want := lruVisits(c.ForEachSetLRU), lruVisits(e.ForEachSetLRU); !slices.Equal(got, want) {
			t.Fatalf("step %d: ForEachSetLRU\n got %v\nwant %v", step, got, want)
		}
	}
}

// TestUnfilledSetsAllocateNothing: probing a set that never had a
// Victim call neither allocates nor creates its frames.
func TestUnfilledSetsAllocateNothing(t *testing.T) {
	c := New(4*1024*1024, 4)
	c.Install(c.Victim(0x40, nil), 0x40, 1, 0)
	absent := coherence.Addr(0x1000)
	allocs := testing.AllocsPerRun(100, func() {
		if c.Lookup(absent) != nil || c.Peek(absent) != nil {
			t.Fatal("hit in a never-filled set")
		}
		c.Invalidate(absent)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per Lookup+Peek+Invalidate on a never-filled set, want 0", allocs)
	}
	if c.filled != 1 || len(c.chunks) != 1 {
		t.Fatalf("probes created frames: %d sets filled in %d chunks, want 1 in 1", c.filled, len(c.chunks))
	}
}

// TestVictimFrameStableAcrossChunks: a frame returned by Victim stays
// the same frame, contents included, after more than one chunk of later
// fills — protocols hold *Line across calls that fill other sets.
func TestVictimFrameStableAcrossChunks(t *testing.T) {
	c := New(4*1024*1024, 4)
	first := coherence.Addr(0)
	f := c.Victim(first, nil)
	c.Install(f, first, 2, 9)
	for s := 1; s <= 2*chunkSets+1; s++ {
		a := coherence.Addr(s * coherence.BlockBytes)
		c.Install(c.Victim(a, nil), a, 1, uint64(s))
	}
	if len(c.chunks) < 3 {
		t.Fatalf("%d chunks after %d fills, want at least 3", len(c.chunks), 2*chunkSets+2)
	}
	if got := c.Peek(first); got != f {
		t.Fatalf("Peek returned frame %p, Victim returned %p", got, f)
	}
	if f.Addr != first || !f.Valid || f.State != 2 || f.Version != 9 {
		t.Fatalf("held frame now %+v", *f)
	}
}
