package mem

import (
	"fmt"
	"slices"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// The MOSI stable states a valid L2 line holds in cache.Line.State. Both
// protocols number their stable states from these, so the hit path,
// the victim rule and the audit read either protocol's lines.
const (
	I = iota // invalid: never the state of a valid line
	S        // shared, clean
	O        // owned, dirty, sharers may exist
	M        // modified, exclusive
)

// CacheConfig sizes and times a node's hierarchy. Both protocol
// configurations embed it.
type CacheConfig struct {
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int

	L1Latency  sim.Time // L1 hit latency
	L2Latency  sim.Time // L2 hit latency
	MemLatency sim.Time // DRAM access before a memory-sourced Data
}

// DefaultCacheConfig returns the paper's Table 2 hierarchy: a 128 KB
// 4-way L1, a 4 MB 4-way L2, and 1-, 12- and 120-cycle latencies.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{
		L1Bytes: 128 * 1024, L1Ways: 4,
		L2Bytes: 4 * 1024 * 1024, L2Ways: 4,
		L1Latency: 1, L2Latency: 12, MemLatency: 120,
	}
}

// UndoLogger is the checkpointing hook (satisfied by
// *safetynet.Manager). A nil logger disables checkpoint logging.
type UndoLogger interface {
	LogOldValue(node int, key uint64, undo func())
}

// Tag names the kind of state an undo-log entry restores. It fills the
// low bits of the entry's key, which block alignment leaves free, so
// the kinds of state logged for one block never share a key.
type Tag uint64

// Undo-key tags.
const (
	TagLine  Tag = 1 + iota // an L2 line (Hier.LogLine)
	TagMem                  // a memory block's version (Hier.WriteMem)
	TagDir                  // a directory entry
	TagOwner                // a snooping memory controller's owner record
)

// Hier is one node's memory hierarchy: an L1 that tracks only presence,
// an L2 whose lines hold their MOSI state and data version, and the
// node's slice of main memory, with SafetyNet undo logging of L2 lines
// and memory blocks. A protocol's cache controller embeds it by value;
// the node's memory or directory controller reaches it by pointer. If
// the protocol shares a BlockIndex, the hierarchy keeps its node's
// holder bits there: every path that adds a line to the L2 or removes
// one (Fill, Drop, restore, FinishRollback) sets or clears the bit.
type Hier struct {
	L1, L2 *cache.Cache
	Mem    *Store

	cfg  CacheConfig
	node int
	log  UndoLogger

	// parked holds the rollback installs that found their set full
	// (restore); FinishRollback installs them.
	parked map[coherence.Addr]parkedLine

	idx *BlockIndex // nil: no index kept
}

type parkedLine struct {
	state   uint8
	version uint64
}

// NewHier builds node's hierarchy, logging to log (nil: no logging)
// and keeping its holder bits in idx (nil: no index). It panics on a
// geometry cache.New refuses.
func NewHier(node int, cfg CacheConfig, log UndoLogger, idx *BlockIndex) Hier {
	return Hier{
		L1:     cache.New(cfg.L1Bytes, cfg.L1Ways),
		L2:     cache.New(cfg.L2Bytes, cfg.L2Ways),
		Mem:    NewStore(),
		cfg:    cfg,
		node:   node,
		log:    log,
		parked: make(map[coherence.Addr]parkedLine),
		idx:    idx,
	}
}

// install places block a in frame f, obtained from Victim, and sets
// its holder bit.
func (h *Hier) install(f *cache.Line, a coherence.Addr, state uint8, version uint64) {
	h.L2.Install(f, a, state, version)
	if h.idx != nil {
		h.idx.setHolder(a, h.node)
	}
}

// invalidate removes block a from the L2, if present, and clears its
// holder bit.
func (h *Hier) invalidate(a coherence.Addr) {
	h.L2.Invalidate(a)
	if h.idx != nil {
		h.idx.clearHolder(a, h.node)
	}
}

// Logging reports whether undo logging is on. A caller checks it before
// building an undo closure for Undo, so a machine without a log builds
// none.
func (h *Hier) Logging() bool { return h.log != nil }

// Undo records undo, the restore of block a's state of kind t, in the
// node's checkpoint log. Only the first record of a key in a checkpoint
// epoch is kept (safetynet.Manager.LogOldValue).
func (h *Hier) Undo(t Tag, a coherence.Addr, undo func()) {
	if h.log != nil {
		h.log.LogOldValue(h.node, uint64(a)|uint64(t), undo)
	}
}

// LogLine records the L2 line of block a, or its absence, in the
// checkpoint log. Call it before any change to that line.
func (h *Hier) LogLine(a coherence.Addr) {
	if h.log == nil {
		return
	}
	var old cache.Line
	present := false
	if l := h.L2.Peek(a); l != nil {
		old = *l
		present = true
	}
	h.Undo(TagLine, a, func() { h.restore(a, present, old.State, old.Version) })
}

// WriteMem sets memory block a to version v, logging its old version.
func (h *Hier) WriteMem(a coherence.Addr, v uint64) {
	if h.log != nil {
		old := h.Mem.Read(a)
		h.Undo(TagMem, a, func() { h.Mem.Write(a, old) })
	}
	h.Mem.Write(a, v)
}

// restore puts block a's L2 line back as logged. The undo pass runs
// newest entry first, and a key is logged once per epoch, so an
// evictee's undo can run before the undo that removes its replacement:
// its set is then transiently full. Such an install is parked until
// FinishRollback, when the set holds exactly its checkpoint contents
// minus the parked lines, so a free frame is certain for each.
func (h *Hier) restore(a coherence.Addr, present bool, state uint8, version uint64) {
	h.L1.Invalidate(a)
	if !present {
		delete(h.parked, a)
		h.invalidate(a)
		return
	}
	if l := h.L2.Peek(a); l != nil {
		delete(h.parked, a)
		l.State = state
		l.Version = version
		return
	}
	f := h.L2.Victim(a, func(*cache.Line) bool { return false })
	if f == nil || f.Valid {
		h.parked[a] = parkedLine{state: state, version: version}
		return
	}
	delete(h.parked, a)
	h.install(f, a, state, version)
}

// FinishRollback completes a rollback after the undo pass: it installs
// the parked lines and empties the L1. It installs in address order,
// because frame choice and LRU rank depend on install order: map order
// would leave the cache in a different state on every run, and replays
// would diverge.
func (h *Hier) FinishRollback() {
	addrs := make([]coherence.Addr, 0, len(h.parked))
	for a := range h.parked {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		pl := h.parked[a]
		f := h.L2.Victim(a, func(*cache.Line) bool { return false })
		if f == nil || f.Valid {
			panic(fmt.Sprintf("mem: set still full installing the parked line %#x at node %d", uint64(a), h.node))
		}
		h.install(f, a, pl.state, pl.version)
	}
	clear(h.parked)
	h.L1.Clear()
}

// FillL1 puts block a in the L1, which holds no state or data of its
// own.
func (h *Hier) FillL1(a coherence.Addr) {
	if f := h.L1.Victim(a, nil); f != nil {
		h.L1.Install(f, a, 0, 0)
	}
}

// Hit serves a reference that the valid L2 line permits, a load or a
// store to an M line, and returns its latency and whether the L1 held
// the block; an L2 hit fills the L1. A store logs the line and bumps
// its version: the store's new data. A store to an S or O line needs an
// upgrade: Hit changes nothing and returns ok false.
func (h *Hier) Hit(line *cache.Line, store bool) (lat sim.Time, l1, ok bool) {
	if store && line.State != M {
		return 0, false, false
	}
	if h.L1.Lookup(line.Addr) != nil {
		lat, l1 = h.cfg.L1Latency, true
	} else {
		lat = h.cfg.L2Latency
		h.FillL1(line.Addr)
	}
	if store {
		h.LogLine(line.Addr)
		line.Version++
	}
	return lat, l1, true
}

// CanFill reports whether Fill can place block a now: its set has a
// free frame or an S line to drop, or wbFree says an M or O victim can
// be written back. It changes no line.
func (h *Hier) CanFill(a coherence.Addr, wbFree bool) bool {
	v := h.L2.Victim(a, nil)
	return v != nil && (!v.Valid || v.State == S || wbFree)
}

// Fill places block a in the L2 as (state, version), logging the line
// first: in place if a is present, else in a frame the MOSI victim rule
// frees. That is a free way, or else the LRU line, dropped silently if
// it is S and otherwise (M or O) passed to writeback, which must take
// its data and invalidate it. It reports whether a took a new frame.
// The L1 is left alone.
func (h *Hier) Fill(a coherence.Addr, state uint8, version uint64, writeback func(*cache.Line)) (fresh bool) {
	if l := h.L2.Peek(a); l != nil {
		h.LogLine(a)
		l.State = state
		l.Version = version
		return false
	}
	v := h.L2.Victim(a, nil)
	if v.Valid {
		switch v.State {
		case S:
			h.Drop(v.Addr)
		case O, M:
			writeback(v)
		default:
			panic(fmt.Sprintf("mem: transient state %d in the L2 of node %d", v.State, h.node))
		}
	}
	h.LogLine(a)
	h.install(v, a, state, version)
	return true
}

// Drop invalidates block a in both levels, logging its L2 line first.
func (h *Hier) Drop(a coherence.Addr) {
	h.LogLine(a)
	h.L1.Invalidate(a)
	h.invalidate(a)
}

// Copy is one node's valid L2 line of a block, as the audit sees it.
type Copy struct {
	Node    int
	State   uint8
	Version uint64
}

// Audit runs the coherence checks both protocols share over every
// block that the hierarchies hs cache or extra names, in address order,
// so the first violation reported is the same on every run. A block's
// copies must all be stable, with one version and at most one owner (M
// or O). Memory's version, read by memV, may not be newer than theirs,
// nor differ from it while no cache owns the block. check then runs
// the protocol's own checks, given the owner's node (-1 if none) and
// the copies. Call it only at a quiescent point.
func Audit(hs []*Hier, extra []coherence.Addr, memV func(coherence.Addr) uint64,
	check func(a coherence.Addr, owner int, cs []Copy) error) error {
	copies := make(map[coherence.Addr][]Copy)
	for _, h := range hs {
		h.L2.ForEach(func(l *cache.Line) {
			copies[l.Addr] = append(copies[l.Addr], Copy{Node: h.node, State: l.State, Version: l.Version})
		})
	}
	addrs := slices.Clone(extra)
	for a := range copies {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range slices.Compact(addrs) {
		cs := copies[a]
		owner := -1
		for _, c := range cs {
			switch c.State {
			case M, O:
				if owner >= 0 {
					return fmt.Errorf("block %#x: nodes %d and %d both own it", uint64(a), owner, c.Node)
				}
				owner = c.Node
			case S:
			default:
				return fmt.Errorf("block %#x: transient state %d in the L2 of node %d", uint64(a), c.State, c.Node)
			}
			if c.Version != cs[0].Version {
				return fmt.Errorf("block %#x: version divergence among cached copies (%d vs %d)", uint64(a), c.Version, cs[0].Version)
			}
		}
		if len(cs) > 0 {
			if v := memV(a); v > cs[0].Version {
				return fmt.Errorf("block %#x: memory version %d newer than cached %d", uint64(a), v, cs[0].Version)
			} else if owner < 0 && v != cs[0].Version {
				return fmt.Errorf("block %#x: no owner but memory %d != cached %d", uint64(a), v, cs[0].Version)
			}
		}
		if err := check(a, owner, cs); err != nil {
			return err
		}
	}
	return nil
}
