package directory

import (
	"slices"

	"specsimp/internal/coherence"
	"specsimp/internal/explore"
)

// This file is the directory protocol's model for the shared
// model-checking engine (internal/explore): a dirModel is a
// deterministic transition system whose transitions are deliveries of
// in-flight messages, with a canonical state encoding for visited-set
// pruning. Scenarios lists the scenarios it verifies.
//
// The paper's §3 motivates speculation precisely by the cost of
// verifying protocols ("the state space explosion problem ... limits
// the viability of various formal verification methods"). Within the
// explored bounds the engine *proves* the paper's framework feature (2)
// — detection of **all** mis-speculations — by checking that the Spec
// variant, under every possible interleaving, either completes with
// intact invariants or detects the violation at its single designated
// invalid transition, and that the Full variant never mis-speculates
// at all. Sleep sets and state hashing (see internal/explore) take the
// provable scenarios from 2 blocks × 2–3 active nodes to 3 blocks × 4
// nodes.

// Scenario is one entry of the directory protocol's model-checking
// table.
type Scenario struct {
	explore.Scenario
	// Pointers > 0 gives the directory Dir_i_B limited-pointer entries
	// with that many pointers, driving the overflow and imprecise-
	// invalidation paths no other check covers exhaustively; zero keeps
	// the exact full bitmap.
	Pointers int
}

// Blocks the scenarios use: all homed at node 0 and in the model's
// single L2 set, so a node touching all three evicts one.
const (
	blockA = coherence.Addr(0)
	blockB = coherence.Addr(4 * 64)
	blockC = coherence.Addr(8 * 64)
)

func ld(a coherence.Addr) explore.Op { return explore.Op{Addr: a, Kind: coherence.Load} }
func st(a coherence.Addr) explore.Op { return explore.Op{Addr: a, Kind: coherence.Store} }

// Scenarios returns the directory protocol's model-checking table.
func Scenarios() []Scenario {
	return []Scenario{
		// The §3.1 writeback/forward race.
		{Scenario: explore.Scenario{Name: "race", Nodes: 4, SpecDetects: true, Script: [][]explore.Op{
			1: {st(blockA), st(blockB), st(blockC)},
			2: {st(blockA)},
			3: {},
		}}},
		// The scaled proof: 3 blocks, 4 active nodes, overlapping
		// writeback races — detection fires with other transactions
		// mid-flight, and the model checks ResetTransients clears them all.
		{Scenario: explore.Scenario{Name: "race-3x4", Nodes: 4, SpecDetects: true, Script: [][]explore.Op{
			0: {st(blockA), st(blockB), st(blockC)},
			1: {st(blockB), st(blockC)},
			2: {st(blockA)},
			3: {ld(blockB)},
		}}},
		// Readers invalidated by competing writers.
		{Scenario: explore.Scenario{Name: "share-invalidate", Nodes: 4, Script: [][]explore.Op{
			0: {ld(blockA), st(blockA)},
			1: {ld(blockA)},
			2: {st(blockA)},
			3: {},
		}}},
		// Competing upgrades from S.
		{Scenario: explore.Scenario{Name: "upgrade-race", Nodes: 4, Script: [][]explore.Op{
			0: {ld(blockA), st(blockA)},
			1: {ld(blockA), st(blockA)},
			2: {},
			3: {},
		}}},
		// Writeback racing a read.
		{Scenario: explore.Scenario{Name: "race-gets", Nodes: 4, SpecDetects: true, Script: [][]explore.Op{
			1: {st(blockA), st(blockB), st(blockC)},
			2: {ld(blockA)},
			3: {},
		}}},
		// Dir_1_B overflow: the second sharer degrades the entry to
		// broadcast, so invalidations are imprecise.
		{Scenario: explore.Scenario{Name: "sharer-overflow", Nodes: 4, Script: [][]explore.Op{
			0: {ld(blockA)},
			1: {ld(blockA)},
			2: {ld(blockA), st(blockA)},
			3: {st(blockA), st(blockB)},
		}}, Pointers: 1},
		// Dir_1_B overflow while a recovery is in flight: nodes 0 and 2
		// share A, which can overflow its 1-pointer entry, while node
		// 1's evictions put its writeback of A in the §3.1 race with
		// node 2's store, so Spec can detect with the entry overflowed.
		{Scenario: explore.Scenario{Name: "overflow-race", Nodes: 4, SpecDetects: true, Script: [][]explore.Op{
			0: {ld(blockA)},
			1: {st(blockA), st(blockB), st(blockC)},
			2: {ld(blockA), st(blockA)},
			3: {},
		}}, Pointers: 1},
	}
}

// dirModel implements explore.Model.
type dirModel struct {
	explore.Harness
	pcfg Config
	p    *Protocol

	addrbuf []uint64
	keybuf  []uint64
}

// NewModel returns the constructor explore.Run builds sc's models with
// for variant v.
func NewModel(sc Scenario, v Variant) func() explore.Model {
	pcfg := DefaultConfig(sc.Nodes, v)
	// Exploration always uses a 1-set 2-way L2: scenarios that need
	// evictions get them, tiny caches keep per-path construction
	// cheap, and scenarios touching <=2 blocks per node see no
	// difference.
	pcfg.L2Bytes, pcfg.L2Ways = 2*64, 2
	pcfg.L1Bytes, pcfg.L1Ways = 64, 1
	if sc.Pointers > 0 {
		pcfg.Sharers, pcfg.SharerPointers = LimitedPointer, sc.Pointers
	}
	return func() explore.Model {
		return &dirModel{
			Harness: explore.Harness{Scenario: sc.Scenario, Full: v == Full, Route: route},
			pcfg:    pcfg,
		}
	}
}

func (m *dirModel) Reset() {
	m.Begin()
	p, err := NewChecked(m.Kernel, &m.Data, m.pcfg, nil)
	if err != nil {
		panic(err) // the scenario tables hold only valid configurations
	}
	m.p = p
	m.p.OnMisSpeculation = func(_ coherence.NodeID, reason string) { m.Detect(reason) }
	m.Start(m.p, &m.p.Stats().WBRaces)
}

// route keys a message by content and maps it to its destination
// controller: each node hosts two disjoint controllers (cache and
// directory), and the independence relation commutes deliveries to
// distinct controllers.
func route(ev explore.Event) (uint64, int32) {
	c := int32(ev.Dst) * 2
	switch ev.Msg.Kind {
	case coherence.GetS, coherence.GetM, coherence.PutM, coherence.FinalAck:
		c++ // directory controller
	}
	return msgKey(1, int64(ev.Dst), ev.Msg), c
}

func msgKey(seed uint64, dst int64, msg coherence.Msg) uint64 {
	flags := uint64(0)
	if msg.Stale {
		flags |= 1
	}
	if msg.Imprecise {
		flags |= 2
	}
	return explore.HashBytes(seed,
		uint64(dst), uint64(msg.Kind), uint64(msg.Addr), uint64(msg.From),
		uint64(msg.Requestor), msg.Version, uint64(int64(msg.AckCount)), flags, msg.TID)
}

// Encode writes the canonical machine state: script positions, cache
// arrays in per-set LRU order, TBEs, directory entries/busy
// records/deferred queues in address order, memory versions, and the
// in-flight message multiset. Simulation time, event-kernel state
// (always drained here), epochs and TID mint counters are excluded:
// states differing only in those behave identically.
func (m *dirModel) Encode(e *explore.Enc) {
	m.EncodeScript(e)
	for _, c := range m.p.caches {
		e.U8(0xC0)
		e.Lines(c.L2)
		e.U8(0xC1)
		if t := c.req(); t != nil {
			e.Bool(true)
			e.U64(uint64(t.Addr))
			e.U8(uint8(t.state))
			e.Bool(t.isStore)
			e.Int(t.acksNeeded)
			e.Int(t.acksGot)
			e.U64(t.version)
			e.Bool(t.gotData)
			e.U64(t.tid)
		} else {
			e.Bool(false)
		}
		if w := c.wb(); w != nil {
			e.Bool(true)
			e.U64(uint64(w.Addr))
			e.U8(uint8(w.state))
			e.U64(w.version)
			e.U64(w.staleTID)
			m.keybuf = m.keybuf[:0]
			for tid := range w.served {
				m.keybuf = append(m.keybuf, tid)
			}
			e.Multiset(m.keybuf)
		} else {
			e.Bool(false)
		}
		e.Int(len(c.Parked()))
		for _, pk := range c.Parked() {
			e.U64(uint64(pk.Addr))
			e.U8(uint8(pk.Kind))
		}
		m.addrbuf = m.addrbuf[:0]
		for a := range c.servedStable {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		slices.Sort(m.addrbuf)
		e.Int(len(m.addrbuf))
		for _, a := range m.addrbuf {
			e.U64(a)
			e.U64(c.servedStable[coherence.Addr(a)])
		}
	}
	for _, d := range m.p.dirs {
		e.U8(0xD0)
		m.addrbuf = m.addrbuf[:0]
		//detlint:allow maporder pure filter via sharers.isEmpty(); keys are sorted below before encoding
		for a, ent := range d.entries {
			if ent.state == DInv && ent.owner == -1 && ent.sharers.isEmpty() {
				continue // indistinguishable from an absent entry
			}
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		slices.Sort(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			encodeDirEntry(e, d.entries[coherence.Addr(a)])
		}
		e.U8(0xD1)
		m.addrbuf = m.addrbuf[:0]
		for a := range d.busy {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		slices.Sort(m.addrbuf)
		for _, a := range m.addrbuf {
			b := d.busy[coherence.Addr(a)]
			e.U64(a)
			e.U64(uint64(b.requestor))
			e.Bool(b.isGetM)
			e.Int(b.fwdTo)
			e.U64(b.tid)
			e.Int(b.acks)
			encodeDirEntry(e, &b.complete)
		}
		e.U8(0xD2)
		m.addrbuf = m.addrbuf[:0]
		for a, q := range d.queue {
			if len(q) > 0 {
				m.addrbuf = append(m.addrbuf, uint64(a))
			}
		}
		slices.Sort(m.addrbuf)
		for _, a := range m.addrbuf {
			q := d.queue[coherence.Addr(a)]
			e.U64(a)
			e.Int(len(q))
			for _, msg := range q { // deferred requests drain in order
				e.U64(msgKey(2, int64(d.node), msg))
			}
		}
		e.U8(0xD3)
		e.Memory(d.h.Mem)
	}
	m.EncodeData(e)
}

func encodeDirEntry(e *explore.Enc, ent *dirEntry) {
	e.U8(uint8(ent.state))
	e.Int(ent.owner)
	e.U64(ent.sharers.bits)
	e.Bool(ent.sharers.over)
	var ptrs [maxSharerPointers]uint16
	copy(ptrs[:], ent.sharers.ptrs[:ent.sharers.n])
	slices.Sort(ptrs[:ent.sharers.n])
	e.U8(ent.sharers.n)
	for i := 0; i < int(ent.sharers.n); i++ {
		e.U64(uint64(ptrs[i]))
	}
}
