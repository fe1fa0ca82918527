package snoop

import (
	"slices"

	"specsimp/internal/coherence"
	"specsimp/internal/explore"
)

// This file is the snooping protocol's model for the shared
// model-checking engine (internal/explore). Two kinds of
// nondeterminism are explored jointly: the address network's
// arbitration order (any submitted-but-unordered request may be
// granted next — a superset of the timed bus's FIFO arbitration,
// because the protocol must not depend on arbiter fairness) and the
// data fabric's delivery order (Data arrives in any order, as on the
// unordered torus). A bus grant is observed by every controller, so
// grant transitions are global (dependent with everything); data
// deliveries to distinct caches commute. Scenarios lists the
// scenarios it verifies.
//
// Within the explored bounds this *proves* the paper's framework
// feature (2) for the §3.2 design: the Spec variant, under every
// interleaving, either completes with intact invariants or detects the
// corner case at its single unspecified transition (a cache in WB_AI
// observing a second foreign RequestReadWrite); and the Full variant,
// which specifies that transition, never mis-speculates at all.

// Blocks the scenarios use: they collide in the model's single-frame
// L2, so a node's second block evicts its first.
const (
	blockA = coherence.Addr(0x000)
	blockB = coherence.Addr(0x400)
	blockC = coherence.Addr(0x800)
)

func ld(a coherence.Addr) explore.Op { return explore.Op{Addr: a, Kind: coherence.Load} }
func st(a coherence.Addr) explore.Op { return explore.Op{Addr: a, Kind: coherence.Store} }

// Scenarios returns the snooping protocol's model-checking table.
func Scenarios() []explore.Scenario {
	return []explore.Scenario{
		// The §3.2 corner: a writeback in flight while two foreign stores
		// compete for the block. Any interleaving that orders both foreign
		// RequestReadWrites before node 0's own PutM reaches the
		// unspecified WB_AI transition.
		{Name: "corner", Nodes: 3, SpecDetects: true, Script: [][]explore.Op{
			0: {st(blockA), st(blockB)},
			1: {st(blockA)},
			2: {st(blockA)},
		}},
		// The scaled proof: the same corner with a fourth node and a third
		// block mid-flight at detection time, so the model checks that
		// ResetTransients leaves nothing behind.
		{Name: "corner-3x4", Nodes: 4, SpecDetects: true, Script: [][]explore.Op{
			0: {st(blockA), st(blockB)},
			1: {st(blockA)},
			2: {st(blockA)},
			3: {st(blockC), ld(blockC)},
		}},
		// Read-share/invalidate without writebacks.
		{Name: "share-invalidate", Nodes: 4, Script: [][]explore.Op{
			0: {ld(blockA), st(blockA)},
			1: {ld(blockA)},
			2: {st(blockA)},
			3: {ld(blockC)},
		}},
		// Writeback racing a read.
		{Name: "corner-gets", Nodes: 3, Script: [][]explore.Op{
			0: {st(blockA), st(blockB)},
			1: {ld(blockA)},
			2: {st(blockA)},
		}},
	}
}

// modelBus is an AddressNet under engine control: submitted requests
// queue unordered until the engine grants one, which is then observed
// by every attached observer in grant order.
type modelBus struct {
	h         *explore.Harness
	observers []BusObserver
	queue     []coherence.Msg
	ids       []uint64
	seq       uint64
	ordered   uint64
	epoch     uint64
}

func (b *modelBus) Submit(msg coherence.Msg) {
	b.queue = append(b.queue, msg)
	b.ids = append(b.ids, b.h.Mint(explore.Event{Msg: msg, Grant: true}))
}

func (b *modelBus) Attach(o BusObserver) { b.observers = append(b.observers, o) }
func (b *modelBus) Ordered() uint64      { return b.ordered }
func (b *modelBus) Reset() {
	b.epoch++
	b.queue = nil
	b.ids = nil
}

// grant orders the queued request with the given position: it receives
// the next global sequence number and is broadcast to all observers. A
// recovery fired mid-broadcast aborts the remaining observers, like
// the timed Bus.
func (b *modelBus) grant(pos int) {
	msg := b.queue[pos]
	b.queue = append(b.queue[:pos:pos], b.queue[pos+1:]...)
	b.ids = append(b.ids[:pos:pos], b.ids[pos+1:]...)
	seq := b.seq
	b.seq++
	b.ordered++
	epoch := b.epoch
	for _, o := range b.observers {
		if b.epoch != epoch {
			return
		}
		o.OnOrdered(seq, msg)
	}
}

// snoopModel implements explore.Model.
type snoopModel struct {
	explore.Harness
	pcfg Config
	bus  *modelBus
	p    *Protocol

	addrbuf []uint64
	keybuf  []uint64
}

// NewModel returns the constructor explore.Run builds sc's models with
// for variant v.
func NewModel(sc explore.Scenario, v Variant) func() explore.Model {
	pcfg := DefaultConfig(sc.Nodes, v)
	// A single-frame L2 makes every second block a guaranteed eviction:
	// the writeback races the harness must reach cost one extra access
	// instead of a long warm-up.
	pcfg.L2Bytes, pcfg.L2Ways = 64, 1
	pcfg.L1Bytes, pcfg.L1Ways = 64, 1
	return func() explore.Model {
		return &snoopModel{
			Harness: explore.Harness{Scenario: sc, Full: v == Full, Route: route},
			pcfg:    pcfg,
		}
	}
}

func (m *snoopModel) Reset() {
	m.Begin()
	m.bus = &modelBus{h: &m.Harness}
	m.p = New(m.Kernel, m.bus, &m.Data, m.pcfg, nil)
	m.p.OnMisSpeculation = func(_ coherence.NodeID, reason string) {
		m.bus.Reset()
		m.Detect(reason)
	}
	m.Start(m.p, &m.p.Stats().CornerHandled)
}

// key hashes an event's content.
func key(ev explore.Event) uint64 {
	seed := uint64(3)
	if ev.Grant {
		seed = 4
	}
	return explore.HashBytes(seed,
		uint64(ev.Dst), uint64(ev.Msg.Kind), uint64(ev.Msg.Addr), uint64(ev.Msg.From),
		uint64(ev.Msg.Requestor), ev.Msg.Version)
}

// route keys a data message and maps it to its destination cache.
func route(ev explore.Event) (uint64, int32) { return key(ev), int32(ev.Dst) }

// Enabled lists the bus grants, then the data deliveries.
func (m *snoopModel) Enabled(buf []explore.Transition) []explore.Transition {
	for _, id := range m.bus.ids {
		// A grant is observed by every controller: global.
		buf = append(buf, explore.Transition{ID: id, Key: key(m.Event(id)), Ctrl: explore.CtrlGlobal})
	}
	return m.Harness.Enabled(buf)
}

// Take grants a queued bus request or delivers a data message.
func (m *snoopModel) Take(id uint64) explore.Step {
	if i := slices.Index(m.bus.ids, id); i >= 0 {
		m.bus.grant(i)
		return m.Settle()
	}
	return m.Harness.Take(id)
}

// Encode writes the canonical machine state: cache arrays in per-set
// LRU order, TBEs with their obligation queues, memory-controller
// owner tracking and versions, script positions, and both pending
// queues — the unordered bus queue and the data fabric as multisets
// (their order is the engine's choice, not state). Sequence numbers,
// simulated time and epochs are excluded.
func (m *snoopModel) Encode(e *explore.Enc) {
	m.EncodeScript(e)
	for _, c := range m.p.caches {
		e.U8(0xA0)
		e.Lines(c.L2)
		e.U8(0xA1)
		if t := c.req(); t != nil {
			e.Bool(true)
			e.U64(uint64(t.Addr))
			e.U8(uint8(t.state))
			e.Bool(t.isStore)
			e.Bool(t.doomed)
			e.Bool(t.obClosed)
			e.Int(len(t.obs))
			for _, ob := range t.obs { // served in bus order: keep order
				e.U64(uint64(ob.node))
				e.Bool(ob.isGetM)
			}
		} else {
			e.Bool(false)
		}
		if w := c.wb(); w != nil {
			e.Bool(true)
			e.U64(uint64(w.Addr))
			e.U8(uint8(w.state))
			e.U64(w.version)
		} else {
			e.Bool(false)
		}
		e.Int(len(c.Parked()))
		for _, pk := range c.Parked() {
			e.U64(uint64(pk.Addr))
			e.U8(uint8(pk.Kind))
		}
	}
	for _, mc := range m.p.mems {
		e.U8(0xA2)
		m.addrbuf = m.addrbuf[:0]
		for a := range mc.owner {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		slices.Sort(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			e.Int(mc.owner[coherence.Addr(a)])
		}
		e.U8(0xA3)
		e.Memory(mc.h.Mem)
	}
	m.keybuf = m.keybuf[:0]
	for _, id := range m.bus.ids {
		m.keybuf = append(m.keybuf, key(m.Event(id)))
	}
	e.Multiset(m.keybuf)
	m.EncodeData(e)
}
