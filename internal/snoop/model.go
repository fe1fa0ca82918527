package snoop

import (
	"fmt"
	"slices"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/explore"
	"specsimp/internal/network"
	"specsimp/internal/sim"
)

// This file adapts the snooping protocol to the shared model-checking
// engine (internal/explore). Two kinds of nondeterminism are explored
// jointly: the address network's arbitration order (any submitted-but-
// unordered request may be granted next — a superset of the timed
// bus's FIFO arbitration, because the protocol must not depend on
// arbiter fairness) and the data fabric's delivery order (Data arrives
// in any order, as on the unordered torus). A bus grant is observed by
// every controller, so grant transitions are global (dependent with
// everything); data deliveries to distinct caches commute.

// snoopEvent is the recorded content of one pending event, for
// transition keys and counterexample rendering.
type snoopEvent struct {
	msg   coherence.Msg
	dst   network.NodeID // data deliveries only
	grant bool
}

// modelBus is an AddressNet under engine control: submitted requests
// queue unordered until the engine grants one, which is then observed
// by every attached observer in grant order.
type modelBus struct {
	m         *snoopModel
	observers []BusObserver
	queue     []coherence.Msg
	ids       []uint64
	seq       uint64
	ordered   uint64
	epoch     uint64
}

func (b *modelBus) Submit(msg coherence.Msg) {
	b.queue = append(b.queue, msg)
	b.ids = append(b.ids, b.m.mint(snoopEvent{msg: msg, grant: true}))
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

// sModelFabric delivers data messages under engine control.
type sModelFabric struct {
	m       *snoopModel
	nodes   int
	clients []network.Client
	queue   []*network.Message
	ids     []uint64
}

func (f *sModelFabric) Send(nm *network.Message) {
	f.queue = append(f.queue, nm)
	var msg coherence.Msg
	switch p := nm.Payload.(type) {
	case *coherence.Msg:
		msg = *p
	case coherence.Msg:
		msg = p
	default:
		panic(fmt.Sprintf("snoop model: foreign payload %T", nm.Payload))
	}
	f.ids = append(f.ids, f.m.mint(snoopEvent{msg: msg, dst: nm.Dst}))
}

func (f *sModelFabric) Kick(network.NodeID)                             {}
func (f *sModelFabric) AttachClient(n network.NodeID, c network.Client) { f.clients[n] = c }
func (f *sModelFabric) NumNodes() int                                   { return f.nodes }

// snoopModel implements explore.Model.
type snoopModel struct {
	cfg  SExploreConfig
	pcfg Config

	k   *sim.Kernel
	bus *modelBus
	f   *sModelFabric
	p   *Protocol

	nextID uint64
	events map[uint64]snoopEvent

	detected     bool
	detectReason string
	completed    int
	want         int
	doneOps      []int
	cornerBase   uint64

	addrbuf []uint64
	keybuf  []uint64
}

func newSnoopModel(cfg SExploreConfig) *snoopModel {
	pcfg := DefaultConfig(cfg.Nodes, cfg.Variant)
	// A single-frame L2 makes every second block a guaranteed eviction:
	// the writeback races the harness must reach cost one extra access
	// instead of a long warm-up.
	pcfg.L2Bytes, pcfg.L2Ways = 64, 1
	pcfg.L1Bytes, pcfg.L1Ways = 64, 1
	m := &snoopModel{cfg: cfg, pcfg: pcfg}
	for _, ops := range cfg.Script {
		m.want += len(ops)
	}
	return m
}

func (m *snoopModel) mint(ev snoopEvent) uint64 {
	m.nextID++ // IDs start at 1: 0 stays free as a sentinel
	m.events[m.nextID] = ev
	return m.nextID
}

func (m *snoopModel) Reset() {
	m.k = sim.NewKernel()
	m.nextID = 0
	m.events = make(map[uint64]snoopEvent)
	m.bus = &modelBus{m: m}
	m.f = &sModelFabric{m: m, nodes: m.cfg.Nodes, clients: make([]network.Client, m.cfg.Nodes)}
	m.p = New(m.k, m.bus, m.f, m.pcfg, nil)
	m.detected = false
	m.detectReason = ""
	m.completed = 0
	m.doneOps = make([]int, len(m.cfg.Script))
	m.cornerBase = m.p.Stats().CornerHandled.Value()
	m.p.OnMisSpeculation = func(reason string) {
		m.detected = true
		m.detectReason = reason
		// Exploration treats detection as a terminal, correct outcome:
		// recovery would restore a checkpoint, which is verified by
		// the system-level tests. Clear state so the run ends cleanly.
		m.p.ResetTransients()
		m.bus.Reset()
		m.f.queue = nil
		m.f.ids = nil
	}
	for n, ops := range m.cfg.Script {
		n, ops := n, ops
		var issue func(i int)
		issue = func(i int) {
			if i >= len(ops) || m.detected {
				return
			}
			m.p.Access(coherence.NodeID(n), ops[i].Addr, ops[i].Kind, func() {
				m.completed++
				m.doneOps[n]++
				issue(i + 1)
			})
		}
		issue(0)
	}
	m.drain()
}

func (m *snoopModel) drain() {
	if !m.k.Drain(1_000_000) {
		panic("snoop model: event flood (1e6 events without quiescence)")
	}
}

func snoopKey(ev snoopEvent) uint64 {
	seed := uint64(3)
	if ev.grant {
		seed = 4
	}
	return explore.HashBytes(seed,
		uint64(ev.dst), uint64(ev.msg.Kind), uint64(ev.msg.Addr), uint64(ev.msg.From),
		uint64(ev.msg.Requestor), ev.msg.Version)
}

func (m *snoopModel) Enabled(buf []explore.Transition) []explore.Transition {
	for i, id := range m.bus.ids {
		ev := m.events[id]
		buf = append(buf, explore.Transition{
			ID:  id,
			Key: snoopKey(ev),
			// A grant is observed by every controller: global.
			Ctrl:  explore.CtrlGlobal,
			Block: int64(uint64(m.bus.queue[i].Addr) / coherence.BlockBytes),
		})
	}
	for i, id := range m.f.ids {
		ev := m.events[id]
		buf = append(buf, explore.Transition{
			ID:    id,
			Key:   snoopKey(ev),
			Ctrl:  int32(m.f.queue[i].Dst),
			Block: int64(uint64(ev.msg.Addr) / coherence.BlockBytes),
		})
	}
	return buf
}

func (m *snoopModel) Take(id uint64) explore.Step {
	for i, bid := range m.bus.ids {
		if bid == id {
			m.bus.grant(i)
			m.drain()
			if m.detected {
				return explore.Detected
			}
			return explore.Progressed
		}
	}
	for i, fid := range m.f.ids {
		if fid == id {
			// Remove before delivering: a detection inside Deliver
			// clears the queue outright.
			nm := m.f.queue[i]
			m.f.queue = append(m.f.queue[:i:i], m.f.queue[i+1:]...)
			m.f.ids = append(m.f.ids[:i:i], m.f.ids[i+1:]...)
			if !m.f.clients[nm.Dst].Deliver(nm) {
				// Back-pressured (Data needing the occupied writeback
				// TBE): the message stays in flight, state unchanged.
				m.f.queue = append(m.f.queue, nm)
				m.f.ids = append(m.f.ids, id)
				return explore.Blocked
			}
			m.drain()
			if m.detected {
				return explore.Detected
			}
			return explore.Progressed
		}
	}
	panic(fmt.Sprintf("snoop model: take of unknown event id %d", id))
}

func (m *snoopModel) Finish() explore.PathOutcome {
	switch {
	case m.detected:
		out := explore.PathOutcome{Status: explore.StatusDetected}
		if m.cfg.Variant == Full {
			out.Err = "full variant mis-speculated: " + m.detectReason
		} else if n := m.p.InFlight(); n != 0 {
			out.Err = fmt.Sprintf("recovery left %d transactions in flight", n)
		}
		return out
	case m.completed == m.want && m.p.InFlight() == 0:
		out := explore.PathOutcome{Status: explore.StatusCompleted}
		if err := m.p.AuditInvariants(); err != nil {
			out.Err = err.Error()
		}
		// Flag paths on which the Full variant absorbed the §3.2
		// corner through its specified transition — evidence the
		// exploration actually reaches the race the Spec variant
		// leaves to speculation.
		out.Flagged = m.p.Stats().CornerHandled.Value() > m.cornerBase
		return out
	default:
		return explore.PathOutcome{
			Status: explore.StatusStuck,
			Err: fmt.Sprintf("stuck with %d/%d completed, %d in flight, %d bus + %d data queued",
				m.completed, m.want, m.p.InFlight(), len(m.bus.queue), len(m.f.queue)),
		}
	}
}

func (m *snoopModel) Describe(id uint64) string {
	ev, ok := m.events[id]
	if !ok {
		return fmt.Sprintf("event#%d", id)
	}
	if ev.grant {
		return fmt.Sprintf("grant{%s}", ev.msg)
	}
	return fmt.Sprintf("deliver{%s}->n%d", ev.msg, ev.dst)
}

// Encode writes the canonical machine state: cache arrays in per-set
// LRU order, TBEs with their obligation queues, memory-controller
// owner tracking and versions, script positions, and both pending
// queues — the unordered bus queue and the data fabric as multisets
// (their order is the engine's choice, not state). Sequence numbers,
// simulated time and epochs are excluded.
func (m *snoopModel) Encode(e *explore.Enc) {
	e.Bool(m.detected)
	for n := range m.doneOps {
		e.Int(m.doneOps[n])
	}
	for _, c := range m.p.caches {
		e.U8(0xA0)
		c.L2.ForEachSetLRU(func(set int, l *cache.Line) {
			e.Int(set)
			e.U64(uint64(l.Addr))
			e.U8(l.State)
			e.U64(l.Version)
		})
		e.U8(0xA1)
		if t := c.req; t != nil {
			e.Bool(true)
			e.U64(uint64(t.addr))
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
		if w := c.wb; w != nil {
			e.Bool(true)
			e.U64(uint64(w.addr))
			e.U8(uint8(w.state))
			e.U64(w.version)
		} else {
			e.Bool(false)
		}
		e.Int(len(c.parked))
		for _, pk := range c.parked {
			e.U64(uint64(pk.addr))
			e.U8(uint8(pk.kind))
		}
	}
	for _, mc := range m.p.mems {
		e.U8(0xA2)
		m.addrbuf = m.addrbuf[:0]
		for a := range mc.owner {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		sortU64s(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			e.Int(mc.owner[coherence.Addr(a)])
		}
		e.U8(0xA3)
		m.addrbuf = m.addrbuf[:0]
		mc.h.Mem.ForEach(func(a coherence.Addr, v uint64) {
			m.addrbuf = append(m.addrbuf, uint64(a))
		})
		sortU64s(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			e.U64(mc.h.Mem.Read(coherence.Addr(a)))
		}
	}
	m.keybuf = m.keybuf[:0]
	for _, id := range m.bus.ids {
		m.keybuf = append(m.keybuf, snoopKey(m.events[id]))
	}
	e.Multiset(m.keybuf)
	m.keybuf = m.keybuf[:0]
	for _, id := range m.f.ids {
		m.keybuf = append(m.keybuf, snoopKey(m.events[id]))
	}
	e.Multiset(m.keybuf)
}

func sortU64s(v []uint64) { slices.Sort(v) }
