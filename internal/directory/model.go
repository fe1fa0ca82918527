package directory

import (
	"fmt"
	"slices"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/explore"
	"specsimp/internal/network"
	"specsimp/internal/sim"
)

// This file adapts the directory protocol to the shared model-checking
// engine (internal/explore): a dirModel is a deterministic transition
// system whose transitions are deliveries of in-flight messages, with
// a canonical state encoding for visited-set pruning.

// modelFabric delivers messages under engine control: sends queue with
// a deterministic ID (mint order), and the engine picks which in-flight
// message arrives next.
type modelFabric struct {
	nodes   int
	clients []network.Client
	queue   []*network.Message
	ids     []uint64
	nextID  uint64
	// payloads keeps a value copy of each sent message for transition
	// keys and counterexample rendering (the pooled payload box is
	// recycled at delivery). Reset clears it, so it holds one path's
	// sends at most.
	payloads map[uint64]sentMsg
}

type sentMsg struct {
	msg coherence.Msg
	dst network.NodeID
}

func (f *modelFabric) Send(m *network.Message) {
	f.nextID++ // IDs start at 1: 0 stays free as a sentinel
	f.queue = append(f.queue, m)
	f.ids = append(f.ids, f.nextID)
	f.payloads[f.nextID] = sentMsg{payloadOf(m), m.Dst}
}

func (f *modelFabric) Kick(network.NodeID)                             {}
func (f *modelFabric) AttachClient(n network.NodeID, c network.Client) { f.clients[n] = c }
func (f *modelFabric) NumNodes() int                                   { return f.nodes }

func payloadOf(m *network.Message) coherence.Msg {
	switch p := m.Payload.(type) {
	case *coherence.Msg:
		return *p
	case coherence.Msg:
		return p
	default:
		panic(fmt.Sprintf("directory model: foreign payload %T", m.Payload))
	}
}

// dirModel implements explore.Model.
type dirModel struct {
	cfg  ExploreConfig
	pcfg Config

	k *sim.Kernel
	f *modelFabric
	p *Protocol

	detected     bool
	detectReason string
	completed    int
	want         int
	doneOps      []int // per-node completed op count (script position)
	wbRaceBase   uint64

	addrbuf []uint64
	keybuf  []uint64
}

func newDirModel(cfg ExploreConfig) *dirModel {
	pcfg := DefaultConfig(cfg.Nodes, cfg.Variant)
	// Exploration always uses a 1-set 2-way L2: scenarios that need
	// evictions get them, tiny caches keep per-path construction
	// cheap, and scenarios touching <=2 blocks per node see no
	// difference.
	pcfg.L2Bytes, pcfg.L2Ways = 2*64, 2
	pcfg.L1Bytes, pcfg.L1Ways = 64, 1
	if cfg.Sharers != FullBitmap {
		pcfg.Sharers = cfg.Sharers
		pcfg.SharerPointers = cfg.SharerPointers
		pcfg.SharerClusterSize = cfg.SharerClusterSize
	}
	m := &dirModel{cfg: cfg, pcfg: pcfg}
	for _, ops := range cfg.Script {
		m.want += len(ops)
	}
	return m
}

func (m *dirModel) Reset() {
	m.k = sim.NewKernel()
	m.f = &modelFabric{
		nodes:    m.cfg.Nodes,
		clients:  make([]network.Client, m.cfg.Nodes),
		payloads: make(map[uint64]sentMsg),
	}
	m.p = New(m.k, m.f, m.pcfg, nil)
	m.detected = false
	m.detectReason = ""
	m.completed = 0
	m.doneOps = make([]int, len(m.cfg.Script))
	m.wbRaceBase = m.p.Stats().WBRaces.Value()
	m.p.OnMisSpeculation = func(_ coherence.NodeID, reason string) {
		m.detected = true
		m.detectReason = reason
		// Exploration treats detection as a terminal, correct outcome:
		// recovery would restore a checkpoint, which is verified by
		// the system-level tests. Clear state so the run ends cleanly.
		m.p.ResetTransients()
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

func (m *dirModel) drain() {
	if !m.k.Drain(1_000_000) {
		panic("directory model: event flood (1e6 events without quiescence)")
	}
}

// dirMsgCtrl maps a message to its destination controller: each node
// hosts two disjoint controllers (cache and directory), and the
// independence relation commutes deliveries to distinct controllers.
func dirMsgCtrl(dst network.NodeID, msg coherence.Msg) int32 {
	c := int32(dst) * 2
	switch msg.Kind {
	case coherence.GetS, coherence.GetM, coherence.PutM, coherence.FinalAck:
		return c + 1 // directory controller
	}
	return c // cache controller
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

func (m *dirModel) Enabled(buf []explore.Transition) []explore.Transition {
	for i, nm := range m.f.queue {
		msg := m.f.payloads[m.f.ids[i]].msg
		buf = append(buf, explore.Transition{
			ID:    m.f.ids[i],
			Key:   msgKey(1, int64(nm.Dst), msg),
			Ctrl:  dirMsgCtrl(nm.Dst, msg),
			Block: int64(uint64(msg.Addr) / coherence.BlockBytes),
		})
	}
	return buf
}

func (m *dirModel) Take(id uint64) explore.Step {
	pos := -1
	for i, mid := range m.f.ids {
		if mid == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic(fmt.Sprintf("directory model: take of unknown message id %d", id))
	}
	// Remove before delivering: a detection inside Deliver clears the
	// queue outright, so slicing it afterwards would corrupt it.
	nm := m.f.queue[pos]
	m.f.queue = append(m.f.queue[:pos:pos], m.f.queue[pos+1:]...)
	m.f.ids = append(m.f.ids[:pos:pos], m.f.ids[pos+1:]...)
	if !m.f.clients[nm.Dst].Deliver(nm) {
		// Back-pressured (Data waiting on the writeback TBE): the
		// message stays in flight, the state is unchanged (its queue
		// position is not part of the state — enumeration is by ID).
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

func (m *dirModel) Finish() explore.PathOutcome {
	switch {
	case m.detected:
		out := explore.PathOutcome{Status: explore.StatusDetected}
		if m.cfg.Variant == Full {
			out.Err = "full variant mis-speculated: " + m.detectReason
		} else if n := m.p.InFlight(); n != 0 {
			// Recovery-mid-flight check: ResetTransients must leave no
			// transaction behind, however much was in flight.
			out.Err = fmt.Sprintf("recovery left %d transactions in flight", n)
		}
		return out
	case m.completed == m.want && m.p.InFlight() == 0:
		out := explore.PathOutcome{Status: explore.StatusCompleted}
		if err := m.p.AuditInvariants(); err != nil {
			out.Err = err.Error()
		}
		out.Flagged = m.p.Stats().WBRaces.Value() > m.wbRaceBase
		return out
	default:
		return explore.PathOutcome{
			Status: explore.StatusStuck,
			Err: fmt.Sprintf("stuck with %d/%d completed, %d in flight, %d queued",
				m.completed, m.want, m.p.InFlight(), len(m.f.queue)),
		}
	}
}

func (m *dirModel) Describe(id uint64) string {
	if sm, ok := m.f.payloads[id]; ok {
		return fmt.Sprintf("deliver{%s}->n%d", sm.msg, sm.dst)
	}
	return fmt.Sprintf("msg#%d", id)
}

// Encode writes the canonical machine state: cache arrays in per-set
// LRU order, TBEs, directory entries/busy records/deferred queues in
// address order, memory versions, script positions, and the in-flight
// message multiset. Simulation time, event-kernel state (always
// drained here), epochs and TID mint counters are excluded: states
// differing only in those behave identically.
func (m *dirModel) Encode(e *explore.Enc) {
	e.Bool(m.detected)
	for n := range m.doneOps {
		e.Int(m.doneOps[n])
	}
	for _, c := range m.p.caches {
		e.U8(0xC0)
		c.l2.ForEachSetLRU(func(set int, l *cache.Line) {
			e.Int(set)
			e.U64(uint64(l.Addr))
			e.U8(l.State)
			e.U64(l.Version)
		})
		e.U8(0xC1)
		if t := c.req; t != nil {
			e.Bool(true)
			e.U64(uint64(t.addr))
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
		if w := c.wb; w != nil {
			e.Bool(true)
			e.U64(uint64(w.addr))
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
		e.Int(len(c.parked))
		for _, pk := range c.parked {
			e.U64(uint64(pk.addr))
			e.U8(uint8(pk.kind))
		}
		m.addrbuf = m.addrbuf[:0]
		for a := range c.servedStable {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		sortU64(m.addrbuf)
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
		sortU64(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			encodeDirEntry(e, d.entries[coherence.Addr(a)])
		}
		e.U8(0xD1)
		m.addrbuf = m.addrbuf[:0]
		for a := range d.busy {
			m.addrbuf = append(m.addrbuf, uint64(a))
		}
		sortU64(m.addrbuf)
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
		sortU64(m.addrbuf)
		for _, a := range m.addrbuf {
			q := d.queue[coherence.Addr(a)]
			e.U64(a)
			e.Int(len(q))
			for _, msg := range q { // deferred requests drain in order
				e.U64(msgKey(2, int64(d.node), msg))
			}
		}
		e.U8(0xD3)
		m.addrbuf = m.addrbuf[:0]
		d.store.ForEach(func(a coherence.Addr, v uint64) {
			m.addrbuf = append(m.addrbuf, uint64(a))
		})
		sortU64(m.addrbuf)
		for _, a := range m.addrbuf {
			e.U64(a)
			e.U64(d.store.Read(coherence.Addr(a)))
		}
	}
	// In-flight messages as a multiset: delivery order is the engine's
	// choice, not part of the state.
	m.keybuf = m.keybuf[:0]
	for i := range m.f.queue {
		msg := m.f.payloads[m.f.ids[i]].msg
		m.keybuf = append(m.keybuf, msgKey(1, int64(m.f.queue[i].Dst), msg))
	}
	e.Multiset(m.keybuf)
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

func sortU64(v []uint64) { slices.Sort(v) }
