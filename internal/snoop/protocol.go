package snoop

import (
	"fmt"
	"math/bits"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Config parameterizes the snooping protocol (paper Table 2 defaults).
type Config struct {
	Nodes   int
	Variant Variant

	mem.CacheConfig

	// TimeoutCycles arms the transaction-timeout watchdog (0 = off).
	TimeoutCycles sim.Time
}

// DefaultConfig returns Table 2 parameters for n nodes.
func DefaultConfig(n int, v Variant) Config {
	return Config{Nodes: n, Variant: v, CacheConfig: mem.DefaultCacheConfig()}
}

// Stats aggregates snooping protocol measurements: the counters every
// cache controller keeps, and the snooping protocol's own.
type Stats struct {
	mem.Counters
	ObligationsServed stats.Counter
	CornerDetected    stats.Counter // Spec: mis-speculations on the corner case
	CornerHandled     stats.Counter // Full: corner case absorbed by the specified no-op
}

// Protocol is a broadcast snooping MOSI protocol over an ordered address
// bus and an unordered data fabric. The embedded Runtime holds what it
// shares with the directory protocol, on one shard and one kernel.
type Protocol struct {
	mem.Runtime

	bus  AddressNet
	data network.Fabric
	cfg  Config

	caches []*sCacheCtrl
	mems   []*memCtrl

	// idx names, per block, the caches whose L2 holds it and the caches
	// with a TBE on it; concerned is OnOrdered's copy of one block's
	// node set. One busy bit per node suffices: a node's req and wb
	// never name the same block, because an access to a block being
	// written back parks, and a fill's victim is never the block filled.
	idx       *mem.BlockIndex
	concerned []uint64

	st Stats
}

func (p *Protocol) sendPooled(cm *coherence.Msg, to coherence.NodeID) {
	nm := network.Alloc(p.data)
	nm.Src = network.NodeID(cm.From)
	nm.Dst = network.NodeID(to)
	nm.VNet = 0
	nm.Size = coherence.DataMsgBytes
	nm.Payload = cm
	p.data.Send(nm)
}

// New builds the protocol over a bus and a data fabric; it claims the
// fabric's clients and attaches itself as the bus's observer.
func New(k *sim.Kernel, bus AddressNet, data network.Fabric, cfg Config, log mem.UndoLogger) *Protocol {
	if cfg.Nodes != data.NumNodes() {
		panic("snoop: node count differs from data network size")
	}
	p := &Protocol{bus: bus, data: data, cfg: cfg, idx: mem.NewBlockIndex(cfg.Nodes)}
	p.Runtime = mem.NewRuntime(k, cfg.Nodes, cfg.TimeoutCycles, &p.st.Counters, p.sendPooled)
	p.concerned = make([]uint64, p.idx.Words())
	p.caches = make([]*sCacheCtrl, cfg.Nodes)
	p.mems = make([]*memCtrl, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c := &sCacheCtrl{p: p, node: coherence.NodeID(i)}
		p.Attach(&c.Ctrl, mem.NewHier(i, cfg.CacheConfig, log, p.idx), c)
		m := &memCtrl{p: p, node: coherence.NodeID(i), h: &c.Hier, owner: make(map[coherence.Addr]int)}
		p.caches[i] = c
		p.mems[i] = m
		data.AttachClient(network.NodeID(i), network.ClientFunc(func(nm *network.Message) bool {
			if cm, ok := nm.Payload.(*coherence.Msg); ok {
				msg := *cm
				if c.handleData(msg) {
					p.FreeMsg(c.node, cm)
					return true
				}
				return false
			}
			return c.handleData(nm.Payload.(coherence.Msg))
		}))
	}
	bus.Attach(p)
	return p
}

// OnOrdered implements BusObserver. In the model every node observes
// every ordered request; the host calls, in the bus's delivery order
// (cache i, then memory controller i), only the controllers the
// observation can change: the requester, every cache whose L2 holds the
// block or that has a TBE on it, and the block's home memory
// controller. For every other controller the observation is a no-op: a
// cache that neither holds the block nor has a TBE on it finds nothing
// to supply, invalidate or record, and its Peek moves no LRU state; a
// memory controller acts only on its home blocks. The node set is read
// from the index once, before the first call. That is exact because a
// call changes only its own node's L2 and TBEs, since supplies and
// completions are scheduled, not run. The one exception is a recovery
// (a Spec corner detection), which resets every node; as the bus does
// between observers, the delivery then stops.
func (p *Protocol) OnOrdered(_ uint64, msg coherence.Msg) {
	a := msg.Addr
	set := p.concerned
	p.idx.Concerned(a, set)
	set[msg.From>>6] |= 1 << (msg.From & 63)
	home := int(p.Home(a))
	epoch := p.Epoch()
	for w, caches := range set {
		at := caches
		if home>>6 == w {
			at |= 1 << (home & 63)
		}
		for ; at != 0; at &= at - 1 {
			b := bits.TrailingZeros64(at)
			i := w<<6 | b
			if caches>>b&1 != 0 {
				p.caches[i].onOrdered(msg)
				if p.Epoch() != epoch {
					return
				}
			}
			if i == home {
				p.mems[i].onOrdered(msg)
				if p.Epoch() != epoch {
					return
				}
			}
		}
	}
}

// Stats exposes the protocol counters.
func (p *Protocol) Stats() *Stats { return &p.st }

// Counters returns the counters every cache controller keeps.
func (p *Protocol) Counters() *mem.Counters { return &p.st.Counters }

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Bus returns the ordered address network.
func (p *Protocol) Bus() AddressNet { return p.bus }

// Flush writes back (M/O) or silently drops (S) the block at node, if
// present and stable. It reports whether anything was done. Exposed for
// cache-flush semantics and used by directed race tests.
func (p *Protocol) Flush(node coherence.NodeID, addr coherence.Addr) bool {
	return p.caches[node].flush(coherence.BlockAddr(addr))
}

// ---- cache controller ----

type obligation struct {
	node   coherence.NodeID
	isGetM bool
}

type sReqTBE struct {
	mem.TBE
	state    SState
	isStore  bool
	doomed   bool // foreign GetM ordered after our GetS: copy dies on arrival
	obs      []obligation
	obClosed bool
}

type sWbTBE struct {
	mem.TBE
	state   SState // SWBa, SWBai
	version uint64
}

type sCacheCtrl struct {
	mem.Ctrl // the node's hierarchy, transaction heads and parked accesses

	p    *Protocol
	node coherence.NodeID

	// reqStore and wbStore are the request and writeback entries whose
	// heads Ctrl.Req and Ctrl.WB point at while outstanding: at most one
	// of each is outstanding per controller, so the entries are reused
	// in place.
	reqStore sReqTBE
	wbStore  sWbTBE
}

// req returns the outstanding request's entry, nil if none.
func (c *sCacheCtrl) req() *sReqTBE {
	if c.Req == nil {
		return nil
	}
	return &c.reqStore
}

// wb returns the outstanding writeback's entry, nil if none.
func (c *sCacheCtrl) wb() *sWbTBE {
	if c.WB == nil {
		return nil
	}
	return &c.wbStore
}

// Miss implements mem.Misser: a store to an S or O line upgrades, and
// a miss from I asks for the block.
func (c *sCacheCtrl) Miss(addr coherence.Addr, line *cache.Line, store bool, done func()) {
	switch {
	case line != nil:
		st := SIMad
		if SState(line.State) == SO {
			st = SOMad
		}
		c.startRequest(addr, coherence.SnoopGetM, st, true, done)
	case store:
		c.startRequest(addr, coherence.SnoopGetM, SIMad, true, done)
	default:
		c.startRequest(addr, coherence.SnoopGetS, SISad, false, done)
	}
}

func (c *sCacheCtrl) startRequest(addr coherence.Addr, kind coherence.MsgKind, st SState, isStore bool, done func()) {
	obs := c.reqStore.obs[:0] // reuse the obligation list's storage
	c.reqStore = sReqTBE{state: st, isStore: isStore, obs: obs}
	c.BeginRequest(&c.reqStore.TBE, addr, done)
	c.p.bus.Submit(coherence.Msg{Kind: kind, Addr: addr, From: c.node})
}

func (c *sCacheCtrl) flush(addr coherence.Addr) bool {
	if c.Req != nil && c.Req.Addr == addr {
		return false
	}
	if c.WB != nil {
		return false
	}
	line := c.L2.Peek(addr)
	if line == nil {
		return false
	}
	switch SState(line.State) {
	case SS:
		c.Drop(addr)
		return true
	case SM, SO:
		c.startWriteback(line)
		return true
	}
	return false
}

func (c *sCacheCtrl) startWriteback(v *cache.Line) {
	addr, ver := v.Addr, v.Version
	c.Drop(addr)
	c.wbStore = sWbTBE{state: SWBa, version: ver}
	c.BeginWriteback(&c.wbStore.TBE, addr)
	c.p.bus.Submit(coherence.Msg{Kind: coherence.SnoopPutM, Addr: addr, From: c.node, Version: ver})
}

// freeWB ends the writeback, which re-issues the accesses parked
// behind it, and retries any Data delivery blocked on the TBE.
func (c *sCacheCtrl) freeWB() {
	c.EndWriteback()
	c.p.data.Kick(network.NodeID(c.node))
}

// onOrdered is the cache's observation of an ordered request: the heart
// of the snooping protocol. Every node observes every ordered request in
// the same global order (Protocol.OnOrdered calls the caches for which
// it does something).
func (c *sCacheCtrl) onOrdered(msg coherence.Msg) {
	own := msg.From == c.node
	switch msg.Kind {
	case coherence.SnoopGetS:
		if own {
			c.ownGetS(msg)
		} else {
			c.foreignGetS(msg)
		}
	case coherence.SnoopGetM:
		if own {
			c.ownGetM(msg)
		} else {
			c.foreignGetM(msg)
		}
	case coherence.SnoopPutM:
		if own {
			c.ownPutM(msg)
		}
		// Foreign PutM: memory's business only.
	default:
		panic("snoop: unexpected bus message " + msg.Kind.String())
	}
}

func (c *sCacheCtrl) ownGetS(msg coherence.Msg) {
	t := c.req()
	if t == nil || t.Addr != msg.Addr || t.state != SISad {
		panic(fmt.Sprintf("snoop: own GetS ordered with no matching transaction node=%d addr=%#x", c.node, uint64(msg.Addr)))
	}
	t.state = SISd
}

func (c *sCacheCtrl) ownGetM(msg coherence.Msg) {
	t := c.req()
	if t == nil || t.Addr != msg.Addr {
		panic("snoop: own GetM ordered with no matching transaction")
	}
	switch t.state {
	case SIMad:
		t.state = SIMd
	case SOMad:
		// Still owner: the upgrade completes at the order point with
		// our own data; no one will supply.
		line := c.L2.Peek(t.Addr)
		if line == nil {
			panic("snoop: OM_AD without an O line")
		}
		c.LogLine(t.Addr)
		line.State = uint8(SM)
		line.Version++
		c.FinishRequest()
	default:
		panic(fmt.Sprintf("snoop: own GetM in state %s", t.state))
	}
}

func (c *sCacheCtrl) ownPutM(msg coherence.Msg) {
	if c.WB == nil || c.WB.Addr != msg.Addr {
		panic("snoop: own PutM ordered with no writeback TBE")
	}
	// SWBa: memory takes the data (the memory controller observed the
	// same event). SWBai: the writeback lost the race and is stale.
	c.freeWB()
}

func (c *sCacheCtrl) foreignGetS(msg coherence.Msg) {
	a := msg.Addr
	if w := c.wb(); w != nil && w.Addr == a {
		if w.state == SWBa {
			// Still owner: supply; the writeback remains pending.
			c.supply(msg.From, a, w.version)
		}
		return // SWBai: the new owner supplies
	}
	if t := c.req(); t != nil && t.Addr == a {
		switch t.state {
		case SIMd:
			if !t.obClosed {
				t.obs = append(t.obs, obligation{msg.From, false})
			}
			return
		case SOMad:
			line := c.L2.Peek(a)
			c.supply(msg.From, a, line.Version)
			return
		}
		// IS_AD / IS_D / IM_AD: someone else supplies.
	}
	line := c.L2.Peek(a)
	if line == nil {
		return
	}
	switch SState(line.State) {
	case SM:
		c.supply(msg.From, a, line.Version)
		c.LogLine(a)
		line.State = uint8(SO)
	case SO:
		c.supply(msg.From, a, line.Version)
	}
}

func (c *sCacheCtrl) foreignGetM(msg coherence.Msg) {
	a := msg.Addr
	if w := c.wb(); w != nil && w.Addr == a {
		switch w.state {
		case SWBa:
			// Ownership transfers at this order point.
			c.supply(msg.From, a, w.version)
			w.state = SWBai
		case SWBai:
			// THE §3.2 corner case: a second foreign RequestReadWrite
			// while our writeback is still unordered.
			if c.p.cfg.Variant == Spec {
				c.p.st.CornerDetected.Inc()
				c.p.MisSpeculate(c.node, "snoop-corner")
				return
			}
			// Full variant: specified as a no-op — ownership already
			// belongs to the first requestor, which queues this one.
			c.p.st.CornerHandled.Inc()
		}
		return
	}
	if t := c.req(); t != nil && t.Addr == a {
		switch t.state {
		case SIMd:
			if !t.obClosed {
				t.obs = append(t.obs, obligation{msg.From, true})
				t.obClosed = true
			}
			return
		case SOMad:
			c.supply(msg.From, a, c.L2.Peek(a).Version)
			c.Drop(a)
			t.state = SIMad
			return
		case SISd:
			c.invalidateIfPresent(a)
			t.doomed = true
			return
		case SISad, SIMad:
			c.invalidateIfPresent(a)
			return
		}
	}
	line := c.L2.Peek(a)
	if line == nil {
		return
	}
	switch SState(line.State) {
	case SS:
		c.Drop(a)
	case SM, SO:
		c.supply(msg.From, a, line.Version)
		c.Drop(a)
	}
}

func (c *sCacheCtrl) invalidateIfPresent(a coherence.Addr) {
	if c.L2.Peek(a) != nil {
		c.Drop(a)
	}
}

func (c *sCacheCtrl) supply(to coherence.NodeID, a coherence.Addr, version uint64) {
	c.p.SendAfter(c.p.cfg.L2Latency,
		coherence.Msg{Kind: coherence.Data, Addr: a, From: c.node, Requestor: to, Version: version}, to)
}

// handleData consumes a Data message from the data fabric. It returns
// false when the install needs a frame that requires the (occupied)
// writeback TBE.
func (c *sCacheCtrl) handleData(msg coherence.Msg) bool {
	t := c.req()
	if t == nil || t.Addr != msg.Addr {
		panic(fmt.Sprintf("snoop: stray data node=%d %s", c.node, msg))
	}
	switch t.state {
	case SISd:
		if t.doomed {
			// The copy was invalidated (in bus order) before arrival;
			// the load still consumes the value it was ordered with.
			c.FinishRequest()
			return true
		}
		if c.L2.Peek(t.Addr) == nil && !c.CanFill(t.Addr, c.WB == nil) {
			return false
		}
		c.installStable(t.Addr, SS, msg.Version)
		c.FinishRequest()
	case SIMd:
		if c.L2.Peek(t.Addr) == nil && !c.CanFill(t.Addr, c.WB == nil) {
			return false
		}
		c.installStable(t.Addr, SM, msg.Version+1) // +1: the store itself
		line := c.L2.Peek(t.Addr)
		// Serve supply obligations queued while awaiting data, in bus
		// order; a GetM obligation ends our ownership.
		for _, ob := range t.obs {
			c.p.st.ObligationsServed.Inc()
			c.supply(ob.node, t.Addr, line.Version)
			if ob.isGetM {
				c.Drop(t.Addr)
				break
			}
			c.LogLine(t.Addr)
			line.State = uint8(SO)
		}
		c.FinishRequest()
	default:
		panic(fmt.Sprintf("snoop: data in state %s", t.state))
	}
	return true
}

// installStable places the transaction's block in the L2, writing back
// an M or O victim, and a newly placed block in the L1 too.
func (c *sCacheCtrl) installStable(a coherence.Addr, st SState, version uint64) {
	if c.Fill(a, uint8(st), version, c.startWriteback) {
		c.FillL1(a)
	}
}

// ---- memory controller ----

// memCtrl observes the ordered requests for its home blocks and
// supplies data when no cache owns the block. Ownership is tracked
// purely from the ordered request stream.
type memCtrl struct {
	p     *Protocol
	node  coherence.NodeID
	h     *mem.Hier              // the node's hierarchy, for its memory slice and undo log
	owner map[coherence.Addr]int // -1 or absent: memory owns
}

func (m *memCtrl) logOwner(a coherence.Addr) {
	if !m.h.Logging() {
		return
	}
	old, had := m.owner[a]
	m.h.Undo(mem.TagOwner, a, func() {
		if had {
			m.owner[a] = old
		} else {
			delete(m.owner, a)
		}
	})
}

func (m *memCtrl) ownerOf(a coherence.Addr) int {
	if o, ok := m.owner[a]; ok {
		return o
	}
	return -1
}

// onOrdered is the home memory controller's observation of an ordered
// request for one of its blocks.
func (m *memCtrl) onOrdered(msg coherence.Msg) {
	a := msg.Addr
	switch msg.Kind {
	case coherence.SnoopGetS:
		if m.ownerOf(a) == -1 {
			m.supply(msg.From, a)
		}
	case coherence.SnoopGetM:
		prev := m.ownerOf(a)
		if prev == -1 {
			m.supply(msg.From, a)
		}
		if prev != int(msg.From) {
			m.logOwner(a)
			m.owner[a] = int(msg.From)
		}
	case coherence.SnoopPutM:
		if m.ownerOf(a) == int(msg.From) {
			m.logOwner(a)
			delete(m.owner, a)
			m.h.WriteMem(a, msg.Version)
		}
		// Stale PutM from a long-gone owner: ignore.
	}
}

func (m *memCtrl) supply(to coherence.NodeID, a coherence.Addr) {
	version := m.h.Mem.Read(a)
	m.p.SendAfter(m.p.cfg.MemLatency,
		coherence.Msg{Kind: coherence.Data, Addr: a, From: m.node, Requestor: to, Version: version}, to)
}
