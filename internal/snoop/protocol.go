package snoop

import (
	"fmt"
	"slices"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/pool"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Config parameterizes the snooping protocol (paper Table 2 defaults).
type Config struct {
	Nodes   int
	Variant Variant

	L1Bytes, L1Ways int
	L2Bytes, L2Ways int

	L1Latency  sim.Time
	L2Latency  sim.Time
	MemLatency sim.Time

	// TimeoutCycles arms the transaction-timeout watchdog (0 = off).
	TimeoutCycles sim.Time
}

// DefaultConfig returns Table 2 parameters for n nodes.
func DefaultConfig(n int, v Variant) Config {
	return Config{
		Nodes:   n,
		Variant: v,
		L1Bytes: 128 * 1024, L1Ways: 4,
		L2Bytes: 4 * 1024 * 1024, L2Ways: 4,
		L1Latency: 1, L2Latency: 12, MemLatency: 120,
	}
}

// UndoLogger is the checkpointing hook (satisfied by *safetynet.Manager).
type UndoLogger interface {
	LogOldValue(node int, key uint64, undo func())
}

// Stats aggregates snooping protocol measurements.
type Stats struct {
	Loads, Stores     stats.Counter
	L1Hits, L2Hits    stats.Counter
	Transactions      stats.Counter
	Writebacks        stats.Counter
	ObligationsServed stats.Counter
	CornerDetected    stats.Counter // Spec: mis-speculations on the corner case
	CornerHandled     stats.Counter // Full: corner case absorbed by the specified no-op
	MissLatency       stats.Histogram
	TimeoutsDetected  stats.Counter
}

// Protocol is a broadcast snooping MOSI protocol over an ordered address
// bus and an unordered data fabric.
type Protocol struct {
	k    *sim.Kernel
	bus  AddressNet
	data network.Fabric
	cfg  Config
	log  UndoLogger

	// OnMisSpeculation handles a detected mis-speculation (the §3.2
	// corner case under Spec). Nil panics.
	OnMisSpeculation func(reason string)

	caches []*sCacheCtrl
	mems   []*memCtrl

	st    Stats
	epoch uint64

	// cmsgFree recycles the boxed payloads of data-fabric messages (see
	// the directory package for the scheme).
	cmsgFree pool.FreeList[coherence.Msg]
}

// Typed-event opcodes, packed into the low bits of a0 beside the epoch.
const (
	sopSend = iota // a1 = destination node, p = *coherence.Msg
	sopDone        // p = the processor completion callback
)

// HandleEvent implements sim.Handler for delayed data supplies and
// processor completion callbacks; stale-epoch events (scheduled before a
// recovery) are dropped.
func (p *Protocol) HandleEvent(a0, a1 uint64, pay any) {
	op := a0 & 3
	if a0>>2 != p.epoch {
		if op == sopSend {
			p.putCM(pay.(*coherence.Msg))
		}
		return
	}
	switch op {
	case sopSend:
		p.sendPooled(pay.(*coherence.Msg), coherence.NodeID(a1))
	case sopDone:
		pay.(func())()
	}
}

func (p *Protocol) getCM() *coherence.Msg   { return p.cmsgFree.Get() }
func (p *Protocol) putCM(cm *coherence.Msg) { p.cmsgFree.Put(cm) }

// sendAfter schedules a data message for later injection without
// allocating; a recovery in the meantime drops it.
func (p *Protocol) sendAfter(d sim.Time, m coherence.Msg, to coherence.NodeID) {
	cm := p.getCM()
	*cm = m
	p.k.AfterEvent(d, p, p.epoch<<2|sopSend, uint64(to), cm)
}

// doneAfter schedules a processor completion callback, dropped on
// recovery (the restored processors re-issue).
func (p *Protocol) doneAfter(d sim.Time, done func()) {
	p.k.AfterEvent(d, p, p.epoch<<2|sopDone, 0, done)
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
// fabric's clients and attaches bus observers for every node.
func New(k *sim.Kernel, bus AddressNet, data network.Fabric, cfg Config, log UndoLogger) *Protocol {
	if cfg.Nodes != data.NumNodes() {
		panic("snoop: node count differs from data network size")
	}
	p := &Protocol{k: k, bus: bus, data: data, cfg: cfg, log: log}
	p.caches = make([]*sCacheCtrl, cfg.Nodes)
	p.mems = make([]*memCtrl, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		c := &sCacheCtrl{
			p:              p,
			node:           coherence.NodeID(i),
			l1:             cache.New(cfg.L1Bytes, cfg.L1Ways),
			l2:             cache.New(cfg.L2Bytes, cfg.L2Ways),
			pendingRestore: make(map[coherence.Addr]restoredLine),
		}
		m := &memCtrl{p: p, node: coherence.NodeID(i), store: mem.NewStore(), owner: make(map[coherence.Addr]int)}
		p.caches[i] = c
		p.mems[i] = m
		bus.Attach(c)
		bus.Attach(m)
		data.AttachClient(network.NodeID(i), network.ClientFunc(func(nm *network.Message) bool {
			if cm, ok := nm.Payload.(*coherence.Msg); ok {
				msg := *cm
				if c.handleData(msg) {
					p.putCM(cm)
					return true
				}
				return false
			}
			return c.handleData(nm.Payload.(coherence.Msg))
		}))
	}
	return p
}

// Stats exposes the protocol counters.
func (p *Protocol) Stats() *Stats { return &p.st }

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Bus returns the ordered address network.
func (p *Protocol) Bus() AddressNet { return p.bus }

// Home maps a block to the node whose memory controller owns it.
func (p *Protocol) Home(a coherence.Addr) coherence.NodeID {
	return coherence.NodeID((uint64(a) / coherence.BlockBytes) % uint64(p.cfg.Nodes))
}

// InFlight counts live transactions; the system drains it to zero
// before checkpoints.
func (p *Protocol) InFlight() int {
	n := 0
	for _, c := range p.caches {
		if c.req != nil {
			n++
		}
		if c.wb != nil {
			n++
		}
		n += len(c.parked)
	}
	return n
}

// ResetTransients clears all TBEs and obligations after a recovery.
func (p *Protocol) ResetTransients() {
	p.epoch++
	for _, c := range p.caches {
		c.flushPendingRestores()
		c.req = nil
		c.reqStore.done = nil // drop the callback reference with the TBE
		c.wb = nil
		c.parked = nil
		c.l1.Clear()
	}
}

// TimeoutScan reports the first node (lowest id) whose outstanding
// transaction has exceeded cfg.TimeoutCycles, if any (never, when
// TimeoutCycles is zero): the scan the system's deadlock watchdog runs.
func (p *Protocol) TimeoutScan() (coherence.NodeID, bool) {
	if p.cfg.TimeoutCycles == 0 {
		return 0, false
	}
	now := p.k.Now()
	for _, c := range p.caches {
		if (c.req != nil && now-c.req.start > p.cfg.TimeoutCycles) ||
			(c.wb != nil && now-c.wb.start > p.cfg.TimeoutCycles) {
			return c.node, true
		}
	}
	return 0, false
}

// NoteTimeout counts a watchdog detection.
func (p *Protocol) NoteTimeout() { p.st.TimeoutsDetected.Inc() }

func (p *Protocol) misSpeculate(reason string) {
	if p.OnMisSpeculation == nil {
		panic("snoop: mis-speculation detected with no recovery wired: " + reason)
	}
	p.OnMisSpeculation(reason)
}

func (p *Protocol) after(d sim.Time, fn func()) {
	e := p.epoch
	p.k.After(d, func() {
		if p.epoch == e {
			fn()
		}
	})
}

func (p *Protocol) sendData(from, to coherence.NodeID, a coherence.Addr, version uint64) {
	cm := p.getCM()
	*cm = coherence.Msg{Kind: coherence.Data, Addr: a, From: from, Requestor: to, Version: version}
	p.sendPooled(cm, to)
}

// Access performs one blocking processor reference at node.
func (p *Protocol) Access(node coherence.NodeID, addr coherence.Addr, kind coherence.AccessType, done func()) {
	p.caches[node].access(coherence.BlockAddr(addr), kind, done)
}

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
	addr     coherence.Addr
	state    SState
	isStore  bool
	doomed   bool // foreign GetM ordered after our GetS: copy dies on arrival
	obs      []obligation
	obClosed bool
	start    sim.Time
	done     func()
}

type sWbTBE struct {
	addr    coherence.Addr
	state   SState // SWBa, SWBai
	version uint64
	start   sim.Time
}

type sParked struct {
	addr coherence.Addr
	kind coherence.AccessType
	done func()
}

type sCacheCtrl struct {
	p      *Protocol
	node   coherence.NodeID
	l1, l2 *cache.Cache
	req    *sReqTBE
	wb     *sWbTBE
	parked []sParked
	// pendingRestore parks rollback installs whose set is transiently
	// over-full mid-undo (see the directory package for the argument);
	// flushed in ResetTransients once the undo pass completes.
	pendingRestore map[coherence.Addr]restoredLine

	// reqStore and wbStore back req and wb: at most one of each is
	// outstanding per controller, so the TBEs are reused in place.
	reqStore sReqTBE
	wbStore  sWbTBE
}

type restoredLine struct {
	state   uint8
	version uint64
}

func (c *sCacheCtrl) logLine(addr coherence.Addr) {
	if c.p.log == nil {
		return
	}
	var old cache.Line
	present := false
	if l := c.l2.Peek(addr); l != nil {
		old = *l
		present = true
	}
	node := int(c.node)
	c.p.log.LogOldValue(node, uint64(addr)|1, func() {
		c.restoreLine(addr, present, old.State, old.Version)
	})
}

func (c *sCacheCtrl) restoreLine(addr coherence.Addr, present bool, state uint8, version uint64) {
	c.l1.Invalidate(addr)
	if !present {
		delete(c.pendingRestore, addr)
		c.l2.Invalidate(addr)
		return
	}
	if l := c.l2.Peek(addr); l != nil {
		delete(c.pendingRestore, addr)
		l.State = state
		l.Version = version
		return
	}
	f := c.l2.Victim(addr, func(*cache.Line) bool { return false })
	if f == nil || f.Valid {
		c.pendingRestore[addr] = restoredLine{state: state, version: version}
		return
	}
	delete(c.pendingRestore, addr)
	c.l2.Install(f, addr, state, version)
}

func (c *sCacheCtrl) flushPendingRestores() {
	// Install in address order: frame choice and LRU rank depend on
	// install order, so flushing in map order would leave the cache in
	// a different (replay-divergent) state on every run.
	addrs := make([]coherence.Addr, 0, len(c.pendingRestore))
	for addr := range c.pendingRestore {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		rl := c.pendingRestore[addr]
		f := c.l2.Victim(addr, func(*cache.Line) bool { return false })
		if f == nil || f.Valid {
			panic("snoop: set still full flushing checkpoint restore")
		}
		c.l2.Install(f, addr, rl.state, rl.version)
	}
	clear(c.pendingRestore)
}

func (c *sCacheCtrl) access(addr coherence.Addr, kind coherence.AccessType, done func()) {
	if c.req != nil {
		panic("snoop: concurrent accesses at one node")
	}
	if kind == coherence.Load {
		c.p.st.Loads.Inc()
	} else {
		c.p.st.Stores.Inc()
	}
	if c.wb != nil && c.wb.addr == addr {
		c.parked = append(c.parked, sParked{addr, kind, done})
		return
	}
	line := c.l2.Lookup(addr)
	if line != nil {
		st := SState(line.State)
		if kind == coherence.Load || st == SM {
			lat := c.p.cfg.L2Latency
			if c.l1.Lookup(addr) != nil {
				c.p.st.L1Hits.Inc()
				lat = c.p.cfg.L1Latency
			} else {
				c.p.st.L2Hits.Inc()
				c.installL1(addr)
			}
			if kind == coherence.Store {
				c.logLine(addr)
				line.Version++
			}
			c.p.doneAfter(lat, done)
			return
		}
		// Store upgrade.
		st2 := SIMad
		if st == SO {
			st2 = SOMad
		}
		c.startRequest(addr, coherence.SnoopGetM, st2, true, done)
		return
	}
	if kind == coherence.Load {
		c.startRequest(addr, coherence.SnoopGetS, SISad, false, done)
	} else {
		c.startRequest(addr, coherence.SnoopGetM, SIMad, true, done)
	}
}

func (c *sCacheCtrl) installL1(addr coherence.Addr) {
	if f := c.l1.Victim(addr, nil); f != nil {
		c.l1.Install(f, addr, 0, 0)
	}
}

func (c *sCacheCtrl) startRequest(addr coherence.Addr, kind coherence.MsgKind, st SState, isStore bool, done func()) {
	c.p.st.Transactions.Inc()
	obs := c.reqStore.obs[:0] // reuse the obligation list's storage
	c.reqStore = sReqTBE{addr: addr, state: st, isStore: isStore, obs: obs, start: c.p.k.Now(), done: done}
	c.req = &c.reqStore
	c.p.bus.Submit(coherence.Msg{Kind: kind, Addr: addr, From: c.node})
}

func (c *sCacheCtrl) flush(addr coherence.Addr) bool {
	if c.req != nil && c.req.addr == addr {
		return false
	}
	if c.wb != nil {
		return false
	}
	line := c.l2.Peek(addr)
	if line == nil {
		return false
	}
	switch SState(line.State) {
	case SS:
		c.logLine(addr)
		c.l1.Invalidate(addr)
		line.Valid = false
		return true
	case SM, SO:
		c.startWriteback(line)
		return true
	}
	return false
}

func (c *sCacheCtrl) startWriteback(v *cache.Line) {
	c.p.st.Writebacks.Inc()
	addr, ver := v.Addr, v.Version
	c.logLine(addr)
	c.l1.Invalidate(addr)
	v.Valid = false
	c.wbStore = sWbTBE{addr: addr, state: SWBa, version: ver, start: c.p.k.Now()}
	c.wb = &c.wbStore
	c.p.bus.Submit(coherence.Msg{Kind: coherence.SnoopPutM, Addr: addr, From: c.node, Version: ver})
}

func (c *sCacheCtrl) freeWB() {
	c.wb = nil
	parked := c.parked
	c.parked = nil
	for _, a := range parked {
		a := a
		c.p.after(0, func() { c.access(a.addr, a.kind, a.done) })
	}
	c.p.data.Kick(network.NodeID(c.node))
}

// OnOrdered implements BusObserver: the heart of the snooping protocol.
// Every node observes every ordered request in the same global order.
func (c *sCacheCtrl) OnOrdered(_ uint64, msg coherence.Msg) {
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
	t := c.req
	if t == nil || t.addr != msg.Addr || t.state != SISad {
		panic(fmt.Sprintf("snoop: own GetS ordered with no matching transaction node=%d addr=%#x", c.node, uint64(msg.Addr)))
	}
	t.state = SISd
}

func (c *sCacheCtrl) ownGetM(msg coherence.Msg) {
	t := c.req
	if t == nil || t.addr != msg.Addr {
		panic("snoop: own GetM ordered with no matching transaction")
	}
	switch t.state {
	case SIMad:
		t.state = SIMd
	case SOMad:
		// Still owner: the upgrade completes at the order point with
		// our own data; no one will supply.
		line := c.l2.Peek(t.addr)
		if line == nil {
			panic("snoop: OM_AD without an O line")
		}
		c.logLine(t.addr)
		line.State = uint8(SM)
		line.Version++
		c.finish(t)
	default:
		panic(fmt.Sprintf("snoop: own GetM in state %s", t.state))
	}
}

func (c *sCacheCtrl) ownPutM(msg coherence.Msg) {
	if c.wb == nil || c.wb.addr != msg.Addr {
		panic("snoop: own PutM ordered with no writeback TBE")
	}
	// SWBa: memory takes the data (the memory controller observed the
	// same event). SWBai: the writeback lost the race and is stale.
	c.freeWB()
}

func (c *sCacheCtrl) foreignGetS(msg coherence.Msg) {
	a := msg.Addr
	if c.wb != nil && c.wb.addr == a {
		if c.wb.state == SWBa {
			// Still owner: supply; the writeback remains pending.
			c.supply(msg.From, a, c.wb.version)
		}
		return // SWBai: the new owner supplies
	}
	if t := c.req; t != nil && t.addr == a {
		switch t.state {
		case SIMd:
			if !t.obClosed {
				t.obs = append(t.obs, obligation{msg.From, false})
			}
			return
		case SOMad:
			line := c.l2.Peek(a)
			c.supply(msg.From, a, line.Version)
			return
		}
		// IS_AD / IS_D / IM_AD: someone else supplies.
	}
	line := c.l2.Peek(a)
	if line == nil {
		return
	}
	switch SState(line.State) {
	case SM:
		c.supply(msg.From, a, line.Version)
		c.logLine(a)
		line.State = uint8(SO)
	case SO:
		c.supply(msg.From, a, line.Version)
	}
}

func (c *sCacheCtrl) foreignGetM(msg coherence.Msg) {
	a := msg.Addr
	if c.wb != nil && c.wb.addr == a {
		switch c.wb.state {
		case SWBa:
			// Ownership transfers at this order point.
			c.supply(msg.From, a, c.wb.version)
			c.wb.state = SWBai
		case SWBai:
			// THE §3.2 corner case: a second foreign RequestReadWrite
			// while our writeback is still unordered.
			if c.p.cfg.Variant == Spec {
				c.p.st.CornerDetected.Inc()
				c.p.misSpeculate("snoop-corner")
				return
			}
			// Full variant: specified as a no-op — ownership already
			// belongs to the first requestor, which queues this one.
			c.p.st.CornerHandled.Inc()
		}
		return
	}
	if t := c.req; t != nil && t.addr == a {
		switch t.state {
		case SIMd:
			if !t.obClosed {
				t.obs = append(t.obs, obligation{msg.From, true})
				t.obClosed = true
			}
			return
		case SOMad:
			line := c.l2.Peek(a)
			c.supply(msg.From, a, line.Version)
			c.logLine(a)
			c.l1.Invalidate(a)
			line.Valid = false
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
	line := c.l2.Peek(a)
	if line == nil {
		return
	}
	switch SState(line.State) {
	case SS:
		c.logLine(a)
		c.l1.Invalidate(a)
		line.Valid = false
	case SM, SO:
		c.supply(msg.From, a, line.Version)
		c.logLine(a)
		c.l1.Invalidate(a)
		line.Valid = false
	}
}

func (c *sCacheCtrl) invalidateIfPresent(a coherence.Addr) {
	if line := c.l2.Peek(a); line != nil {
		c.logLine(a)
		c.l1.Invalidate(a)
		line.Valid = false
	}
}

func (c *sCacheCtrl) supply(to coherence.NodeID, a coherence.Addr, version uint64) {
	c.p.sendAfter(c.p.cfg.L2Latency,
		coherence.Msg{Kind: coherence.Data, Addr: a, From: c.node, Requestor: to, Version: version}, to)
}

// handleData consumes a Data message from the data fabric. It returns
// false when the install needs a frame that requires the (occupied)
// writeback TBE.
func (c *sCacheCtrl) handleData(msg coherence.Msg) bool {
	t := c.req
	if t == nil || t.addr != msg.Addr {
		panic(fmt.Sprintf("snoop: stray data node=%d %s", c.node, msg))
	}
	switch t.state {
	case SISd:
		if t.doomed {
			// The copy was invalidated (in bus order) before arrival;
			// the load still consumes the value it was ordered with.
			c.finish(t)
			return true
		}
		if c.l2.Peek(t.addr) == nil && !c.canAcquireFrame() {
			return false
		}
		c.installStable(t.addr, SS, msg.Version)
		c.finish(t)
	case SIMd:
		if c.l2.Peek(t.addr) == nil && !c.canAcquireFrame() {
			return false
		}
		c.installStable(t.addr, SM, msg.Version+1) // +1: the store itself
		line := c.l2.Peek(t.addr)
		// Serve supply obligations queued while awaiting data, in bus
		// order; a GetM obligation ends our ownership.
		for _, ob := range t.obs {
			c.p.st.ObligationsServed.Inc()
			c.supply(ob.node, t.addr, line.Version)
			c.logLine(t.addr)
			if ob.isGetM {
				c.l1.Invalidate(t.addr)
				line.Valid = false
				break
			}
			line.State = uint8(SO)
		}
		c.finish(t)
	default:
		panic(fmt.Sprintf("snoop: data in state %s", t.state))
	}
	return true
}

func (c *sCacheCtrl) canAcquireFrame() bool {
	v := c.l2.Victim(c.req.addr, nil)
	if v == nil {
		return false
	}
	if !v.Valid || SState(v.State) == SS {
		return true
	}
	return c.wb == nil
}

func (c *sCacheCtrl) installStable(a coherence.Addr, st SState, version uint64) {
	if line := c.l2.Peek(a); line != nil {
		c.logLine(a)
		line.State = uint8(st)
		line.Version = version
		return
	}
	v := c.l2.Victim(a, nil)
	if v.Valid {
		switch SState(v.State) {
		case SS:
			c.logLine(v.Addr)
			c.l1.Invalidate(v.Addr)
			v.Valid = false
		case SM, SO:
			c.startWriteback(v)
		default:
			panic("snoop: transient state in array")
		}
	}
	c.logLine(a)
	c.l2.Install(v, a, uint8(st), version)
	c.installL1(a)
}

func (c *sCacheCtrl) finish(t *sReqTBE) {
	c.p.st.MissLatency.Observe(uint64(c.p.k.Now() - t.start))
	done := t.done
	t.done = nil
	c.req = nil
	if done != nil {
		c.p.doneAfter(0, done)
	}
}

// ---- memory controller ----

// memCtrl observes the bus and supplies data when no cache owns the
// block. Ownership is tracked purely from the ordered request stream.
type memCtrl struct {
	p     *Protocol
	node  coherence.NodeID
	store *mem.Store
	owner map[coherence.Addr]int // -1 or absent: memory owns
}

func (m *memCtrl) logOwner(a coherence.Addr) {
	if m.p.log == nil {
		return
	}
	old, had := m.owner[a]
	m.p.log.LogOldValue(int(m.node), uint64(a)|4, func() {
		if had {
			m.owner[a] = old
		} else {
			delete(m.owner, a)
		}
	})
}

func (m *memCtrl) logMem(a coherence.Addr) {
	if m.p.log == nil {
		return
	}
	old := m.store.Read(a)
	m.p.log.LogOldValue(int(m.node), uint64(a)|2, func() { m.store.Write(a, old) })
}

func (m *memCtrl) ownerOf(a coherence.Addr) int {
	if o, ok := m.owner[a]; ok {
		return o
	}
	return -1
}

// OnOrdered implements BusObserver for the home memory controller.
func (m *memCtrl) OnOrdered(_ uint64, msg coherence.Msg) {
	a := msg.Addr
	if m.p.Home(a) != m.node {
		return
	}
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
			m.logMem(a)
			delete(m.owner, a)
			m.store.Write(a, msg.Version)
		}
		// Stale PutM from a long-gone owner: ignore.
	}
}

func (m *memCtrl) supply(to coherence.NodeID, a coherence.Addr) {
	version := m.store.Read(a)
	m.p.sendAfter(m.p.cfg.MemLatency,
		coherence.Msg{Kind: coherence.Data, Addr: a, From: m.node, Requestor: to, Version: version}, to)
}
