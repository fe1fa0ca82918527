package directory

import (
	"fmt"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Config parameterizes the protocol and its cache hierarchy
// (defaults follow the paper's Table 2).
type Config struct {
	Nodes   int
	Variant Variant

	// Sharers selects the directory entry's sharer-set representation
	// (the zero value, FullBitmap, is exact and caps the machine at 64
	// nodes). SharerPointers sizes LimitedPointer entries (0 = Dir_4_B);
	// SharerClusterSize sizes CoarseVector clusters (0 = narrowest
	// cluster that fits 64 vector bits). See Validate.
	Sharers           SharerFormat
	SharerPointers    int
	SharerClusterSize int

	mem.CacheConfig
	DirLatency sim.Time // directory processing occupancy

	// TimeoutCycles is the coherence transaction timeout used as the §4
	// deadlock detector (three checkpoint intervals in the paper); 0
	// disables the watchdog.
	TimeoutCycles sim.Time
}

// DefaultConfig returns Table 2 parameters for n nodes. The sharer-set
// format is geometry-derived: exact bitmaps up to 64 nodes, limited
// pointers with broadcast overflow beyond.
func DefaultConfig(n int, v Variant) Config {
	return Config{
		Nodes:       n,
		Variant:     v,
		Sharers:     DefaultSharerFormat(n),
		CacheConfig: mem.DefaultCacheConfig(),
		DirLatency:  20,
	}
}

// Stats aggregates protocol measurements: the counters every cache
// controller keeps, and the directory protocol's own. All fields are
// exact integer accumulators, so per-shard instances merge to
// bit-identical totals regardless of how the nodes were partitioned.
type Stats struct {
	mem.Counters
	RacesHandled    stats.Counter // Full: races absorbed by the extra machinery
	WBRaces         stats.Counter // writebacks that raced an in-flight forward
	DupDataDropped  stats.Counter
	OrderViolations stats.Counter // Spec: detected p2p-ordering mis-speculations
	Invalidations   stats.Counter // Inv messages sent by directories
	InvBroadcasts   stats.Counter // inv fan-outs performed in Dir_i_B broadcast mode
	SharerOverflows stats.Counter // limited-pointer entries degraded to broadcast
}

// merge folds o into s (exact, order-independent).
func (s *Stats) merge(o *Stats) {
	s.Counters.Merge(&o.Counters)
	s.RacesHandled.Add(o.RacesHandled.Value())
	s.WBRaces.Add(o.WBRaces.Value())
	s.DupDataDropped.Add(o.DupDataDropped.Value())
	s.OrderViolations.Add(o.OrderViolations.Value())
	s.Invalidations.Add(o.Invalidations.Value())
	s.InvBroadcasts.Add(o.InvBroadcasts.Value())
	s.SharerOverflows.Add(o.SharerOverflows.Value())
}

// Protocol is a complete 16-node (configurable) MOSI directory protocol
// instance wired to a network. Each node hosts a cache controller and a
// directory controller for its share of the address space (block-
// interleaved homes). The embedded Runtime holds what the directory
// shares with the snooping protocol: the nodes' kernels and shards,
// delayed sends and completions, the processor access path and the
// per-node scans.
type Protocol struct {
	mem.Runtime

	net network.Fabric
	cfg Config
	lay sharerLayout // resolved sharer-set interpretation (from cfg)

	caches []*cacheCtrl
	dirs   []*dirCtrl

	// sts holds one Stats per shard (one entry when serial); Stats()
	// merges them exactly, so totals are shard-count-independent.
	sts []Stats
}

// NewChecked builds the protocol over an existing network fabric; the
// fabric's clients for all nodes are claimed by the protocol. A
// configuration the fabric or the sharer-set format cannot represent
// (e.g. more than 64 nodes on a full bitmap) is an error, not a crash.
func NewChecked(k *sim.Kernel, net network.Fabric, cfg Config, log mem.UndoLogger) (*Protocol, error) {
	if cfg.Nodes != net.NumNodes() {
		return nil, fmt.Errorf("directory: %d nodes differ from network size %d", cfg.Nodes, net.NumNodes())
	}
	lay, err := cfg.sharerLayout()
	if err != nil {
		return nil, err
	}
	p := &Protocol{net: net, cfg: cfg, lay: lay, sts: make([]Stats, 1)}
	p.Runtime = mem.NewRuntime(k, cfg.Nodes, cfg.TimeoutCycles, &p.sts[0].Counters, p.sendPooled)
	p.caches = make([]*cacheCtrl, cfg.Nodes)
	p.dirs = make([]*dirCtrl, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		c := &cacheCtrl{
			p:            p,
			node:         coherence.NodeID(i),
			st:           &p.sts[0],
			servedStable: make(map[coherence.Addr]uint64),
		}
		p.Attach(&c.Ctrl, mem.NewHier(i, cfg.CacheConfig, log, nil), c)
		p.caches[i] = c
		p.dirs[i] = &dirCtrl{
			p:       p,
			node:    coherence.NodeID(i),
			st:      &p.sts[0],
			h:       &c.Hier,
			entries: make(map[coherence.Addr]*dirEntry),
			busy:    make(map[coherence.Addr]*busyInfo),
			queue:   make(map[coherence.Addr][]coherence.Msg),
		}
		net.AttachClient(network.NodeID(i), network.ClientFunc(func(m *network.Message) bool {
			return p.deliver(coherence.NodeID(i), m)
		}))
	}
	return p, nil
}

// PartitionOnShards re-homes every node's controllers onto its shard:
// node i's cache and directory slice schedule on g.Kernel(shardOf[i])
// and count into that shard's Stats and payload pool. Call once, right
// after NewChecked, before any traffic. The fabric must be the matching
// sharded network, so that cross-node messages — the only cross-node
// interaction the protocol has — cross shards through boundary queues.
func (p *Protocol) PartitionOnShards(g *sim.Shards, shardOf []int) {
	if len(shardOf) != p.cfg.Nodes {
		panic("directory: shard map size mismatch")
	}
	p.sts = make([]Stats, g.N())
	cs := make([]*mem.Counters, g.N())
	for i := range p.sts {
		cs[i] = &p.sts[i].Counters
	}
	p.Partition(g, shardOf, cs)
	for i, sh := range shardOf {
		p.caches[i].st = &p.sts[sh]
		p.dirs[i].st = &p.sts[sh]
	}
}

// Stats exposes protocol counters: live for a serial protocol, an
// exact merged snapshot (identical at any shard count) for a sharded
// one. Sharded callers must be quiesced.
func (p *Protocol) Stats() *Stats {
	if len(p.sts) == 1 {
		return &p.sts[0]
	}
	m := &Stats{}
	for i := range p.sts {
		m.merge(&p.sts[i])
	}
	return m
}

// Counters returns the counters every cache controller keeps, as Stats
// does.
func (p *Protocol) Counters() *mem.Counters { return &p.Stats().Counters }

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// InFlight reports the number of live transactions (the caches'
// requests, writebacks and parked accesses, and busy directory
// entries); the system layer drains to zero before taking a
// checkpoint.
func (p *Protocol) InFlight() int {
	n := p.Runtime.InFlight()
	for _, d := range p.dirs {
		n += len(d.busy)
	}
	return n
}

// ResetTransients clears every TBE, busy entry and queued request: the
// protocol's part of a SafetyNet recovery (checkpointed state is
// restored by the undo log; transients are derived state that is simply
// discarded along with the in-flight messages).
func (p *Protocol) ResetTransients() {
	p.Runtime.ResetTransients()
	for _, c := range p.caches {
		c.servedStable = make(map[coherence.Addr]uint64)
	}
	for _, d := range p.dirs {
		d.busy = make(map[coherence.Addr]*busyInfo)
		d.queue = make(map[coherence.Addr][]coherence.Msg)
	}
}

func (p *Protocol) send(m coherence.Msg, to coherence.NodeID) {
	p.sendPooled(p.NewMsg(m), to)
}

// sendPooled injects a pool-boxed payload; ownership of cm passes to the
// network until the destination consumes it (deliver returns it to the
// pool) or a recovery drops it (the box is simply garbage collected and
// the pool refills).
func (p *Protocol) sendPooled(cm *coherence.Msg, to coherence.NodeID) {
	nm := network.Alloc(p.net, network.NodeID(cm.From))
	nm.Src = network.NodeID(cm.From)
	nm.Dst = network.NodeID(to)
	nm.VNet = coherence.VNetOf(cm.Kind)
	nm.Size = coherence.SizeOf(cm.Kind)
	nm.Payload = cm
	p.net.Send(nm)
}

// deliver dispatches an incoming network message to the node's cache or
// directory controller. It returns false if the message cannot be
// consumed yet (resource back-pressure; the network retries on Kick).
func (p *Protocol) deliver(node coherence.NodeID, nm *network.Message) bool {
	var msg coherence.Msg
	cm, pooled := nm.Payload.(*coherence.Msg)
	if pooled {
		msg = *cm
	} else if v, ok := nm.Payload.(coherence.Msg); ok {
		// Scripted fabrics and tests may inject plain value payloads.
		msg = v
	} else {
		panic(fmt.Sprintf("directory: foreign payload %T", nm.Payload))
	}
	var consumed bool
	switch msg.Kind {
	case coherence.GetS, coherence.GetM, coherence.PutM, coherence.FinalAck:
		p.dirs[node].handle(msg)
		consumed = true
	default:
		consumed = p.caches[node].handle(msg)
	}
	if consumed && pooled {
		p.FreeMsg(node, cm)
	}
	return consumed
}

// ---- cache controller ----

type reqTBE struct {
	mem.TBE
	state      CState
	isStore    bool
	acksNeeded int // -1 until Data arrives
	acksGot    int
	version    uint64
	gotData    bool
	tid        uint64
}

type wbTBE struct {
	mem.TBE
	state    CState // CWBa, CIIa, CIIf
	version  uint64
	served   map[uint64]bool // TIDs of forwards served while writing back
	staleTID uint64          // TID awaited in CIIf
}

type cacheCtrl struct {
	mem.Ctrl // the node's hierarchy, transaction heads and parked accesses

	p    *Protocol
	node coherence.NodeID
	st   *Stats // the owning shard's stats
	// servedStable records the TID of the last forward served from the
	// stable array (M/O + FwdGetS) per block. If that block is evicted
	// while the forward's transaction is still busy at the directory, a
	// racing PutM draws a stale WBAck carrying that TID — which must be
	// recognized as already-served rather than awaited in II_F.
	servedStable map[coherence.Addr]uint64
	// tidNext numbers this node's transactions; combined with the node
	// id it yields globally unique, end-to-end transaction ids, which
	// requestors use to reject stale duplicate Data from an earlier
	// transaction on the same block.
	tidNext uint64

	// reqStore and wbStore are the request and writeback entries whose
	// heads Ctrl.Req and Ctrl.WB point at while outstanding: the
	// controller has at most one of each, so the entries are reused in
	// place instead of allocated per transaction.
	reqStore reqTBE
	wbStore  wbTBE
}

// req returns the outstanding request's entry, nil if none.
func (c *cacheCtrl) req() *reqTBE {
	if c.Req == nil {
		return nil
	}
	return &c.reqStore
}

// wb returns the outstanding writeback's entry, nil if none.
func (c *cacheCtrl) wb() *wbTBE {
	if c.WB == nil {
		return nil
	}
	return &c.wbStore
}

// Miss implements mem.Misser: a store to an S or O line upgrades, and
// a miss from I asks for the block.
func (c *cacheCtrl) Miss(addr coherence.Addr, line *cache.Line, store bool, done func()) {
	switch {
	case line != nil:
		from := CSMad
		if CState(line.State) == CO {
			from = COMad
		}
		c.startRequest(addr, coherence.GetM, from, true, done)
	case store:
		c.startRequest(addr, coherence.GetM, CIMad, true, done)
	default:
		c.startRequest(addr, coherence.GetS, CISd, false, done)
	}
}

func (c *cacheCtrl) startRequest(addr coherence.Addr, kind coherence.MsgKind, st CState, isStore bool, done func()) {
	c.tidNext++
	tid := uint64(c.node)<<48 | c.tidNext
	c.reqStore = reqTBE{state: st, isStore: isStore, acksNeeded: -1, tid: tid}
	c.BeginRequest(&c.reqStore.TBE, addr, done)
	c.p.send(coherence.Msg{Kind: kind, Addr: addr, From: c.node, Requestor: c.node, TID: tid}, c.p.Home(addr))
}

// handle processes one incoming coherence message at the cache
// controller; it returns false when the message must wait (Data that
// needs a frame while the writeback TBE is occupied).
func (c *cacheCtrl) handle(msg coherence.Msg) bool {
	switch msg.Kind {
	case coherence.Data:
		return c.handleData(msg)
	case coherence.Ack:
		c.handleAck(msg)
	case coherence.Inv:
		c.handleInv(msg)
	case coherence.FwdGetS, coherence.FwdGetM:
		c.handleFwd(msg)
	case coherence.WBAck:
		c.handleWBAck(msg)
	default:
		panic("directory: cache received " + msg.Kind.String())
	}
	return true
}

func (c *cacheCtrl) handleData(msg coherence.Msg) bool {
	t := c.req()
	if t == nil || t.Addr != msg.Addr || t.gotData || msg.TID != t.tid {
		// No transaction wants this data: it is the directory's copy of
		// a race response the old owner also supplied, or a stale
		// duplicate outliving its (completed) transaction — possible
		// only in the Full variant, whose race handling double-sends.
		if c.p.cfg.Variant == Full {
			c.st.DupDataDropped.Inc()
			return true
		}
		c.unspecifiedCache(c.stateOf(msg.Addr), EvDataDup, msg)
		return true
	}
	// The line is installed at Data time (the directory is busy with
	// this very transaction, so no forward can observe it early). If a
	// frame requires a writeback and the writeback TBE is occupied, the
	// message waits in the ingress queue — nothing is mutated.
	if c.L2.Peek(t.Addr) == nil && !c.CanFill(t.Addr, c.WB == nil) {
		return false
	}
	t.gotData = true
	t.acksNeeded = msg.AckCount
	t.version = msg.Version
	// An upgrading sharer/owner already holds the freshest data; never
	// let a stale memory copy roll the version back.
	if l := c.L2.Peek(msg.Addr); l != nil && l.Version > t.version {
		t.version = l.Version
	}
	c.installLine()
	if t.acksGot >= t.acksNeeded {
		c.finishRequest()
		return true
	}
	switch t.state {
	case CIMad:
		t.state = CIMa
	case CSMad:
		t.state = CSMa
	case COMad:
		t.state = COMa
	case CISd:
		// A GetS has no acks to wait for; reaching here is a bug.
		panic("directory: GetS data with pending acks")
	}
	return true
}

func (c *cacheCtrl) handleAck(msg coherence.Msg) {
	t := c.req()
	if t == nil || t.Addr != msg.Addr {
		panic("directory: stray inv-ack")
	}
	t.acksGot++
	if t.gotData && t.acksGot >= t.acksNeeded {
		c.finishRequest()
	}
}

// installLine places the transaction's block in the array in its final
// stable state (data has arrived; acks may still be outstanding, but no
// other agent can observe the line because the directory is busy with
// this transaction).
func (c *cacheCtrl) installLine() {
	t := c.req()
	st := CS
	if t.isStore {
		st = CM
	}
	c.Fill(t.Addr, uint8(st), t.version, c.startWriteback)
}

// finishRequest retires the access: bumps the version for stores,
// releases the directory with a FinalAck and calls the processor back.
func (c *cacheCtrl) finishRequest() {
	t := c.req()
	line := c.L2.Peek(t.Addr)
	if line == nil {
		panic("directory: finishing a request with no line installed")
	}
	if t.isStore {
		c.LogLine(t.Addr)
		line.Version++ // the store itself produces a new version
	}
	c.FillL1(t.Addr)
	c.p.send(coherence.Msg{Kind: coherence.FinalAck, Addr: t.Addr, From: c.node, TID: t.tid}, c.p.Home(t.Addr))
	c.FinishRequest()
}

// startWriteback evicts the M or O line v, which Fill chose as its
// victim: the writeback TBE holds its data until the WBAck.
func (c *cacheCtrl) startWriteback(v *cache.Line) {
	if c.WB != nil {
		panic("directory: victim writeback with the writeback TBE busy (CanFill lied)")
	}
	addr, ver := v.Addr, v.Version
	c.Drop(addr)
	served := c.wbStore.served
	if served == nil {
		served = make(map[uint64]bool)
	} else {
		clear(served)
	}
	c.wbStore = wbTBE{state: CWBa, version: ver, served: served}
	c.BeginWriteback(&c.wbStore.TBE, addr)
	if tid, ok := c.servedStable[addr]; ok {
		served[tid] = true
		delete(c.servedStable, addr)
	}
	c.p.send(coherence.Msg{Kind: coherence.PutM, Addr: addr, From: c.node, Version: ver}, c.p.Home(addr))
}

// freeWB ends the writeback, which re-issues the accesses parked
// behind it, and retries any Data delivery blocked on the TBE.
func (c *cacheCtrl) freeWB() {
	c.EndWriteback()
	c.p.net.Kick(network.NodeID(c.node))
}

func (c *cacheCtrl) handleInv(msg coherence.Msg) {
	ack := func() {
		c.p.send(coherence.Msg{Kind: coherence.Ack, Addr: msg.Addr, From: c.node}, msg.Requestor)
	}
	if t := c.req(); t != nil && t.Addr == msg.Addr {
		switch t.state {
		case CISd, CIMad:
			ack() // stale Inv for a silently evicted older copy
			return
		case CSMad:
			// Our S copy is invalidated mid-upgrade.
			c.Drop(msg.Addr)
			t.state = CIMad
			ack()
			return
		default:
			c.unspecifiedCache(t.state, EvInv, msg)
			return
		}
	}
	if w := c.wb(); w != nil && w.Addr == msg.Addr {
		// Under exact sharer tracking the owner is never in the sharer
		// set, so an Inv landing on a pending writeback is still an
		// illegal transition — keep the detection point. An imprecise
		// fan-out (overflowed limited-pointer entry, coarse cluster) can
		// legitimately name an ex-owner whose writeback the directory
		// already absorbed; the TBE's copy is dead to the protocol
		// (memory or the new owner has the data) and acking closes the
		// requestor's count. The directory flags that case per message,
		// so exact entries of every format stay armed.
		if !msg.Imprecise {
			c.unspecifiedCache(w.state, EvInv, msg)
			return
		}
		ack()
		return
	}
	line := c.L2.Peek(msg.Addr)
	if line == nil {
		ack() // stale Inv after silent eviction
		return
	}
	switch CState(line.State) {
	case CS:
		c.Drop(msg.Addr)
		ack()
	default:
		c.unspecifiedCache(CState(line.State), EvInv, msg)
	}
}

func (c *cacheCtrl) handleFwd(msg coherence.Msg) {
	ev := EvFwdGetS
	if msg.Kind == coherence.FwdGetM {
		ev = EvFwdGetM
	}
	sendData := func(version uint64) {
		c.p.SendAfter(c.p.cfg.L2Latency, coherence.Msg{
			Kind: coherence.Data, Addr: msg.Addr, From: c.node,
			Requestor: msg.Requestor, Version: version,
			AckCount: msg.AckCount, TID: msg.TID,
		}, msg.Requestor)
	}

	// Writeback in flight: the TBE is still the owner (WB_A).
	if w := c.wb(); w != nil && w.Addr == msg.Addr {
		switch w.state {
		case CWBa:
			w.served[msg.TID] = true
			sendData(w.version)
			if ev == EvFwdGetM {
				w.state = CIIa
			}
		case CIIf:
			// Full variant: the doomed forward the stale WBAck warned
			// about; the directory already supplied the data.
			c.freeWB()
		default:
			c.unspecifiedCache(w.state, ev, msg)
		}
		return
	}
	// Owner upgrade in flight (OM_AD still holds the O line).
	if t := c.req(); t != nil && t.Addr == msg.Addr && t.state == COMad {
		line := c.L2.Peek(msg.Addr)
		if line == nil {
			panic("directory: OM_AD without an O line")
		}
		sendData(line.Version)
		if ev == EvFwdGetM {
			c.Drop(msg.Addr)
			t.state = CIMad
		}
		return
	}
	line := c.L2.Peek(msg.Addr)
	if line == nil {
		// THE detection point (paper §3.1): a cache without a valid
		// copy receives a forwarded request. Under the Spec variant the
		// interconnect reordered a WBAck ahead of this forward; recover.
		if c.p.cfg.Variant == Spec {
			c.st.OrderViolations.Inc()
			c.p.MisSpeculate(c.node, "p2p-ordering")
			return
		}
		c.unspecifiedCache(CInv, ev, msg)
		return
	}
	switch CState(line.State) {
	case CM, CO:
		sendData(line.Version)
		if ev == EvFwdGetS {
			c.LogLine(msg.Addr)
			line.State = uint8(CO)
			// The line survives and may be evicted while this forward's
			// transaction is still busy; remember we served it.
			c.servedStable[msg.Addr] = msg.TID
		} else {
			c.Drop(msg.Addr)
		}
	default:
		c.unspecifiedCache(CState(line.State), ev, msg)
	}
}

func (c *cacheCtrl) handleWBAck(msg coherence.Msg) {
	w := c.wb()
	if w == nil || w.Addr != msg.Addr {
		c.unspecifiedCache(c.stateOf(msg.Addr), EvWBAck, msg)
		return
	}
	if msg.Stale {
		// Full variant only: a forward to this node is (or was) in
		// flight. If we already served it, the writeback is finished;
		// otherwise wait for the doomed forward in II_F.
		if c.p.cfg.Variant != Full {
			c.unspecifiedCache(w.state, EvWBAckStale, msg)
			return
		}
		c.st.RacesHandled.Inc()
		if w.served[msg.TID] || w.state == CIIa {
			c.freeWB()
			return
		}
		w.state = CIIf
		w.staleTID = msg.TID
		return
	}
	switch w.state {
	case CWBa, CIIa:
		c.freeWB()
	default:
		c.unspecifiedCache(w.state, EvWBAck, msg)
	}
}

// stateOf reconstructs the controller-visible state for addr, for
// diagnostics.
func (c *cacheCtrl) stateOf(addr coherence.Addr) CState {
	if t := c.req(); t != nil && t.Addr == addr {
		return t.state
	}
	if w := c.wb(); w != nil && w.Addr == addr {
		return w.state
	}
	if l := c.L2.Peek(addr); l != nil {
		return CState(l.State)
	}
	return CInv
}

func (c *cacheCtrl) unspecifiedCache(s CState, e CEvent, msg coherence.Msg) {
	panic(fmt.Sprintf("directory(%s): unspecified cache transition node=%d state=%s event=%s msg={%s}",
		c.p.cfg.Variant, c.node, s, e, msg))
}
