package directory

import (
	"fmt"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/pool"
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

// Stats aggregates protocol measurements. All fields are exact integer
// accumulators, so per-shard instances merge to bit-identical totals
// regardless of how the nodes were partitioned.
type Stats struct {
	Loads, Stores    stats.Counter
	L1Hits, L2Hits   stats.Counter
	Transactions     stats.Counter
	Writebacks       stats.Counter
	RacesHandled     stats.Counter // Full: races absorbed by the extra machinery
	WBRaces          stats.Counter // writebacks that raced an in-flight forward
	DupDataDropped   stats.Counter
	MissLatency      stats.Histogram
	TimeoutsDetected stats.Counter
	OrderViolations  stats.Counter // Spec: detected p2p-ordering mis-speculations
	Invalidations    stats.Counter // Inv messages sent by directories
	InvBroadcasts    stats.Counter // inv fan-outs performed in Dir_i_B broadcast mode
	SharerOverflows  stats.Counter // limited-pointer entries degraded to broadcast
}

// merge folds o into s (exact, order-independent).
func (s *Stats) merge(o *Stats) {
	s.Loads.Add(o.Loads.Value())
	s.Stores.Add(o.Stores.Value())
	s.L1Hits.Add(o.L1Hits.Value())
	s.L2Hits.Add(o.L2Hits.Value())
	s.Transactions.Add(o.Transactions.Value())
	s.Writebacks.Add(o.Writebacks.Value())
	s.RacesHandled.Add(o.RacesHandled.Value())
	s.WBRaces.Add(o.WBRaces.Value())
	s.DupDataDropped.Add(o.DupDataDropped.Value())
	s.MissLatency.Merge(&o.MissLatency)
	s.TimeoutsDetected.Add(o.TimeoutsDetected.Value())
	s.OrderViolations.Add(o.OrderViolations.Value())
	s.Invalidations.Add(o.Invalidations.Value())
	s.InvBroadcasts.Add(o.InvBroadcasts.Value())
	s.SharerOverflows.Add(o.SharerOverflows.Value())
}

// Protocol is a complete 16-node (configurable) MOSI directory protocol
// instance wired to a network. Each node hosts a cache controller and a
// directory controller for its share of the address space (block-
// interleaved homes).
type Protocol struct {
	k   *sim.Kernel // shard 0's kernel (the only kernel when serial)
	net network.Fabric
	cfg Config
	lay sharerLayout // resolved sharer-set interpretation (from cfg)

	// ks[node] and shardOf[node] map each node's controllers onto their
	// execution shard (PartitionOnShards); serial protocols map every
	// node to k / shard 0. All per-node work — delayed sends, completion
	// callbacks, transaction timestamps — uses the owning node's kernel.
	ks      []*sim.Kernel
	shardOf []int

	// OnMisSpeculation is invoked on a detected mis-speculation (a Spec
	// variant ordering violation) with the detecting node. It must
	// perform the recovery (reset, restore) or arrange it: serial
	// systems recover immediately, sharded systems *defer* the recovery
	// to the next window edge (a detection must not mutate other shards
	// mid-window). Either way the detecting handler drops its message.
	// Nil panics on detection — useful in unit tests that must not
	// mis-speculate.
	OnMisSpeculation func(node coherence.NodeID, reason string)

	caches []*cacheCtrl
	dirs   []*dirCtrl

	// sts holds one Stats per shard (one entry when serial); Stats()
	// merges them exactly, so totals are shard-count-independent.
	sts   []Stats
	epoch uint64 // bumped on reset; invalidates scheduled closures

	// cmsgFree recycles the heap-boxed coherence.Msg payloads that ride
	// inside network messages, one list per shard (drawn from the
	// sender's shard, returned to the consumer's): a payload returns
	// once its network message is consumed. Together with the fabric's
	// own message free lists this keeps the steady-state send path
	// allocation-free and race-free.
	cmsgFree []pool.FreeList[coherence.Msg]
}

// Typed-event opcodes, packed into the low bits of a0 beside the epoch.
const (
	dopSend = iota // a1 = destination node, p = *coherence.Msg
	dopDone        // p = the processor completion callback
)

// HandleEvent implements sim.Handler for the protocol's delayed actions
// (directory/cache response sends and processor completion callbacks).
// Events scheduled before a recovery reset carry a stale epoch and are
// dropped, exactly like the closure-based predecessor `after`. The
// event always fires on the scheduling node's shard, so pool traffic
// stays shard-local.
func (p *Protocol) HandleEvent(a0, a1 uint64, pay any) {
	op := a0 & 3
	if a0>>2 != p.epoch {
		if op == dopSend {
			cm := pay.(*coherence.Msg)
			p.putCM(p.shardOf[cm.From], cm)
		}
		return
	}
	switch op {
	case dopSend:
		p.sendPooled(pay.(*coherence.Msg), coherence.NodeID(a1))
	case dopDone:
		pay.(func())()
	}
}

func (p *Protocol) getCM(shard int) *coherence.Msg     { return p.cmsgFree[shard].Get() }
func (p *Protocol) putCM(shard int, cm *coherence.Msg) { p.cmsgFree[shard].Put(cm) }

// sendAfter schedules m to be sent to `to` after d cycles without
// allocating: the message is boxed once from the pool and the delay is
// a typed event on the sending node's (m.From's) kernel. A recovery in
// the meantime drops it.
func (p *Protocol) sendAfter(d sim.Time, m coherence.Msg, to coherence.NodeID) {
	cm := p.getCM(p.shardOf[m.From])
	*cm = m
	p.ks[m.From].AfterEvent(d, p, p.epoch<<2|dopSend, uint64(to), cm)
}

// doneAfter schedules a processor completion callback at node after d
// cycles, dropped on recovery (the restored processors re-issue).
func (p *Protocol) doneAfter(node coherence.NodeID, d sim.Time, done func()) {
	p.ks[node].AfterEvent(d, p, p.epoch<<2|dopDone, 0, done)
}

// New builds the protocol over an existing network fabric; the fabric's
// clients for all nodes are claimed by the protocol. It panics on an
// invalid configuration; callers that want oversize machines reported
// as errors (before kernels and networks exist) use NewChecked, or
// validate Config up front as system.BuildChecked does.
func New(k *sim.Kernel, net network.Fabric, cfg Config, log mem.UndoLogger) *Protocol {
	p, err := NewChecked(k, net, cfg, log)
	if err != nil {
		panic(err)
	}
	return p
}

// NewChecked is New with configuration errors returned instead of
// panicking: a node count the configured sharer-set format cannot
// represent (e.g. more than 64 nodes on a full bitmap) is a config
// error, not a crash.
func NewChecked(k *sim.Kernel, net network.Fabric, cfg Config, log mem.UndoLogger) (*Protocol, error) {
	if cfg.Nodes != net.NumNodes() {
		return nil, fmt.Errorf("directory: %d nodes differ from network size %d", cfg.Nodes, net.NumNodes())
	}
	lay, err := cfg.sharerLayout()
	if err != nil {
		return nil, err
	}
	p := &Protocol{k: k, net: net, cfg: cfg, lay: lay}
	p.ks = make([]*sim.Kernel, cfg.Nodes)
	p.shardOf = make([]int, cfg.Nodes)
	p.sts = make([]Stats, 1)
	p.cmsgFree = make([]pool.FreeList[coherence.Msg], 1)
	p.caches = make([]*cacheCtrl, cfg.Nodes)
	p.dirs = make([]*dirCtrl, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		p.ks[i] = k
		c := &cacheCtrl{
			Hier:         mem.NewHier(i, cfg.CacheConfig, log, nil),
			p:            p,
			node:         coherence.NodeID(i),
			k:            k,
			st:           &p.sts[0],
			servedStable: make(map[coherence.Addr]uint64),
		}
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
	p.k = g.Kernel(0)
	p.sts = make([]Stats, g.N())
	p.cmsgFree = make([]pool.FreeList[coherence.Msg], g.N())
	copy(p.shardOf, shardOf)
	for i := 0; i < p.cfg.Nodes; i++ {
		sh := shardOf[i]
		p.ks[i] = g.Kernel(sh)
		p.caches[i].k = p.ks[i]
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

// Config returns the protocol configuration.
func (p *Protocol) Config() Config { return p.cfg }

// Home returns the directory node for a block (block-interleaved).
func (p *Protocol) Home(a coherence.Addr) coherence.NodeID {
	return coherence.NodeID((uint64(a) / coherence.BlockBytes) % uint64(p.cfg.Nodes))
}

// InFlight reports the number of live transactions (request TBEs,
// writeback TBEs and busy directory entries); the system layer drains
// to zero before taking a checkpoint.
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
	p.epoch++
	for _, c := range p.caches {
		c.FinishRollback()
		c.req = nil
		c.reqStore.done = nil // drop the callback reference with the TBE
		c.wb = nil
		c.parked = nil
		c.servedStable = make(map[coherence.Addr]uint64)
	}
	for _, d := range p.dirs {
		d.busy = make(map[coherence.Addr]*busyInfo)
		d.queue = make(map[coherence.Addr][]coherence.Msg)
	}
}

// TimeoutScan is the §4 transaction-timeout deadlock detector's scan:
// it reports the first node (lowest id) whose outstanding transaction
// has exceeded cfg.TimeoutCycles, if any (never, when TimeoutCycles is
// zero). It reads every node's TBEs, so the system's watchdog calls it
// from control context, where a sharded system's shards are all
// quiesced.
func (p *Protocol) TimeoutScan() (coherence.NodeID, bool) {
	if p.cfg.TimeoutCycles == 0 {
		return 0, false
	}
	now := p.k.Now()
	for _, c := range p.caches {
		if c.req != nil && now-c.req.start > p.cfg.TimeoutCycles {
			return c.node, true
		}
		if c.wb != nil && now-c.wb.start > p.cfg.TimeoutCycles {
			return c.node, true
		}
	}
	return 0, false
}

// NoteTimeout counts a watchdog detection (attributed to the control
// shard so totals stay shard-count-independent).
func (p *Protocol) NoteTimeout() { p.sts[0].TimeoutsDetected.Inc() }

// after schedules fn on node's kernel but drops it if a recovery reset
// happens first: a delayed action of a rolled-back transaction must not
// leak into the restored execution.
func (p *Protocol) after(node coherence.NodeID, d sim.Time, fn func()) {
	e := p.epoch
	p.ks[node].After(d, func() {
		if p.epoch == e {
			fn()
		}
	})
}

func (p *Protocol) misSpeculate(node coherence.NodeID, reason string) {
	if p.OnMisSpeculation == nil {
		panic("directory: mis-speculation detected with no recovery wired: " + reason)
	}
	p.OnMisSpeculation(node, reason)
}

func (p *Protocol) send(m coherence.Msg, to coherence.NodeID) {
	cm := p.getCM(p.shardOf[m.From])
	*cm = m
	p.sendPooled(cm, to)
}

// sendPooled injects a pool-boxed payload; ownership of cm passes to the
// network until the destination consumes it (deliver returns it to the
// pool) or a recovery drops it (the box is simply garbage collected and
// the pool refills).
func (p *Protocol) sendPooled(cm *coherence.Msg, to coherence.NodeID) {
	nm := network.AllocFor(p.net, network.NodeID(cm.From))
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
		p.putCM(p.shardOf[node], cm)
	}
	return consumed
}

// Access performs one processor memory reference at node. done runs at
// completion (with the data, for loads; with write permission consumed,
// for stores). The processor model is blocking: a node never has two
// outstanding Accesses.
func (p *Protocol) Access(node coherence.NodeID, addr coherence.Addr, kind coherence.AccessType, done func()) {
	p.caches[node].access(coherence.BlockAddr(addr), kind, done)
}

// ---- cache controller ----

type reqTBE struct {
	addr       coherence.Addr
	state      CState
	isStore    bool
	acksNeeded int // -1 until Data arrives
	acksGot    int
	version    uint64
	gotData    bool
	tid        uint64
	start      sim.Time
	done       func()
}

type wbTBE struct {
	addr     coherence.Addr
	state    CState // CWBa, CIIa, CIIf
	version  uint64
	served   map[uint64]bool // TIDs of forwards served while writing back
	staleTID uint64          // TID awaited in CIIf
	start    sim.Time
}

type parkedAccess struct {
	addr coherence.Addr
	kind coherence.AccessType
	done func()
}

type cacheCtrl struct {
	mem.Hier // the node's L1/L2 pair and memory slice

	p    *Protocol
	node coherence.NodeID
	k    *sim.Kernel // the owning shard's kernel
	st   *Stats      // the owning shard's stats
	req  *reqTBE
	wb   *wbTBE
	// parked holds accesses waiting for the writeback TBE (an access to
	// a block currently being written back).
	parked []parkedAccess
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

	// reqStore and wbStore back req and wb: the controller has at most
	// one of each outstanding, so the TBEs are reused in place instead
	// of allocated per transaction.
	reqStore reqTBE
	wbStore  wbTBE
}

func (c *cacheCtrl) access(addr coherence.Addr, kind coherence.AccessType, done func()) {
	if c.req != nil {
		panic("directory: concurrent accesses at one node (processor must block)")
	}
	if kind == coherence.Load {
		c.st.Loads.Inc()
	} else {
		c.st.Stores.Inc()
	}
	// A block being written back is untouchable until the WBAck.
	if c.wb != nil && c.wb.addr == addr {
		c.parked = append(c.parked, parkedAccess{addr, kind, done})
		return
	}
	line := c.L2.Lookup(addr)
	if line != nil {
		if lat, l1, ok := c.Hit(line, kind == coherence.Store); ok {
			if l1 {
				c.st.L1Hits.Inc()
			} else {
				c.st.L2Hits.Inc()
			}
			c.p.doneAfter(c.node, lat, done)
			return
		}
		// Store to S or O: upgrade.
		from := CSMad
		if CState(line.State) == CO {
			from = COMad
		}
		c.startRequest(addr, coherence.GetM, from, true, done)
		return
	}
	// Miss from I.
	if kind == coherence.Load {
		c.startRequest(addr, coherence.GetS, CISd, false, done)
	} else {
		c.startRequest(addr, coherence.GetM, CIMad, true, done)
	}
}

func (c *cacheCtrl) startRequest(addr coherence.Addr, kind coherence.MsgKind, st CState, isStore bool, done func()) {
	c.st.Transactions.Inc()
	c.tidNext++
	tid := uint64(c.node)<<48 | c.tidNext
	c.reqStore = reqTBE{
		addr: addr, state: st, isStore: isStore,
		acksNeeded: -1, tid: tid, start: c.k.Now(), done: done,
	}
	c.req = &c.reqStore
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
	t := c.req
	if t == nil || t.addr != msg.Addr || t.gotData || msg.TID != t.tid {
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
	if c.L2.Peek(t.addr) == nil && !c.CanFill(t.addr, c.wb == nil) {
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
	t := c.req
	if t == nil || t.addr != msg.Addr {
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
	t := c.req
	st := CS
	if t.isStore {
		st = CM
	}
	c.Fill(t.addr, uint8(st), t.version, c.startWriteback)
}

// finishRequest retires the access: bumps the version for stores,
// releases the directory with a FinalAck and calls the processor back.
func (c *cacheCtrl) finishRequest() {
	t := c.req
	line := c.L2.Peek(t.addr)
	if line == nil {
		panic("directory: finishing a request with no line installed")
	}
	if t.isStore {
		c.LogLine(t.addr)
		line.Version++ // the store itself produces a new version
	}
	c.FillL1(t.addr)
	c.p.send(coherence.Msg{Kind: coherence.FinalAck, Addr: t.addr, From: c.node, TID: t.tid}, c.p.Home(t.addr))
	c.st.MissLatency.Observe(uint64(c.k.Now() - t.start))
	done := t.done
	t.done = nil
	c.req = nil
	if done != nil {
		c.p.doneAfter(c.node, 0, done)
	}
}

// startWriteback evicts the M or O line v, which Fill chose as its
// victim: the writeback TBE holds its data until the WBAck.
func (c *cacheCtrl) startWriteback(v *cache.Line) {
	if c.wb != nil {
		panic("directory: victim writeback with the writeback TBE busy (CanFill lied)")
	}
	c.st.Writebacks.Inc()
	addr, ver := v.Addr, v.Version
	c.Drop(addr)
	served := c.wbStore.served
	if served == nil {
		served = make(map[uint64]bool)
	} else {
		clear(served)
	}
	c.wbStore = wbTBE{addr: addr, state: CWBa, version: ver, served: served, start: c.k.Now()}
	c.wb = &c.wbStore
	if tid, ok := c.servedStable[addr]; ok {
		c.wb.served[tid] = true
		delete(c.servedStable, addr)
	}
	c.p.send(coherence.Msg{Kind: coherence.PutM, Addr: addr, From: c.node, Version: ver}, c.p.Home(addr))
}

func (c *cacheCtrl) freeWB() {
	c.wb = nil
	// Unpark accesses to the written-back block and retry any Data
	// delivery blocked on the TBE.
	parked := c.parked
	c.parked = nil
	for _, a := range parked {
		a := a
		c.p.after(c.node, 0, func() { c.access(a.addr, a.kind, a.done) })
	}
	c.p.net.Kick(network.NodeID(c.node))
}

func (c *cacheCtrl) handleInv(msg coherence.Msg) {
	ack := func() {
		c.p.send(coherence.Msg{Kind: coherence.Ack, Addr: msg.Addr, From: c.node}, msg.Requestor)
	}
	if t := c.req; t != nil && t.addr == msg.Addr {
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
	if c.wb != nil && c.wb.addr == msg.Addr {
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
			c.unspecifiedCache(c.wb.state, EvInv, msg)
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
		c.p.sendAfter(c.p.cfg.L2Latency, coherence.Msg{
			Kind: coherence.Data, Addr: msg.Addr, From: c.node,
			Requestor: msg.Requestor, Version: version,
			AckCount: msg.AckCount, TID: msg.TID,
		}, msg.Requestor)
	}

	// Writeback in flight: the TBE is still the owner (WB_A).
	if c.wb != nil && c.wb.addr == msg.Addr {
		switch c.wb.state {
		case CWBa:
			c.wb.served[msg.TID] = true
			sendData(c.wb.version)
			if ev == EvFwdGetM {
				c.wb.state = CIIa
			}
		case CIIf:
			// Full variant: the doomed forward the stale WBAck warned
			// about; the directory already supplied the data.
			c.freeWB()
		default:
			c.unspecifiedCache(c.wb.state, ev, msg)
		}
		return
	}
	// Owner upgrade in flight (OM_AD still holds the O line).
	if t := c.req; t != nil && t.addr == msg.Addr && t.state == COMad {
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
			c.p.misSpeculate(c.node, "p2p-ordering")
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
	if c.wb == nil || c.wb.addr != msg.Addr {
		c.unspecifiedCache(c.stateOf(msg.Addr), EvWBAck, msg)
		return
	}
	if msg.Stale {
		// Full variant only: a forward to this node is (or was) in
		// flight. If we already served it, the writeback is finished;
		// otherwise wait for the doomed forward in II_F.
		if c.p.cfg.Variant != Full {
			c.unspecifiedCache(c.wb.state, EvWBAckStale, msg)
			return
		}
		c.st.RacesHandled.Inc()
		if c.wb.served[msg.TID] || c.wb.state == CIIa {
			c.freeWB()
			return
		}
		c.wb.state = CIIf
		c.wb.staleTID = msg.TID
		return
	}
	switch c.wb.state {
	case CWBa, CIIa:
		c.freeWB()
	default:
		c.unspecifiedCache(c.wb.state, EvWBAck, msg)
	}
}

// stateOf reconstructs the controller-visible state for addr, for
// diagnostics.
func (c *cacheCtrl) stateOf(addr coherence.Addr) CState {
	if c.req != nil && c.req.addr == addr {
		return c.req.state
	}
	if c.wb != nil && c.wb.addr == addr {
		return c.wb.state
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
