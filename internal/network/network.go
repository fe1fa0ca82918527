package network

import (
	"fmt"
	"math/bits"

	"specsimp/internal/pool"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Network is a 2D torus interconnect bound to a simulation kernel.
//
// The hot path — switch arbitration, hop forwarding, endpoint ejection —
// is allocation-free in steady state: messages come from a free list
// (AllocMessage) and return to it on consumption or drop, input queues
// are reusable ring buffers, arbitration scans an occupancy bitmap
// instead of every (port, class) queue, and all recurring work is
// scheduled as typed kernel events rather than closures.
type Network struct {
	k   *sim.Kernel // shard 0's kernel (the only kernel in serial mode)
	cfg Config
	rt  routes

	// grp and shardOf describe the conservative-window sharding of the
	// torus (NewOnShards): each node's switch and endpoint live on the
	// kernel of shard shardOf[node], and switch-to-switch arrivals
	// travel through the group's boundary queues. Both are nil/zero for
	// a serial network, where every node shares one kernel and arrivals
	// are scheduled directly.
	grp     *sim.Shards
	shardOf []int

	sw []*swch
	ep []*endpoint

	// seqNext holds the next sequence number to stamp per (src, dst,
	// vnet), flattened row-major by src (see seqIdx): one contiguous
	// allocation instead of nodes² tiny slices, which matters at 256+
	// nodes where the old 3D layout dominated build time. Only src's
	// shard touches src's row block, so the slice is shared across
	// shards without synchronization.
	seqNext []uint64
	// maxSeen holds the highest sequence number that has arrived per
	// (dst, src, vnet), flattened row-major by dst, for reorder
	// detection. dst's row block is owned by dst's shard.
	maxSeen []uint64

	// sts holds one NetStats per shard: every hot-path counter is
	// incremented by exactly one shard, and Stats() merges them with
	// exact integer arithmetic, so totals are identical at any shard
	// count. Serial networks have a single entry, returned live.
	sts []NetStats

	// swByShard[s] lists the switches shard s owns — the per-shard
	// iteration set for window-edge work like publishOccupancy.
	swByShard [][]*swch

	adaptiveDisabled bool
	epoch            uint64 // bumped by Reset to invalidate in-flight arrivals

	// free recycles message structs allocated via AllocMessage, one
	// list per shard (a message is taken from its source's list and
	// returned to the list of whichever shard consumes or drops it).
	// Messages the caller allocated itself are never recycled.
	free []pool.FreeList[Message]

	// TraceFn, when non-nil, receives one event per message lifecycle
	// step. Used by examples/reorder to reproduce Figure 1. Trace
	// consumers must not retain Msg pointers past the callback when the
	// sender uses pooled messages (AllocMessage): the struct is recycled
	// after consumption. Serial networks only: on a sharded network the
	// callback would fire concurrently from every shard, so trace()
	// rejects the combination outright.
	TraceFn func(TraceEvent)

	// PerturbFn, when non-nil, returns an extra injection delay for a
	// message. Natural reorderings are rare (that is the paper's
	// point); experiments that must exercise the mis-speculation path
	// use this hook to amplify them deterministically.
	PerturbFn func(m *Message) sim.Time
}

// NetStats aggregates network measurements. Every field merges with
// exact integer arithmetic (counters, IntSample counts and sums, busy
// cycles), which is what lets per-shard stats aggregate to bit-identical
// totals regardless of how the torus was partitioned.
type NetStats struct {
	Sent        stats.Counter
	Arrived     stats.Counter // enqueued at destination ingress
	Consumed    stats.Counter // accepted by the client
	Dropped     stats.Counter // discarded by Reset (recovery)
	Reordered   []stats.Counter
	PerVNet     []stats.Counter
	Deflections stats.Counter // unproductive hops taken under Deflection
	Latency     stats.IntSample
	Hops        stats.IntSample

	linkUtil [][numPorts]stats.Utilization
}

// merge folds o into s (exact, order-independent).
func (s *NetStats) merge(o *NetStats) {
	s.Sent.Add(o.Sent.Value())
	s.Arrived.Add(o.Arrived.Value())
	s.Consumed.Add(o.Consumed.Value())
	s.Dropped.Add(o.Dropped.Value())
	s.Deflections.Add(o.Deflections.Value())
	for v := range s.Reordered {
		s.Reordered[v].Add(o.Reordered[v].Value())
		s.PerVNet[v].Add(o.PerVNet[v].Value())
	}
	s.Latency.Merge(o.Latency)
	s.Hops.Merge(o.Hops)
	for i := range s.linkUtil {
		for d := 0; d < numPorts; d++ {
			s.linkUtil[i][d].Merge(o.linkUtil[i][d])
		}
	}
}

// ReorderRate returns the fraction of arrivals on vnet that arrived
// after a later-sent message from the same source had already arrived.
func (s *NetStats) ReorderRate(vnet int) float64 {
	if vnet >= len(s.PerVNet) || s.PerVNet[vnet].Value() == 0 {
		return 0
	}
	return float64(s.Reordered[vnet].Value()) / float64(s.PerVNet[vnet].Value())
}

// TotalReorderRate returns the reorder fraction across all vnets.
func (s *NetStats) TotalReorderRate() float64 {
	var re, all uint64
	for i := range s.PerVNet {
		re += s.Reordered[i].Value()
		all += s.PerVNet[i].Value()
	}
	if all == 0 {
		return 0
	}
	return float64(re) / float64(all)
}

// MeanLinkUtilization returns the mean busy fraction over all
// switch-to-switch links at time now.
func (s *NetStats) MeanLinkUtilization(now sim.Time) float64 {
	var sum float64
	var n int
	for i := range s.linkUtil {
		for d := North; d <= West; d++ {
			sum += s.linkUtil[i][d].Fraction(uint64(now))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fifo is a reusable ring-buffer queue of messages: push, pop and head
// are O(1) and steady-state operation performs no allocation (capacity
// is retained across Reset).
type fifo struct {
	buf  []*Message
	head int
	n    int
}

func (f *fifo) len() int { return f.n }

func (f *fifo) push(m *Message) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = m
	f.n++
}

func (f *fifo) grow() {
	size := len(f.buf) * 2
	if size == 0 {
		size = 8
	}
	nb := make([]*Message, size)
	for i := 0; i < f.n; i++ {
		nb[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = nb
	f.head = 0
}

func (f *fifo) pop() *Message {
	m := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return m
}

func (f *fifo) head0() *Message {
	if f.n == 0 {
		return nil
	}
	return f.buf[f.head]
}

// at returns the i-th queued message (0 = head) without removing it.
func (f *fifo) at(i int) *Message {
	return f.buf[(f.head+i)&(len(f.buf)-1)]
}

// reset empties the queue, releasing message references but keeping the
// ring storage for reuse.
func (f *fifo) reset() {
	clear(f.buf)
	f.head, f.n = 0, 0
}

// Typed-event opcodes (the a0 argument of sim.Handler events).
const (
	swOpArb = iota
	swOpRetry
	swOpArrive
	epOpConsume
	epOpRetry
	netOpLoopback
	netOpInject
)

type swch struct {
	n     *Network
	node  NodeID
	k     *sim.Kernel // the owning shard's kernel
	st    *NetStats   // the owning shard's stats
	shard int
	// nb[dir] is the switch the link in dir leads to (North..West).
	nb [numPorts]*swch
	// dateline has bit dir set when the link in dir wraps the torus edge
	// and so crosses its dimension's dateline (see topo.staticNext).
	dateline uint8
	// in[port][class] are input buffers. The Local port is the
	// injection queue (unbounded: protocol-level MSHRs throttle it).
	in [numPorts][]fifo
	// occ has one bit per (port, class) input queue, set while the
	// queue is nonempty; arbitration iterates set bits only. Config
	// validation caps numPorts*classes at 64.
	occ uint64
	// inCount[port] tracks total queued messages per input port (the
	// sum over classes), maintained on push/pop so the adaptive-routing
	// occupancy signal is O(1) to read.
	inCount [numPorts]int
	// pubOcc[port] is this switch's input occupancy as of the last
	// window edge, published by the owning shard for neighbors to read
	// mid-window (stable until the next edge, so the cross-shard read
	// is race-free and identical at every shard count). It stands in
	// for the serial path's live occupancy read: congestion information
	// with one-window delay — physically, backpressure signals
	// propagate with latency too.
	pubOcc [numPorts]int
	// outBusy[dir] is when the outgoing link in dir frees.
	outBusy [numPorts]sim.Time
	// credits[dir][class] is free space in the downstream input buffer;
	// -1 means unlimited. Used only with separate per-class buffers.
	credits [numPorts][]int
	// poolUsed counts occupied slots of the switch's shared input pool
	// (the §4 simplified design: one pool of BufferSize slots per
	// switch, shared by every neighbor port and message type).
	poolUsed int

	arbPending bool
	rr         int
}

// sharedPool reports whether the simplified shared-pool flow control is
// active (no per-class buffers, finite size).
func (n *Network) sharedPool() bool {
	return !n.cfg.SeparateVNetBuffers && n.cfg.BufferSize > 0
}

type endpoint struct {
	n              *Network
	node           NodeID
	k              *sim.Kernel // the owning shard's kernel
	st             *NetStats   // the owning shard's stats
	shard          int
	client         Client
	ingress        []fifo
	rr             int
	consumePending bool
}

// New builds a network on kernel k. It panics on an invalid config;
// callers assembling whole machines from user-supplied geometry use
// NewChecked (or validate the config first) so a bad topology surfaces
// as an error before any construction happens.
func New(k *sim.Kernel, cfg Config) *Network {
	n, err := NewChecked(k, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// NewChecked is New with configuration errors returned instead of
// panicking mid-setup.
func NewChecked(k *sim.Kernel, cfg Config) (*Network, error) {
	return build(cfg, nil, nil, k)
}

// NewOnShards builds a network partitioned across a conservative-window
// shard group: node i's switch and endpoint run on the kernel of shard
// shardOf[i], and switch-to-switch arrivals cross shards through the
// group's boundary queues (including same-shard links, so event order
// — and therefore every result — is identical at any shard count).
// The group's window must not exceed cfg.MinHopLatency().
//
// Sharded execution requires unlimited buffering (BufferSize and
// EndpointBufferSize zero): finite buffers return credits to, and the
// shared-pool design reads occupancy of, the upstream switch at zero
// latency, which has no conservative lookahead.
func NewOnShards(g *sim.Shards, cfg Config, shardOf []int) (*Network, error) {
	if len(shardOf) != cfg.NumNodes() {
		return nil, errConfig("shard map size does not match node count")
	}
	if cfg.BufferSize != 0 || cfg.EndpointBufferSize != 0 {
		return nil, errConfig("sharded execution requires unlimited buffering (BufferSize and EndpointBufferSize 0): credit returns have no lookahead")
	}
	if g.Window() > cfg.MinHopLatency() {
		return nil, errConfig("shard window exceeds the minimum hop latency (no conservative lookahead)")
	}
	for _, s := range shardOf {
		if s < 0 || s >= g.N() {
			return nil, errConfig("shard map names a shard outside the group")
		}
	}
	return build(cfg, g, shardOf, g.Kernel(0))
}

func build(cfg Config, g *sim.Shards, shardOf []int, k0 *sim.Kernel) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := topo{cfg.Width, cfg.Height}
	n := &Network{k: k0, cfg: cfg, rt: newRoutes(t), grp: g, shardOf: shardOf}
	nodes := cfg.NumNodes()
	classes := cfg.classes()

	shards := 1
	if g != nil {
		shards = g.N()
	}
	if shardOf == nil {
		n.shardOf = make([]int, nodes)
	}
	n.sts = make([]NetStats, shards)
	for i := range n.sts {
		n.sts[i].Reordered = make([]stats.Counter, cfg.VNets)
		n.sts[i].PerVNet = make([]stats.Counter, cfg.VNets)
		n.sts[i].linkUtil = make([][numPorts]stats.Utilization, nodes)
	}
	n.free = make([]pool.FreeList[Message], shards)

	n.sw = make([]*swch, nodes)
	n.ep = make([]*endpoint, nodes)
	for i := 0; i < nodes; i++ {
		shard := n.shardOf[i]
		nk := n.k
		if g != nil {
			nk = g.Kernel(shard)
		}
		s := &swch{n: n, node: NodeID(i), k: nk, st: &n.sts[shard], shard: shard}
		for p := 0; p < numPorts; p++ {
			s.in[p] = make([]fifo, classes)
		}
		for d := North; d <= West; d++ {
			s.credits[d] = make([]int, classes)
			for c := range s.credits[d] {
				if cfg.BufferSize == 0 {
					s.credits[d][c] = -1
				} else {
					s.credits[d][c] = cfg.BufferSize
				}
			}
		}
		n.sw[i] = s
		n.ep[i] = &endpoint{n: n, node: NodeID(i), k: nk, st: &n.sts[shard], shard: shard,
			ingress: make([]fifo, classes)}
	}
	for i, s := range n.sw {
		for d := North; d <= West; d++ {
			s.nb[d] = n.sw[t.neighbor(NodeID(i), d)]
			if t.crossesDatelineDir(NodeID(i), d) {
				s.dateline |= 1 << d
			}
		}
	}

	n.seqNext = make([]uint64, nodes*nodes*cfg.VNets)
	n.maxSeen = make([]uint64, nodes*nodes*cfg.VNets)
	if g != nil {
		n.swByShard = make([][]*swch, shards)
		for i, s := range n.sw {
			n.swByShard[n.shardOf[i]] = append(n.swByShard[n.shardOf[i]], s)
		}
		if cfg.Routing == Adaptive || cfg.Routing == Deflection {
			g.PreWindow(n.publishOccupancy)
		}
	}
	return n, nil
}

// publishOccupancy updates, for every switch the given shard owns, the
// published input-occupancy snapshot neighbors consult when routing
// adaptively. It runs as a PreWindow phase: all shards are quiesced at
// the edge, so the published values are stable (and deterministic) for
// the whole window.
func (n *Network) publishOccupancy(shard int) {
	for _, s := range n.swByShard[shard] {
		s.pubOcc = s.inCount
	}
}

// seqIdx flattens an (a, b, vnet) coordinate of the sequence-number
// tables: row-major by a, then b, then virtual network.
func (n *Network) seqIdx(a, b NodeID, vnet int) int {
	return (int(a)*n.cfg.NumNodes()+int(b))*n.cfg.VNets + vnet
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// NumNodes implements Fabric.
func (n *Network) NumNodes() int { return n.cfg.NumNodes() }

// Stats exposes the network's counters. Serial networks return the
// live stats; sharded networks return a merged snapshot (exact integer
// merges, so the totals are identical at any shard count). Call it only
// while the group is quiesced (between Run windows or after Run).
func (n *Network) Stats() *NetStats {
	if len(n.sts) == 1 {
		return &n.sts[0]
	}
	m := &NetStats{
		Reordered: make([]stats.Counter, n.cfg.VNets),
		PerVNet:   make([]stats.Counter, n.cfg.VNets),
		linkUtil:  make([][numPorts]stats.Utilization, n.cfg.NumNodes()),
	}
	for i := range n.sts {
		m.merge(&n.sts[i])
	}
	return m
}

// AttachClient registers the consumer of messages addressed to node.
func (n *Network) AttachClient(node NodeID, c Client) { n.ep[node].client = c }

// SetAdaptiveDisabled toggles the forward-progress fallback from paper
// §3.1: after a recovery, the interconnect selectively disables adaptive
// routing so the re-execution cannot hit the same reordering race.
func (n *Network) SetAdaptiveDisabled(v bool) { n.adaptiveDisabled = v }

// AdaptiveDisabled reports the current routing fallback state.
func (n *Network) AdaptiveDisabled() bool { return n.adaptiveDisabled }

// InFlight returns the number of messages injected but not yet
// consumed (including, in sharded mode, messages waiting in boundary
// queues). Quiesced-state only in sharded mode.
func (n *Network) InFlight() int {
	var sent, consumed, dropped uint64
	for i := range n.sts {
		sent += n.sts[i].Sent.Value()
		consumed += n.sts[i].Consumed.Value()
		dropped += n.sts[i].Dropped.Value()
	}
	return int(sent - consumed - dropped)
}

// AllocMessage returns a zeroed message from the free list of src's
// shard (implementing MessageAllocator). Messages obtained here are
// recycled automatically once consumed by the destination client or
// dropped by a recovery Reset; callers must not retain them past that
// point.
func (n *Network) AllocMessage(src NodeID) *Message {
	m := n.free[n.shardOf[src]].Get()
	*m = Message{pooled: true}
	return m
}

// releaseMsg returns a pooled message to the free list of the shard
// that consumed or dropped it. Messages not minted by AllocMessage pass
// through untouched.
func (n *Network) releaseMsg(shard int, m *Message) {
	if m == nil || !m.pooled {
		return
	}
	m.pooled = false // guards against double release
	m.Payload = nil
	n.free[shard].Put(m)
}

// HandleEvent implements sim.Handler for network-level typed events
// (delayed injections and loopback arrivals). These are node-local:
// they fire on the source node's shard kernel.
func (n *Network) HandleEvent(a0, a1 uint64, p any) {
	m := p.(*Message)
	if a1 != n.epoch {
		n.sts[n.shardOf[m.Src]].Dropped.Inc()
		n.releaseMsg(n.shardOf[m.Src], m)
		return
	}
	switch a0 {
	case netOpLoopback:
		n.arriveLocal(m)
	case netOpInject:
		n.inject(m)
	}
}

func (n *Network) inject(m *Message) {
	s := n.sw[m.Src]
	s.pushIn(Local, n.cfg.classOf(m.VNet, 0), m)
	s.scheduleArb()
}

// Send injects m at its source. VNet out of range or equal src/dst
// without a size are programming errors and panic. In sharded mode the
// caller must be running on the source node's shard (protocol sends
// always are: a node only sends on its own behalf).
func (n *Network) Send(m *Message) {
	if m.VNet < 0 || m.VNet >= n.cfg.VNets {
		panic(fmt.Sprintf("network: vnet %d out of range", m.VNet))
	}
	if m.Size <= 0 {
		m.Size = CtrlBytesDefault
	}
	if n.grp != nil && m.Size < CtrlBytesDefault {
		// The shard window is derived from the minimum hop latency of a
		// CtrlBytesDefault-sized message; anything smaller would arrive
		// inside the conservative lookahead.
		panic(fmt.Sprintf("network: sharded send of %dB message below the %dB minimum the lookahead window assumes", m.Size, CtrlBytesDefault))
	}
	k := n.sw[m.Src].k
	si := n.seqIdx(m.Src, m.Dst, m.VNet)
	m.Seq = n.seqNext[si]
	n.seqNext[si]++
	m.SentAt = k.Now()
	m.vc = 0
	m.Hops = 0
	n.sw[m.Src].st.Sent.Inc()
	n.trace(TraceInject, m.Src, -1, m)

	var jitter sim.Time
	if n.PerturbFn != nil {
		jitter = n.PerturbFn(m)
	}
	if m.Src == m.Dst {
		// Loopback: bypass the switch fabric, pay propagation only.
		k.AfterEvent(n.cfg.PropDelay+jitter, n, netOpLoopback, n.epoch, m)
		return
	}
	if jitter == 0 {
		n.inject(m)
		return
	}
	k.AfterEvent(jitter, n, netOpInject, n.epoch, m)
}

// CtrlBytesDefault is the assumed size for messages injected without one.
const CtrlBytesDefault = 8

// Kick re-attempts delivery at node; clients call it after clearing the
// condition that made Deliver return false.
func (n *Network) Kick(node NodeID) { n.ep[node].scheduleConsume() }

// Reset drops every in-flight message and restores all buffer credit —
// the network's part of a SafetyNet recovery (in-flight messages are
// part of the checkpointed state being discarded). In sharded mode it
// runs only from window-edge control context, where every shard is
// quiesced at the same instant; drops land in the owning node's shard
// stats so merged totals stay partition-independent.
func (n *Network) Reset() {
	n.epoch++
	for _, s := range n.sw {
		for p := 0; p < numPorts; p++ {
			for c := range s.in[p] {
				q := &s.in[p][c]
				for i := 0; i < q.len(); i++ {
					n.releaseMsg(s.shard, q.at(i))
				}
				s.st.Dropped.Add(uint64(q.len()))
				q.reset()
			}
		}
		s.occ = 0
		s.inCount = [numPorts]int{}
		s.poolUsed = 0
		for d := North; d <= West; d++ {
			for c := range s.credits[d] {
				if n.cfg.BufferSize == 0 {
					s.credits[d][c] = -1
				} else {
					s.credits[d][c] = n.cfg.BufferSize
				}
			}
			if s.outBusy[d] > s.k.Now() {
				s.outBusy[d] = s.k.Now()
			}
		}
	}
	for _, e := range n.ep {
		for c := range e.ingress {
			q := &e.ingress[c]
			for i := 0; i < q.len(); i++ {
				n.releaseMsg(e.shard, q.at(i))
			}
			e.st.Dropped.Add(uint64(q.len()))
			q.reset()
		}
	}
	// Sequence spaces restart: post-recovery traffic is a fresh stream.
	clear(n.seqNext)
	clear(n.maxSeen)
}

func (n *Network) trace(kind TraceEventKind, node NodeID, dir int, m *Message) {
	if n.TraceFn != nil {
		if n.grp != nil {
			panic("network: TraceFn is not supported on a sharded network (the callback would fire concurrently from every shard)")
		}
		n.TraceFn(TraceEvent{At: n.sw[node].k.Now(), Node: node, Dir: dir, Kind: kind, Msg: m})
	}
}

func (n *Network) serLatency(size int) sim.Time { return n.cfg.serLatency(size) }

// ---- switch ----

// HandleEvent implements sim.Handler for switch-level typed events:
// arbitration passes, timed arbitration retries, and hop arrivals.
func (s *swch) HandleEvent(a0, a1 uint64, p any) {
	switch a0 {
	case swOpArb:
		s.arb()
	case swOpRetry:
		// Timed retry for link-busy blocking; cheap duplicate events are
		// tolerated (arb is idempotent).
		s.scheduleArb()
	case swOpArrive:
		m := p.(*Message)
		if a1>>8 != s.n.epoch {
			s.st.Dropped.Inc()
			s.n.releaseMsg(s.shard, m)
			return
		}
		s.pushIn(int(a1&0xff), s.n.cfg.classOf(m.VNet, m.vc), m)
		s.scheduleArb()
	}
}

func (s *swch) pushIn(port, class int, m *Message) {
	s.in[port][class].push(m)
	s.inCount[port]++
	s.occ |= 1 << uint(port*s.n.cfg.classes()+class)
}

// popIn removes the head of the (port, class) queue, maintaining the
// occupancy bitmap.
func (s *swch) popIn(port, class int) *Message {
	q := &s.in[port][class]
	m := q.pop()
	s.inCount[port]--
	if q.len() == 0 {
		s.occ &^= 1 << uint(port*s.n.cfg.classes()+class)
	}
	return m
}

func (s *swch) scheduleArb() {
	if s.arbPending {
		return
	}
	s.arbPending = true
	s.k.AfterEvent(0, s, swOpArb, 0, nil)
}

func (s *swch) scheduleArbAt(t sim.Time) {
	s.k.AtEvent(t, s, swOpRetry, 0, nil)
}

func (s *swch) arb() {
	s.arbPending = false
	n := s.n
	now := s.k.Now()
	classes := n.cfg.classes()
	total := numPorts * classes
	progressed := false
	var retryAt sim.Time = sim.Forever

	// One pass over every currently nonempty input queue in round-robin
	// order starting at s.rr. The occupancy snapshot is safe: only this
	// switch's own pops shrink these queues, and each queue is visited
	// at most once per pass.
	hi := s.occ &^ (1<<uint(s.rr) - 1)
	lo := s.occ & (1<<uint(s.rr) - 1)
	for _, set := range [2]uint64{hi, lo} {
		for set != 0 {
			idx := bits.TrailingZeros64(set)
			set &= set - 1
			port := idx / classes
			class := idx % classes
			m := s.in[port][class].head0()
			if m.Dst == s.node {
				// Eject to the local endpoint.
				ep := n.ep[s.node]
				if !ep.hasSpace(n.cfg.classOf(m.VNet, 0)) {
					continue // ingress full; endpoint consume will re-arb
				}
				s.popIn(port, class)
				s.returnCredit(port, class)
				n.arriveLocal(m)
				progressed = true
				continue
			}
			dir, ok, busyUntil := s.pickOutput(m)
			if !ok {
				if busyUntil > now && busyUntil < retryAt {
					retryAt = busyUntil
				}
				continue
			}
			s.popIn(port, class)
			s.returnCredit(port, class)
			s.forward(m, dir)
			progressed = true
		}
	}
	if progressed {
		s.rr = (s.rr + 1) % total
		s.scheduleArb() // another pass may now make progress
	} else if retryAt != sim.Forever {
		s.scheduleArbAt(retryAt)
	}
}

// pickOutput chooses an output direction for m, honoring routing policy,
// link occupancy and downstream credit. When no direction is usable it
// returns the earliest time a link-busy candidate frees (0 if blocked
// purely on credit).
func (s *swch) pickOutput(m *Message) (dir int, ok bool, busyUntil sim.Time) {
	n := s.n
	now := s.k.Now()
	adaptive := (n.cfg.Routing == Adaptive || n.cfg.Routing == Deflection) && !n.adaptiveDisabled

	if !adaptive {
		d := n.rt.staticNext(s.node, m.Dst)
		if d == Local {
			return 0, false, 0 // shouldn't happen: Dst==node handled earlier
		}
		vc := s.nextVC(m, d, s.crosses(d))
		cls := n.cfg.classOf(m.VNet, vc)
		if !s.hasCredit(d, cls) {
			return 0, false, 0
		}
		if s.outBusy[d] > now {
			return 0, false, s.outBusy[d]
		}
		m.vc = vc
		return d, true, 0
	}

	// Adaptive: among productive directions with credit, prefer a free
	// link with the least-occupied downstream input, deterministic
	// tie-break by candidate order.
	var dirBuf [4]int
	cands := n.rt.productiveInto(s.node, m.Dst, &dirBuf)
	best := -1
	bestOcc := 1 << 30
	minBusy := sim.Forever
	for _, d := range cands {
		vc := s.nextVC(m, d, s.crosses(d))
		cls := n.cfg.classOf(m.VNet, vc)
		if !s.hasCredit(d, cls) {
			continue
		}
		if s.outBusy[d] > now {
			if s.outBusy[d] < minBusy {
				minBusy = s.outBusy[d]
			}
			continue
		}
		occ := s.downstreamOccupancy(d)
		if occ < bestOcc {
			bestOcc = occ
			best = d
		}
	}
	if best < 0 && n.cfg.Routing == Deflection {
		// Every productive direction is blocked: deflect through any
		// usable output rather than wait on a (possibly cyclic) buffer
		// dependence. The hop is wasted distance but keeps packets
		// moving; livelock, if it arises, trips the transaction
		// timeout (paper footnote 3).
		for d := North; d <= West; d++ {
			vc := s.nextVC(m, d, s.crosses(d))
			if !s.hasCredit(d, n.cfg.classOf(m.VNet, vc)) {
				continue
			}
			if s.outBusy[d] > now {
				if s.outBusy[d] < minBusy {
					minBusy = s.outBusy[d]
				}
				continue
			}
			occ := s.downstreamOccupancy(d)
			if occ < bestOcc {
				bestOcc = occ
				best = d
			}
		}
		if best >= 0 {
			s.st.Deflections.Inc()
		}
	}
	if best < 0 {
		if minBusy != sim.Forever {
			return 0, false, minBusy
		}
		return 0, false, 0
	}
	m.vc = s.nextVC(m, best, s.crosses(best))
	return best, true, 0
}

// downstreamOccupancy is the total queued messages at the input port
// the link in dir feeds — the "outgoing queue length" signal of paper
// §3.1. Serial networks read the neighbor live; sharded networks read
// the neighbor's edge-published snapshot, since the live count may
// belong to another shard executing concurrently (and the estimate
// must be identical at every shard count, so the snapshot is used for
// same-shard neighbors too).
func (s *swch) downstreamOccupancy(dir int) int {
	nb := s.nb[dir]
	if s.n.grp != nil {
		return nb.pubOcc[opposite(dir)]
	}
	return nb.inCount[opposite(dir)]
}

// crosses reports whether the link in dir crosses the dateline.
func (s *swch) crosses(dir int) bool { return s.dateline&(1<<dir) != 0 }

// nextVC computes the virtual channel for the next hop: reset on
// dimension change, escalate to VC1 after crossing the dateline.
func (s *swch) nextVC(m *Message, dir int, crosses bool) int {
	if s.n.cfg.VCsPerVNet < 2 {
		return 0
	}
	vc := m.vc
	if dimension(dir) != dimensionOfHop(m) {
		vc = 0
	}
	if crosses {
		vc = 1
	}
	return vc
}

func dimension(dir int) int {
	if dir == East || dir == West {
		return 0
	}
	return 1
}

// dimensionOfHop is the dimension (X=0, Y=1) of the message's previous
// hop. Dimension-order traffic changes dimension at most once; the
// dateline scheme resets to VC0 whenever a message enters a new ring.
func dimensionOfHop(m *Message) int { return m.dimHint }

func (s *swch) hasCredit(dir, class int) bool {
	if s.n.sharedPool() {
		return s.nb[dir].poolUsed < s.n.cfg.BufferSize
	}
	c := s.credits[dir][class]
	return c == -1 || c > 0
}

func (s *swch) forward(m *Message, dir int) {
	n := s.n
	now := s.k.Now()
	cls := n.cfg.classOf(m.VNet, m.vc)
	nb := s.nb[dir]
	if n.sharedPool() {
		nb.poolUsed++
	} else if s.credits[dir][cls] > 0 {
		s.credits[dir][cls]--
	}
	ser := n.serLatency(m.Size)
	s.outBusy[dir] = now + ser
	s.st.linkUtil[s.node][dir].AddBusy(uint64(ser))
	m.Hops++
	m.dimHint = dimension(dir)
	n.trace(TraceForward, s.node, dir, m)

	inPort := opposite(dir)
	if n.grp != nil {
		// Every switch-to-switch arrival — same-shard links included —
		// travels through the boundary queues and enters the target
		// kernel at a window edge. Uniform handoff is what makes event
		// order, and therefore every stat, independent of the shard
		// count: an arrival's position in its bucket never depends on
		// where the partition boundary happens to fall. Link latency is
		// at least the window (ser >= the minimum-size serialization
		// the window was derived from), so the arrival always lands at
		// or beyond the next edge.
		n.grp.Post(s.shard, nb.shard, now+ser+n.cfg.PropDelay,
			nb, swOpArrive, n.epoch<<8|uint64(inPort), m)
		return
	}
	s.k.AfterEvent(ser+n.cfg.PropDelay, nb, swOpArrive,
		n.epoch<<8|uint64(inPort), m)
}

// returnCredit frees the input slot the message occupied and wakes the
// switches that may have been blocked on it. Local-port (injection)
// slots are unbounded.
func (s *swch) returnCredit(port, class int) {
	if port == Local {
		return
	}
	n := s.n
	if n.grp != nil {
		// Sharded networks run with unlimited buffering (enforced at
		// build), so there is no credit to return and no upstream
		// switch blocked on one: skip the zero-latency cross-shard
		// wake-up entirely. An upstream blocked on a busy link retries
		// by timer, and endpoint back-pressure cannot occur.
		return
	}
	if n.sharedPool() {
		// A pool slot freed: any neighbor could have been waiting.
		s.poolUsed--
		for d := North; d <= West; d++ {
			s.nb[d].scheduleArb()
		}
		return
	}
	up := s.nb[port]
	d := opposite(port)
	if up.credits[d][class] >= 0 {
		up.credits[d][class]++
	}
	up.scheduleArb()
}

// ---- endpoint ----

func (n *Network) arriveLocal(m *Message) {
	st := n.ep[m.Dst].st
	now := n.ep[m.Dst].k.Now()
	m.DeliveredAt = now
	st.Arrived.Inc()
	st.PerVNet[m.VNet].Inc()
	st.Latency.Observe(uint64(now - m.SentAt))
	st.Hops.Observe(uint64(m.Hops))
	if mi := n.seqIdx(m.Dst, m.Src, m.VNet); m.Seq < n.maxSeen[mi] {
		st.Reordered[m.VNet].Inc()
	} else {
		n.maxSeen[mi] = m.Seq
	}
	n.trace(TraceDeliver, m.Dst, -1, m)

	e := n.ep[m.Dst]
	e.ingress[n.cfg.classOf(m.VNet, 0)].push(m)
	e.scheduleConsume()
}

func (e *endpoint) hasSpace(class int) bool {
	if e.n.cfg.EndpointBufferSize == 0 {
		return true
	}
	return e.ingress[class].len() < e.n.cfg.EndpointBufferSize
}

// HandleEvent implements sim.Handler for endpoint-level typed events.
func (e *endpoint) HandleEvent(a0, _ uint64, _ any) {
	switch a0 {
	case epOpConsume:
		e.consumePending = false
		e.consume()
	case epOpRetry:
		e.scheduleConsume()
	}
}

func (e *endpoint) scheduleConsume() {
	if e.consumePending {
		return
	}
	e.consumePending = true
	e.k.AfterEvent(0, e, epOpConsume, 0, nil)
}

func (e *endpoint) consume() {
	n := e.n
	classes := len(e.ingress)
	epoch := n.epoch
	// Offer each class's head in rotating order: the first one the
	// client accepts is the one message consumed this cycle.
	for i := 0; i < classes; i++ {
		c := (e.rr + i) % classes
		m := e.ingress[c].head0()
		if m == nil {
			continue
		}
		ok := e.client == nil || e.client.Deliver(m)
		if n.epoch != epoch {
			// Delivery triggered a recovery; the queues were reset
			// under us. The message was consumed (and accounted as
			// dropped by Reset along with everything queued).
			return
		}
		if !ok {
			continue // head-of-line blocked in this class
		}
		e.ingress[c].pop()
		e.st.Consumed.Inc()
		n.releaseMsg(e.shard, m)
		n.sw[e.node].scheduleArb() // ingress space freed
		e.rr = (e.rr + 1) % classes
		// If anything remains, try again next cycle. An endpoint that
		// consumed nothing waits for an explicit Kick instead.
		for c := range e.ingress {
			if e.ingress[c].len() > 0 {
				e.k.AfterEvent(1, e, epOpRetry, 0, nil)
				break
			}
		}
		return
	}
}
