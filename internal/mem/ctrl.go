package mem

import (
	"fmt"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/pool"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Counters are the measurements every cache controller keeps; each
// protocol's Stats embeds them. They are exact integer accumulators,
// so per-shard instances merge to the same totals however the nodes
// were partitioned.
type Counters struct {
	Loads, Stores    stats.Counter
	L1Hits, L2Hits   stats.Counter
	Transactions     stats.Counter
	Writebacks       stats.Counter
	MissLatency      stats.Histogram
	TimeoutsDetected stats.Counter
}

// Merge folds o into c (exact, order-independent).
func (c *Counters) Merge(o *Counters) {
	c.Loads.Add(o.Loads.Value())
	c.Stores.Add(o.Stores.Value())
	c.L1Hits.Add(o.L1Hits.Value())
	c.L2Hits.Add(o.L2Hits.Value())
	c.Transactions.Add(o.Transactions.Value())
	c.Writebacks.Add(o.Writebacks.Value())
	c.MissLatency.Merge(&o.MissLatency)
	c.TimeoutsDetected.Add(o.TimeoutsDetected.Value())
}

// TBE is the head of a transaction buffer entry, the part the shared
// controller reads: the block, the start time the watchdog checks, and
// for a request the processor's completion callback. Each protocol's
// request and writeback entries embed it.
type TBE struct {
	Addr  coherence.Addr
	start sim.Time
	done  func()
}

// Misser is the protocol half of a node's cache controller, as the
// shared half calls it.
type Misser interface {
	// Miss starts the transaction for a reference to block a that the
	// L2 cannot serve: a store to the S or O line, or a reference to a
	// block the L2 lacks (line nil).
	Miss(a coherence.Addr, line *cache.Line, store bool, done func())
}

// ParkedAccess is a processor reference waiting for its node's
// writeback of the block to end.
type ParkedAccess struct {
	Addr coherence.Addr
	Kind coherence.AccessType
	done func()
}

// Ctrl is the protocol-independent half of one node's cache
// controller: the node's hierarchy, the heads of its outstanding
// request and writeback, and the accesses parked behind that
// writeback. A protocol's cache controller embeds it by value and
// hands it to Runtime.Attach. If the hierarchy keeps a BlockIndex,
// Ctrl keeps its node's busy bits there: a bit is set while the node
// has a request or a writeback on the block.
type Ctrl struct {
	Hier

	// Req and WB point at the heads of the node's outstanding request
	// and writeback entries, nil when there is none.
	Req, WB *TBE

	rt     *Runtime
	m      Misser
	k      *sim.Kernel // the owning shard's kernel
	shard  int
	st     *Counters // the owning shard's counters
	parked []ParkedAccess
}

// access performs one processor reference to block a. The processor
// model is blocking: a node never has two references outstanding. A
// reference to a block the node is writing back parks until the
// writeback ends; one the L2 line permits is a hit, completed after
// the hit latency; any other starts a transaction (Miss).
func (c *Ctrl) access(a coherence.Addr, kind coherence.AccessType, done func()) {
	if c.Req != nil {
		panic(fmt.Sprintf("mem: concurrent accesses at node %d (the processor must block)", c.node))
	}
	if kind == coherence.Load {
		c.st.Loads.Inc()
	} else {
		c.st.Stores.Inc()
	}
	if c.WB != nil && c.WB.Addr == a {
		c.parked = append(c.parked, ParkedAccess{a, kind, done})
		return
	}
	line := c.L2.Lookup(a)
	if line != nil {
		if lat, l1, ok := c.Hit(line, kind == coherence.Store); ok {
			if l1 {
				c.st.L1Hits.Inc()
			} else {
				c.st.L2Hits.Inc()
			}
			c.rt.doneAfter(c, lat, done)
			return
		}
	}
	c.m.Miss(a, line, kind == coherence.Store, done)
}

// Parked returns the accesses parked behind the node's writeback,
// oldest first.
func (c *Ctrl) Parked() []ParkedAccess { return c.parked }

// BeginRequest makes t, the head of the protocol's request entry, the
// node's outstanding request for block a; done is the processor's
// completion callback.
func (c *Ctrl) BeginRequest(t *TBE, a coherence.Addr, done func()) {
	c.st.Transactions.Inc()
	*t = TBE{Addr: a, start: c.k.Now(), done: done}
	c.Req = t
	c.setBusy(a)
}

// FinishRequest retires the outstanding request and schedules its
// completion callback.
func (c *Ctrl) FinishRequest() {
	t := c.Req
	c.st.MissLatency.Observe(uint64(c.k.Now() - t.start))
	done := t.done
	t.done = nil
	c.Req = nil
	c.clearBusy(t.Addr)
	if done != nil {
		c.rt.doneAfter(c, 0, done)
	}
}

// BeginWriteback makes t, the head of the protocol's writeback entry,
// the node's outstanding writeback of block a.
func (c *Ctrl) BeginWriteback(t *TBE, a coherence.Addr) {
	c.st.Writebacks.Inc()
	*t = TBE{Addr: a, start: c.k.Now()}
	c.WB = t
	c.setBusy(a)
}

// EndWriteback retires the outstanding writeback and re-issues the
// accesses parked behind it, each as a new access.
func (c *Ctrl) EndWriteback() {
	c.clearBusy(c.WB.Addr)
	c.WB = nil
	parked := c.parked
	c.parked = nil
	for _, a := range parked {
		c.rt.doneAfter(c, 0, func() { c.access(a.Addr, a.Kind, a.done) })
	}
}

func (c *Ctrl) setBusy(a coherence.Addr) {
	if c.idx != nil {
		c.idx.setBusy(a, c.node)
	}
}

func (c *Ctrl) clearBusy(a coherence.Addr) {
	if c.idx != nil {
		c.idx.clearBusy(a, c.node)
	}
}

// Runtime is the protocol-independent half of a machine's cache
// controllers: the nodes' shared halves, the kernels and shards they
// run on, the per-shard message free lists, and the recovery epoch. It
// delivers the delayed sends and completions the controllers schedule,
// and drops those a recovery overtook. Each protocol embeds it by
// value. A snooping machine is the one-shard, one-kernel case of a
// directory machine's layout.
type Runtime struct {
	// OnMisSpeculation is invoked on a detected mis-speculation with
	// the detecting node. It must perform the recovery (reset,
	// restore) or arrange it: serial systems recover immediately,
	// sharded systems defer the recovery to the next window edge (a
	// detection must not mutate other shards mid-window). Either way
	// the detecting handler drops its message. Nil panics on detection,
	// which suits unit tests that must not mis-speculate.
	OnMisSpeculation func(node coherence.NodeID, reason string)

	ctrls []*Ctrl
	k     *sim.Kernel // shard 0's kernel (the only kernel when serial)
	c0    *Counters   // shard 0's counters, which count watchdog detections

	// free recycles the boxed coherence.Msg payloads that ride inside
	// network messages, one list per shard: a box is drawn from the
	// sender's shard and returned to the consumer's, once its network
	// message is consumed. Together with the fabric's own message free
	// lists this keeps the steady-state send path allocation-free and
	// race-free.
	free []pool.FreeList[coherence.Msg]

	epoch   uint64 // bumped on reset; drops events scheduled before it
	timeout sim.Time
	send    func(cm *coherence.Msg, to coherence.NodeID)
}

// NewRuntime returns the runtime of a machine of nodes nodes, all on
// kernel k in one shard that counts into c. send puts a boxed message
// on the protocol's network; timeout is the §4 transaction timeout
// that TimeoutScan checks (0 disables the watchdog).
func NewRuntime(k *sim.Kernel, nodes int, timeout sim.Time, c *Counters, send func(*coherence.Msg, coherence.NodeID)) Runtime {
	return Runtime{
		ctrls:   make([]*Ctrl, nodes),
		k:       k,
		c0:      c,
		free:    make([]pool.FreeList[coherence.Msg], 1),
		timeout: timeout,
		send:    send,
	}
}

// Attach makes c, holding hierarchy h, the shared half of its node's
// cache controller, whose protocol half is m.
func (r *Runtime) Attach(c *Ctrl, h Hier, m Misser) {
	*c = Ctrl{Hier: h, rt: r, m: m, k: r.k, st: r.c0}
	r.ctrls[h.node] = c
}

// Partition re-homes node i's controller onto shard shardOf[i]: it
// schedules on that shard's kernel, draws message boxes from its free
// list and counts into cs[shardOf[i]]. Call it once, after every node
// is attached and before any traffic.
func (r *Runtime) Partition(g *sim.Shards, shardOf []int, cs []*Counters) {
	r.k = g.Kernel(0)
	r.c0 = cs[0]
	r.free = make([]pool.FreeList[coherence.Msg], g.N())
	for i, c := range r.ctrls {
		c.shard = shardOf[i]
		c.k = g.Kernel(c.shard)
		c.st = cs[c.shard]
	}
}

// Epoch returns the recovery epoch: it changes exactly when
// ResetTransients runs.
func (r *Runtime) Epoch() uint64 { return r.epoch }

// Home returns the node whose memory holds block a (block-interleaved).
func (r *Runtime) Home(a coherence.Addr) coherence.NodeID {
	return coherence.NodeID((uint64(a) / coherence.BlockBytes) % uint64(len(r.ctrls)))
}

// Access performs one processor memory reference at node. done runs at
// completion (with the data, for loads; with write permission consumed,
// for stores). The processor model is blocking: a node never has two
// outstanding Accesses.
func (r *Runtime) Access(node coherence.NodeID, a coherence.Addr, kind coherence.AccessType, done func()) {
	r.ctrls[node].access(coherence.BlockAddr(a), kind, done)
}

// InFlight counts the nodes' outstanding requests, writebacks and
// parked accesses; the system drains a machine's transactions to zero
// before taking a checkpoint.
func (r *Runtime) InFlight() int {
	n := 0
	for _, c := range r.ctrls {
		if c.Req != nil {
			n++
		}
		if c.WB != nil {
			n++
		}
		n += len(c.parked)
	}
	return n
}

// ResetTransients is the controllers' part of a SafetyNet recovery. It
// bumps the epoch, which drops every delayed send, completion and
// re-issue scheduled before it, completes each hierarchy's rollback, and
// discards each node's request, writeback and parked accesses. The
// undo log restores checkpointed state; transients are derived state,
// discarded along with the messages in flight.
func (r *Runtime) ResetTransients() {
	r.epoch++
	for _, c := range r.ctrls {
		c.FinishRollback()
		if c.Req != nil {
			c.clearBusy(c.Req.Addr)
			c.Req.done = nil // drop the callback reference with the entry
			c.Req = nil
		}
		if c.WB != nil {
			c.clearBusy(c.WB.Addr)
			c.WB = nil
		}
		c.parked = nil
	}
}

// TimeoutScan is the §4 transaction-timeout deadlock detector's scan:
// it reports the first node (lowest id) whose outstanding request or
// writeback has exceeded the timeout, if any (never, when the timeout
// is zero). It reads every node's entries, so the system's watchdog
// calls it from control context, where a sharded system's shards are
// all quiesced.
func (r *Runtime) TimeoutScan() (coherence.NodeID, bool) {
	if r.timeout == 0 {
		return 0, false
	}
	now := r.k.Now()
	for i, c := range r.ctrls {
		if (c.Req != nil && now-c.Req.start > r.timeout) || (c.WB != nil && now-c.WB.start > r.timeout) {
			return coherence.NodeID(i), true
		}
	}
	return 0, false
}

// NoteTimeout counts a watchdog detection (attributed to shard 0 so
// totals stay shard-count-independent).
func (r *Runtime) NoteTimeout() { r.c0.TimeoutsDetected.Inc() }

// MisSpeculate reports a mis-speculation that node detected to
// OnMisSpeculation.
func (r *Runtime) MisSpeculate(node coherence.NodeID, reason string) {
	if r.OnMisSpeculation == nil {
		panic("mem: mis-speculation detected with no recovery wired: " + reason)
	}
	r.OnMisSpeculation(node, reason)
}

// NewMsg boxes m in a payload from its sender's free list.
func (r *Runtime) NewMsg(m coherence.Msg) *coherence.Msg {
	cm := r.free[r.ctrls[m.From].shard].Get()
	*cm = m
	return cm
}

// FreeMsg returns the payload cm, consumed at node, to node's free
// list.
func (r *Runtime) FreeMsg(node coherence.NodeID, cm *coherence.Msg) {
	r.free[r.ctrls[node].shard].Put(cm)
}

// Typed-event opcodes, packed into the low bits of a0 beside the epoch.
const (
	opSend = iota // a1 = destination node, p = *coherence.Msg
	opDone        // p = the processor completion callback
)

// SendAfter sends m to node to after d cycles without allocating: the
// message is boxed from the sender's free list, and the delay is a
// typed event on the sender's kernel. A recovery in the meantime drops
// it.
func (r *Runtime) SendAfter(d sim.Time, m coherence.Msg, to coherence.NodeID) {
	r.ctrls[m.From].k.AfterEvent(d, r, r.epoch<<2|opSend, uint64(to), r.NewMsg(m))
}

// doneAfter schedules done, a processor completion callback or the
// re-issue of a parked access, at c's node after d cycles. A recovery
// in the meantime drops it: the restored processors re-issue.
func (r *Runtime) doneAfter(c *Ctrl, d sim.Time, done func()) {
	c.k.AfterEvent(d, r, r.epoch<<2|opDone, 0, done)
}

// HandleEvent implements sim.Handler for the delayed sends and
// completions. An event scheduled before a recovery carries a stale
// epoch and is dropped. It fires on the scheduling node's shard, so
// free-list traffic stays shard-local.
func (r *Runtime) HandleEvent(a0, a1 uint64, pay any) {
	op := a0 & 3
	if a0>>2 != r.epoch {
		if op == opSend {
			cm := pay.(*coherence.Msg)
			r.FreeMsg(cm.From, cm)
		}
		return
	}
	switch op {
	case opSend:
		r.send(pay.(*coherence.Msg), coherence.NodeID(a1))
	case opDone:
		pay.(func())()
	}
}
