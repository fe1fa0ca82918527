package directory

import (
	"fmt"

	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/pool"
)

// dirEntry is the stable directory state for one block. Busy (in-flight
// transaction) bookkeeping lives in dirCtrl.busy so checkpoints only
// ever see stable states. The sharer set's interpretation (bitmap,
// limited-pointer, coarse vector) is the protocol-wide sharerLayout.
type dirEntry struct {
	state   DState
	owner   int // node id, -1 when none
	sharers sharerSet
}

// busyInfo tracks the single in-flight transaction for a block; the
// directory is blocking and queues later requests until the requestor's
// FinalAck.
type busyInfo struct {
	requestor coherence.NodeID
	isGetM    bool
	fwdTo     int // node a forward is outstanding to, -1 when none
	tid       uint64
	acks      int
	complete  dirEntry // stable state applied at FinalAck
}

type dirCtrl struct {
	p       *Protocol
	node    coherence.NodeID
	st      *Stats    // the owning shard's stats
	h       *mem.Hier // the node's hierarchy, for its memory slice and undo log
	entries map[coherence.Addr]*dirEntry
	busy    map[coherence.Addr]*busyInfo
	queue   map[coherence.Addr][]coherence.Msg
	// busyFree recycles busyInfo records across transactions.
	busyFree pool.FreeList[busyInfo]
	// invScratch is the reusable invalidation-target buffer: sharer-set
	// expansion fills it once per GetM, so fan-out stays allocation-free
	// in steady state.
	invScratch []int
}

// invTargets expands e's sharer set into the nodes that must be
// invalidated on behalf of requestor req: every conservative member
// except req itself and the recorded owner (the owner is reached by a
// forward, never an Inv; imprecise formats may name it as a sharer).
// The returned slice is d.invScratch, valid until the next call.
func (d *dirCtrl) invTargets(e *dirEntry, req coherence.NodeID) []int {
	d.invScratch = e.sharers.appendMembers(d.p.lay, d.invScratch[:0])
	kept := d.invScratch[:0]
	for _, n := range d.invScratch {
		if n != int(req) && n != e.owner {
			kept = append(kept, n)
		}
	}
	if e.sharers.broadcast() && len(kept) > 0 {
		// Dir_i_B overflow: this fan-out is a broadcast to every node,
		// the cost the limited-pointer format trades for its width.
		d.st.InvBroadcasts.Inc()
	}
	return kept
}

func (d *dirCtrl) entry(a coherence.Addr) *dirEntry {
	e := d.entries[a]
	if e == nil {
		e = &dirEntry{state: DInv, owner: -1}
		d.entries[a] = e
	}
	return e
}

// logEntry records the old directory entry before a mutation, for
// checkpoint rollback.
func (d *dirCtrl) logEntry(a coherence.Addr) {
	if !d.h.Logging() {
		return
	}
	old := *d.entry(a)
	d.h.Undo(mem.TagDir, a, func() { *d.entry(a) = old })
}

func (d *dirCtrl) handle(msg coherence.Msg) {
	switch msg.Kind {
	case coherence.GetS, coherence.GetM:
		// Requests serialize per block: while a transaction is in
		// flight (or older requests wait), newcomers queue.
		if d.busy[msg.Addr] != nil {
			d.queue[msg.Addr] = append(d.queue[msg.Addr], msg)
			return
		}
		d.process(msg)
	case coherence.PutM:
		// Writebacks are never queued: the racing PutM is exactly the
		// case the two protocol variants treat differently.
		d.handlePutM(msg)
	case coherence.FinalAck:
		d.handleFinalAck(msg)
	default:
		panic("directory: dir received " + msg.Kind.String())
	}
}

// addSharer adds node to a sharer set, counting the Dir_i_B overflow
// transition (exact pointers exhausted, entry degrades to broadcast).
func (d *dirCtrl) addSharer(s sharerSet, n coherence.NodeID) sharerSet {
	ns := s.with(d.p.lay, int(n))
	if ns.broadcast() && !s.broadcast() {
		d.st.SharerOverflows.Inc()
	}
	return ns
}

func (d *dirCtrl) process(msg coherence.Msg) {
	a := msg.Addr
	e := d.entry(a)
	req := msg.From
	// The transaction id is end-to-end: minted by the requestor and
	// echoed through forwards, responses and the FinalAck.
	b := d.busyFree.Get()
	*b = busyInfo{requestor: req, isGetM: msg.Kind == coherence.GetM, fwdTo: -1, tid: msg.TID}

	switch msg.Kind {
	case coherence.GetS:
		switch e.state {
		case DInv, DS:
			b.complete = dirEntry{state: DS, owner: -1, sharers: d.addSharer(e.sharers, req)}
			d.sendDataFromMem(a, req, 0, b.tid)
		case DM:
			b.complete = dirEntry{state: DO, owner: e.owner, sharers: d.addSharer(sharerSet{}, req)}
			b.fwdTo = e.owner
			d.fwd(coherence.FwdGetS, a, e.owner, req, 0, b.tid)
		case DO:
			b.complete = dirEntry{state: DO, owner: e.owner, sharers: d.addSharer(e.sharers, req)}
			b.fwdTo = e.owner
			d.fwd(coherence.FwdGetS, a, e.owner, req, 0, b.tid)
		}
	case coherence.GetM:
		// Invalidation fan-out: every conservative sharer except the
		// requestor and the owner. The ack count handed to the requestor
		// is exactly the number of Invs sent, so imprecise formats cost
		// extra (stale-acked) Invs, never a hung transaction.
		targets := d.invTargets(e, req)
		imprecise := d.p.lay.imprecise(e.sharers)
		acks := len(targets)
		b.complete = dirEntry{state: DM, owner: int(req)}
		b.acks = acks
		switch {
		case e.state == DInv:
			d.sendDataFromMem(a, req, 0, b.tid)
		case e.state == DS:
			d.sendDataFromMem(a, req, acks, b.tid)
			d.sendInvs(a, targets, req, imprecise)
		case e.state == DM && e.owner != int(req):
			b.fwdTo = e.owner
			d.fwd(coherence.FwdGetM, a, e.owner, req, 0, b.tid)
		case e.state == DO && e.owner == int(req):
			// Upgrade by the owner itself: no forward; the requestor
			// keeps its own (freshest) data, so the memory version in
			// this Data is informational only.
			d.sendDataFromMem(a, req, acks, b.tid)
			d.sendInvs(a, targets, req, imprecise)
		case e.state == DO:
			b.fwdTo = e.owner
			d.fwd(coherence.FwdGetM, a, e.owner, req, acks, b.tid)
			d.sendInvs(a, targets, req, imprecise)
		default:
			d.unspecifiedDir(e.state, DEvGetM, msg)
		}
	}
	d.busy[a] = b
}

func (d *dirCtrl) handlePutM(msg coherence.Msg) {
	a := msg.Addr
	from := msg.From
	if b := d.busy[a]; b != nil {
		if b.requestor == from && b.isGetM {
			// The sender's own acquisition of this block has not
			// completed at the directory: its PutM (Request virtual
			// network) overtook its FinalAck (FinalAck virtual
			// network) — cross-vnet reordering the protocol must
			// tolerate. Defer the writeback behind the FinalAck.
			// (Found by exhaustive interleaving exploration; see
			// explore.go.)
			d.queue[a] = append(d.queue[a], msg)
			return
		}
		if b.fwdTo != int(from) {
			// Stale writeback from a long-gone owner: ownership moved on
			// through one or more forwards before this PutM arrived.
			d.sendWBAck(a, from, false, 0)
			return
		}
		// The §3.1 race: a forward to the writing-back owner is in
		// flight. Memory takes the written-back data either way.
		d.st.WBRaces.Inc()
		d.h.WriteMem(a, msg.Version)
		if d.p.cfg.Variant == Full {
			// Full protocol: the owner may be unable to serve the
			// forward (it may see the WBAck first), so the directory
			// supplies the data itself and flags the WBAck so the owner
			// knows a forward is still coming. The requestor tolerates
			// the possible duplicate by transaction id.
			d.p.sendAfter(d.p.cfg.DirLatency, coherence.Msg{
				Kind: coherence.Data, Addr: a, From: d.node,
				Requestor: b.requestor, Version: msg.Version,
				AckCount: b.acks, TID: b.tid,
			}, b.requestor)
			d.sendWBAck(a, from, true, b.tid)
		} else {
			// Spec protocol: rely on point-to-point ordering — the
			// forward was sent before this WBAck on the same virtual
			// network, so the owner will serve it first.
			d.sendWBAck(a, from, false, b.tid)
		}
		if !b.isGetM {
			// A GetS was in flight: the owner is gone, so the block
			// completes shared with memory up to date.
			b.complete.state = DS
			b.complete.owner = -1
		}
		b.fwdTo = -1
		return
	}
	e := d.entry(a)
	switch {
	case (e.state == DM || e.state == DO) && e.owner == int(from):
		d.logEntry(a)
		d.h.WriteMem(a, msg.Version)
		e.owner = -1
		if e.state == DO && !e.sharers.isEmpty() {
			e.state = DS
		} else {
			e.state = DInv
			e.sharers = sharerSet{}
		}
		d.sendWBAck(a, from, false, 0)
	default:
		// Stale writeback: ownership already moved on (possibly all the
		// way back to memory); the carried data is dead.
		d.sendWBAck(a, from, false, 0)
	}
}

func (d *dirCtrl) handleFinalAck(msg coherence.Msg) {
	a := msg.Addr
	b := d.busy[a]
	if b == nil || b.requestor != msg.From {
		panic(fmt.Sprintf("directory: FinalAck without matching busy txn addr=%#x from=%d", uint64(a), msg.From))
	}
	d.logEntry(a)
	*d.entry(a) = b.complete
	delete(d.busy, a)
	d.busyFree.Put(b)
	// Drain the deferred queue: writebacks complete inline (they do not
	// occupy the directory); the first request re-occupies it.
	for {
		q := d.queue[a]
		if len(q) == 0 {
			return
		}
		next := q[0]
		if len(q) == 1 {
			delete(d.queue, a)
		} else {
			d.queue[a] = q[1:]
		}
		if next.Kind == coherence.PutM {
			d.handlePutM(next)
			if d.busy[a] != nil {
				return // the PutM was re-deferred (cannot happen today, but be safe)
			}
			continue
		}
		d.process(next)
		return
	}
}

func (d *dirCtrl) sendDataFromMem(a coherence.Addr, to coherence.NodeID, acks int, tid uint64) {
	version := d.h.Mem.Read(a)
	d.p.sendAfter(d.p.cfg.DirLatency+d.p.cfg.MemLatency, coherence.Msg{
		Kind: coherence.Data, Addr: a, From: d.node,
		Requestor: to, Version: version, AckCount: acks, TID: tid,
	}, to)
}

func (d *dirCtrl) fwd(kind coherence.MsgKind, a coherence.Addr, owner int, req coherence.NodeID, acks int, tid uint64) {
	d.p.sendAfter(d.p.cfg.DirLatency, coherence.Msg{
		Kind: kind, Addr: a, From: d.node,
		Requestor: req, AckCount: acks, TID: tid,
	}, coherence.NodeID(owner))
}

func (d *dirCtrl) sendInvs(a coherence.Addr, targets []int, req coherence.NodeID, imprecise bool) {
	for _, n := range targets {
		d.st.Invalidations.Inc()
		d.p.sendAfter(d.p.cfg.DirLatency, coherence.Msg{
			Kind: coherence.Inv, Addr: a, From: d.node, Requestor: req, Imprecise: imprecise,
		}, coherence.NodeID(n))
	}
}

func (d *dirCtrl) sendWBAck(a coherence.Addr, to coherence.NodeID, stale bool, tid uint64) {
	d.p.sendAfter(d.p.cfg.DirLatency, coherence.Msg{
		Kind: coherence.WBAck, Addr: a, From: d.node, Stale: stale, TID: tid,
	}, to)
}

func (d *dirCtrl) unspecifiedDir(s DState, e DEvent, msg coherence.Msg) {
	panic(fmt.Sprintf("directory(%s): unspecified directory transition home=%d state=%s event=%s msg={%s}",
		d.p.cfg.Variant, d.node, s, e, msg))
}
