package explore

import (
	"fmt"
	"slices"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// This file is the half of a protocol model that both coherence
// protocols share. A model embeds a Harness, which runs a scripted
// workload on a drained sim.Kernel, carries the data fabric whose
// deliveries the engine picks, and gives the terminal verdict. The
// protocol adds what is its own: transition keys and the controller
// map (Route), the encoding of its transient and directory state, and
// for snooping the address bus.

// Op is one scripted processor access.
type Op struct {
	Addr coherence.Addr
	Kind coherence.AccessType
}

// Scenario is one entry of a protocol's model-checking table.
type Scenario struct {
	Name  string
	Nodes int
	// Script holds each node's accesses; a node issues its next access
	// when the previous one completes.
	Script [][]Op
	// SpecDetects marks a scenario built to reach the protocol's
	// designated mis-speculation: its Spec variant must detect on some
	// interleaving, or the scenario proves nothing about detection.
	SpecDetects bool
}

// Event is the recorded content of one pending transition, kept for
// transition keys and counterexample rendering (a pooled message box
// is recycled at delivery).
type Event struct {
	Msg   coherence.Msg
	Dst   network.NodeID // data deliveries
	Grant bool           // a snooping bus grant
}

// Machine is the protocol instance a Harness drives.
type Machine interface {
	Access(node coherence.NodeID, a coherence.Addr, k coherence.AccessType, done func())
	InFlight() int
	AuditInvariants() error
	ResetTransients()
}

// Harness implements every Model method but Reset and Encode for a
// protocol model that embeds it. Reset calls Begin, builds the
// protocol on Kernel and &Data with its detection hook calling Detect,
// then calls Start.
type Harness struct {
	Scenario
	// Full marks the fully specified variant: a detection on it is a
	// violation.
	Full bool
	// Route gives a data message's transition key and controller.
	Route func(Event) (key uint64, ctrl int32)

	Kernel *sim.Kernel
	Data   Fabric

	m        Machine
	flag     *stats.Counter
	flagBase uint64
	events   map[uint64]Event
	nextID   uint64

	detected  bool
	reason    string
	done      []int // per node: completed accesses (script position)
	completed int
	want      int
}

// Fabric is the data network under engine control: each message sent
// waits in flight under an ID its harness mints until the engine
// delivers it, in any order.
type Fabric struct {
	h       *Harness
	clients []network.Client
	queue   []*network.Message
	ids     []uint64
}

// Send queues m in flight.
func (f *Fabric) Send(m *network.Message) {
	var msg coherence.Msg
	switch p := m.Payload.(type) {
	case *coherence.Msg:
		msg = *p
	case coherence.Msg:
		msg = p
	default:
		panic(fmt.Sprintf("explore: foreign payload %T", m.Payload))
	}
	f.queue = append(f.queue, m)
	f.ids = append(f.ids, f.h.Mint(Event{Msg: msg, Dst: m.Dst}))
}

func (f *Fabric) Kick(network.NodeID)                             {}
func (f *Fabric) AttachClient(n network.NodeID, c network.Client) { f.clients[n] = c }
func (f *Fabric) NumNodes() int                                   { return len(f.clients) }

// Begin starts a fresh path: a new kernel, an empty data fabric, event
// IDs from 1 (0 stays free as a sentinel) and a clear verdict.
func (h *Harness) Begin() {
	h.Kernel = sim.NewKernel()
	h.Data = Fabric{h: h, clients: make([]network.Client, h.Nodes)}
	h.events = make(map[uint64]Event)
	h.nextID = 0
	h.detected, h.reason = false, ""
	h.done = make([]int, len(h.Script))
	h.completed, h.want = 0, 0
	for _, ops := range h.Script {
		h.want += len(ops)
	}
}

// Start issues every node's first scripted access on m and drains the
// kernel. flag is the protocol counter whose growth on a completed
// path sets PathOutcome.Flagged.
func (h *Harness) Start(m Machine, flag *stats.Counter) {
	h.m, h.flag, h.flagBase = m, flag, flag.Value()
	for n := range h.Script {
		h.issue(n)
	}
	h.drain()
}

// issue starts node n's next scripted access; its completion issues
// the one after.
func (h *Harness) issue(n int) {
	if h.done[n] >= len(h.Script[n]) || h.detected {
		return
	}
	op := h.Script[n][h.done[n]]
	h.m.Access(coherence.NodeID(n), op.Addr, op.Kind, func() {
		h.completed++
		h.done[n]++
		h.issue(n)
	})
}

func (h *Harness) drain() {
	if !h.Kernel.Drain(1_000_000) {
		panic("explore: event flood (1e6 events without quiescence)")
	}
}

// Detect is the protocol's mis-speculation hook. Exploration treats a
// detection as a terminal, correct outcome: recovery would restore a
// checkpoint, which the system-level tests verify. It clears the
// transients and the data in flight so the path ends cleanly; a model
// with more queues clears them too.
func (h *Harness) Detect(reason string) {
	h.detected, h.reason = true, reason
	h.m.ResetTransients()
	h.Data.queue, h.Data.ids = nil, nil
}

// Mint records ev as the next pending event and returns its ID.
func (h *Harness) Mint(ev Event) uint64 {
	h.nextID++
	h.events[h.nextID] = ev
	return h.nextID
}

// Event returns the recorded content of a pending event.
func (h *Harness) Event(id uint64) Event { return h.events[id] }

// Enabled appends one delivery per message in flight.
func (h *Harness) Enabled(buf []Transition) []Transition {
	for _, id := range h.Data.ids {
		key, ctrl := h.Route(h.events[id])
		buf = append(buf, Transition{ID: id, Key: key, Ctrl: ctrl})
	}
	return buf
}

// Take delivers the message with the given ID.
func (h *Harness) Take(id uint64) Step {
	f := &h.Data
	i := slices.Index(f.ids, id)
	if i < 0 {
		panic(fmt.Sprintf("explore: take of unknown event id %d", id))
	}
	// Remove before delivering: a detection inside Deliver clears the
	// queue outright, so slicing it afterwards would corrupt it.
	m := f.queue[i]
	f.queue = append(f.queue[:i:i], f.queue[i+1:]...)
	f.ids = append(f.ids[:i:i], f.ids[i+1:]...)
	if !f.clients[m.Dst].Deliver(m) {
		// Back-pressured (Data waiting on the writeback TBE): the
		// message stays in flight and the state is unchanged (its queue
		// position is not state — enumeration is by ID).
		f.queue = append(f.queue, m)
		f.ids = append(f.ids, id)
		return Blocked
	}
	return h.Settle()
}

// Settle drains the kernel after a transition and classifies it.
func (h *Harness) Settle() Step {
	h.drain()
	if h.detected {
		return Detected
	}
	return Progressed
}

// Finish gives the verdict on a terminal state: detected (a violation
// on the Full variant, or when the recovery left a transaction behind),
// completed and audited, or stuck.
func (h *Harness) Finish() PathOutcome {
	switch {
	case h.detected:
		out := PathOutcome{Status: StatusDetected}
		if h.Full {
			out.Err = "full variant mis-speculated: " + h.reason
		} else if n := h.m.InFlight(); n != 0 {
			// ResetTransients must leave no transaction behind, however
			// much was in flight at the detection.
			out.Err = fmt.Sprintf("recovery left %d transactions in flight", n)
		}
		return out
	case h.completed == h.want && h.m.InFlight() == 0:
		out := PathOutcome{Status: StatusCompleted, Flagged: h.flag.Value() > h.flagBase}
		if err := h.m.AuditInvariants(); err != nil {
			out.Err = err.Error()
		}
		return out
	default:
		return PathOutcome{
			Status: StatusStuck,
			Err: fmt.Sprintf("stuck with %d/%d completed, %d in flight, %d data messages queued",
				h.completed, h.want, h.m.InFlight(), len(h.Data.queue)),
		}
	}
}

// Describe renders a pending event.
func (h *Harness) Describe(id uint64) string {
	ev, ok := h.events[id]
	switch {
	case !ok:
		return fmt.Sprintf("event#%d", id)
	case ev.Grant:
		return fmt.Sprintf("grant{%s}", ev.Msg)
	}
	return fmt.Sprintf("deliver{%s}->n%d", ev.Msg, ev.Dst)
}

// EncodeScript writes the detection flag and every node's script
// position: the head of each model's state encoding.
func (h *Harness) EncodeScript(e *Enc) {
	e.Bool(h.detected)
	for _, n := range h.done {
		e.Int(n)
	}
}

// EncodeData writes the messages in flight as a multiset of their
// keys: delivery order is the engine's choice, not state.
func (h *Harness) EncodeData(e *Enc) {
	keys := e.keys[:0]
	for _, id := range h.Data.ids {
		k, _ := h.Route(h.events[id])
		keys = append(keys, k)
	}
	e.keys = keys
	e.Multiset(keys)
}

// Lines writes a cache's valid lines in per-set LRU order: set,
// address, state and version.
func (e *Enc) Lines(c *cache.Cache) {
	c.ForEachSetLRU(func(set int, l *cache.Line) {
		e.Int(set)
		e.U64(uint64(l.Addr))
		e.U8(l.State)
		e.U64(l.Version)
	})
}

// Memory writes a memory image's written blocks and versions in
// address order.
func (e *Enc) Memory(s *mem.Store) {
	addrs := e.keys[:0]
	s.ForEach(func(a coherence.Addr, _ uint64) { addrs = append(addrs, uint64(a)) })
	slices.Sort(addrs)
	e.keys = addrs
	for _, a := range addrs {
		e.U64(a)
		e.U64(s.Read(coherence.Addr(a)))
	}
}
