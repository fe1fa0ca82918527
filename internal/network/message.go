package network

import (
	"fmt"

	"specsimp/internal/sim"
)

// Message is a network-level message. Payload carries the protocol-level
// content (a coherence.Msg for the protocol simulators); the network
// itself never inspects it.
type Message struct {
	Src, Dst NodeID
	VNet     int
	Size     int // bytes
	Payload  interface{}

	// Seq is a per-(src,dst,vnet) sequence number stamped by Send, used
	// by the reorder detector (paper §5.3 reports reorder rates per
	// virtual network).
	Seq uint64

	// SentAt is the injection time; DeliveredAt is set on ejection.
	SentAt      sim.Time
	DeliveredAt sim.Time

	// Hops counts switch-to-switch traversals.
	Hops int

	vc      int  // current virtual channel
	dimHint int  // dimension of previous hop, for dateline VC resets
	pooled  bool // minted by Network.AllocMessage; recycled after consumption
}

func (m *Message) String() string {
	return fmt.Sprintf("msg %d->%d vnet=%d vc=%d seq=%d size=%dB", m.Src, m.Dst, m.VNet, m.vc, m.Seq, m.Size)
}

// Fabric is the transport interface the coherence protocols are written
// against. *Network implements it; tests substitute scriptable fabrics
// to force specific message orderings.
type Fabric interface {
	// Send injects a message at its source.
	Send(m *Message)
	// Kick re-attempts delivery at node after a client unblocks.
	Kick(node NodeID)
	// AttachClient registers the consumer for a node.
	AttachClient(node NodeID, c Client)
	// NumNodes returns the endpoint count.
	NumNodes() int
}

// MessageAllocator is implemented by fabrics that recycle message
// structs through per-shard free lists (*Network does). Senders that
// use Alloc avoid one allocation per message; the fabric reclaims the
// struct when the destination client consumes it or a recovery drops
// it, so callers must not retain the pointer past delivery.
type MessageAllocator interface {
	AllocMessage(src NodeID) *Message
}

// Alloc returns a message for a send from src: from the free list of
// src's shard when f recycles messages (so sharded hot paths stay both
// race-free and allocation-free), or a fresh message otherwise. The
// coherence protocols allocate through this so that scripted test
// fabrics keep working unchanged.
func Alloc(f Fabric, src NodeID) *Message {
	if a, ok := f.(MessageAllocator); ok {
		return a.AllocMessage(src)
	}
	return &Message{}
}

// Client consumes messages delivered to a node. Deliver is offered the
// head of an ingress queue; returning false leaves the message queued
// (head-of-line blocking — how endpoint deadlock, Figure 2, arises when
// virtual networks are removed). A client that returns false must call
// Network.Kick for its node once it can make progress again.
type Client interface {
	Deliver(m *Message) bool
}

// ClientFunc adapts a function to the Client interface.
type ClientFunc func(m *Message) bool

// Deliver calls f(m).
func (f ClientFunc) Deliver(m *Message) bool { return f(m) }

// TraceEventKind labels points in a message's life for the optional
// trace hook (used by examples/reorder to reproduce Figure 1).
type TraceEventKind uint8

// Trace event kinds.
const (
	TraceInject TraceEventKind = iota
	TraceForward
	TraceDeliver
)

func (k TraceEventKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceForward:
		return "forward"
	default:
		return "deliver"
	}
}

// TraceEvent records one step of a message's journey.
type TraceEvent struct {
	At   sim.Time
	Node NodeID
	Dir  int // output direction for TraceForward
	Kind TraceEventKind
	Msg  *Message
}
