// Package snoop implements the paper §3.2 broadcast snooping MOSI cache
// coherence protocol in two variants:
//
//   - Full: specifies the rare corner case — a cache that has issued a
//     Writeback observes a foreign RequestReadWrite (transferring
//     ownership away) and then, still before its own Writeback is
//     ordered, observes a second foreign RequestReadWrite.
//   - Spec: leaves that transition unspecified and treats observing it
//     as a mis-speculation, exactly as the paper proposes ("instead of
//     forcing the designers to re-work the protocol and re-verify it").
//
// Requests travel on a totally ordered address network (the Bus below);
// data travels on an unordered point-to-point network. Ownership binds
// at request order time, which is also the protocol's logical time base:
// SafetyNet checkpoints the snooping system every N ordered requests
// (paper Table 2: 3,000 requests).
package snoop

import (
	"fmt"

	"specsimp/internal/coherence"
	"specsimp/internal/pool"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// BusConfig parameterizes the ordered address network: a flat central
// arbiter by default, or — when the segment fields are set — the
// segmented network of local arbiters around an ordered hub ring that
// lets snooping machines grow past the flat bus's 64-node ceiling.
type BusConfig struct {
	Nodes int
	// ArbInterval is the minimum spacing between ordered requests (the
	// address network's throughput limit; on the segmented network, the
	// hub ring's — the global ordering point's — slot spacing).
	ArbInterval sim.Time
	// DeliverLatency is the delay from ordering to every node (and the
	// memory controller) observing the request. On the segmented
	// network, ordering happens at the hub ring, so this covers the
	// ring traverse plus the fan-out through every segment.
	DeliverLatency sim.Time

	// Segmented address network (set by ScaledBusConfig past 64 nodes):
	// the Width×Height torus tiles into SegRows×SegCols segments. A
	// request first wins its own segment's arbiter (SegArbInterval slot
	// spacing), travels CollectLatency to the hub ring, is globally
	// ordered there (ArbInterval spacing, sequence numbers assigned in
	// hub order — which is NOT submit order when a near segment's
	// request overtakes a far one's), and fans back out to every node
	// DeliverLatency later. All fields zero = flat bus.
	Width, Height    int
	SegRows, SegCols int
	SegArbInterval   sim.Time
	CollectLatency   sim.Time
}

// Segmented reports whether the config describes the segmented network.
func (c BusConfig) Segmented() bool { return c.SegRows > 1 || c.SegCols > 1 }

// Validate checks the segmented-network geometry (no-op for flat).
func (c BusConfig) Validate() error {
	if !c.Segmented() {
		return nil
	}
	switch {
	case c.Width*c.Height != c.Nodes:
		return fmt.Errorf("snoop: segmented bus geometry %dx%d covers %d nodes, config says %d", c.Width, c.Height, c.Width*c.Height, c.Nodes)
	case c.SegRows < 1 || c.SegCols < 1:
		return fmt.Errorf("snoop: segmented bus needs a positive segment grid, got %dx%d", c.SegRows, c.SegCols)
	case c.SegRows > c.Height || c.SegCols > c.Width:
		return fmt.Errorf("snoop: %dx%d segment grid exceeds the %dx%d torus", c.SegRows, c.SegCols, c.Width, c.Height)
	case c.SegArbInterval < 1 || c.ArbInterval < 1:
		return fmt.Errorf("snoop: segmented bus needs positive arbitration intervals (segment %d, hub %d)", c.SegArbInterval, c.ArbInterval)
	}
	return nil
}

// DefaultBusConfig spaces requests 5 cycles apart and delivers in 25.
func DefaultBusConfig(nodes int) BusConfig {
	return BusConfig{Nodes: nodes, ArbInterval: 5, DeliverLatency: 25}
}

// ScaledBusConfig sizes the address network for a w×h machine.
//
// Up to 64 nodes it is the flat diameter-scaled model: delivery latency
// grows with the torus diameter (5 cycles per hop plus a fixed 5-cycle
// arbitration pipeline), matching DefaultBusConfig exactly at the
// paper's 4×4 geometry.
//
// Beyond 64 nodes a single flat broadcast tree stops being a credible
// model, so the config switches to the segmented network: the machine
// is tiled into 8×8 segments, each with a local arbiter; segment
// winners are ordered on a ring of segment hubs (the global ordering
// point, keeping the total order the protocol needs) and the winning
// request fans back out through every segment. The pipeline is
// simulated — local slot contention, collect to the hub, hub-slot
// contention, broadcast — with each leg at 5 cycles per hop:
// CollectLatency is the segment-torus diameter, DeliverLatency the arb
// pipeline plus hub-ring diameter plus fan-out diameter. The snooping
// *system* caps at system.MaxSegmentedSnoopNodes on this network
// (every ordered request is still observed by all nodes, so past that
// the experiment measures broadcast serialization, not protocol
// scaling); the flat bus caps at system.MaxSnoopNodes.
func ScaledBusConfig(w, h int) BusConfig {
	if w*h <= 64 {
		diameter := sim.Time(w/2 + h/2)
		return BusConfig{Nodes: w * h, ArbInterval: 5, DeliverLatency: 5 + 5*diameter}
	}
	segW, segH := (w+7)/8, (h+7)/8 // 8×8 segments per dimension
	intraW, intraH := (w+segW-1)/segW, (h+segH-1)/segH
	intra := sim.Time(intraW/2 + intraH/2) // segment-torus diameter
	inter := sim.Time(segW/2 + segH/2)     // hub-ring diameter
	return BusConfig{
		Nodes:          w * h,
		ArbInterval:    5,
		Width:          w,
		Height:         h,
		SegRows:        segH,
		SegCols:        segW,
		SegArbInterval: 5,
		CollectLatency: 5 * intra,
		// arb pipeline + hub ring + fan-out, 5 cycles/hop; the collect
		// leg is CollectLatency, before ordering.
		DeliverLatency: 5 + 5*inter + 5*intra,
	}
}

// BusObserver receives every ordered request, in the same global order
// at every node.
type BusObserver interface {
	OnOrdered(seq uint64, msg coherence.Msg)
}

// AddressNet is the ordered address network the snooping protocol is
// written against. *Bus is the timed implementation; the exploration
// model (model.go) substitutes a scriptable one that lets the explorer
// choose the ordering of concurrently submitted requests.
type AddressNet interface {
	// Submit queues a request; it is eventually ordered and observed by
	// every attached observer in the same global order.
	Submit(msg coherence.Msg)
	// Attach registers an observer (cache or memory controller).
	Attach(o BusObserver)
	// Ordered returns the number of requests ordered so far.
	Ordered() uint64
	// Reset drops every submitted-but-unordered request (recovery).
	Reset()
}

// Bus is the totally ordered broadcast address network. On the flat
// configuration, requests submit to a central arbiter; each receives a
// global sequence number and is observed by every attached observer in
// that order. On the segmented configuration (BusConfig.Segmented), a
// request first contends for its own segment's arbiter slot, travels to
// the hub ring, receives its sequence number in hub-arrival order —
// the global ordering point — and broadcasts from there. Both paths
// deliver to every observer simultaneously (the fan-out is modeled at
// the diameter, matching ScaledBusConfig's latency decomposition),
// which keeps the quiescence argument simple: a requester observes its
// own request no later than anyone else, so an undelivered broadcast
// always has a live requester-side transaction holding the system
// un-quiesced.
type Bus struct {
	k   *sim.Kernel
	cfg BusConfig

	observers []BusObserver
	nextFree  sim.Time
	seq       uint64
	epoch     uint64

	// Segmented state: per-segment local arbiter slots, the node→segment
	// map, and the hub handler that assigns sequence numbers when a
	// collected request reaches the ring.
	segNextFree []sim.Time
	segOf       []int
	hub         busHub

	ordered stats.Counter

	// free recycles the boxed messages that ride inside delivery events,
	// so steady-state arbitration allocates nothing.
	free pool.FreeList[coherence.Msg]

	// OnOrder, if set, is called once per ordered request after all
	// observers — the logical-time hook the snooping SafetyNet
	// checkpoint cadence uses.
	OnOrder func(seq uint64)
}

// busHub is the hub ring's event handler: it receives collected
// requests (one event per segment winner) and orders them. A separate
// type so hub-arrival and delivery events dispatch to different
// HandleEvent implementations on the same kernel.
type busHub struct{ b *Bus }

// NewBus builds an idle bus; cfg chooses flat or segmented (the config
// must have passed Validate — system.ValidateConfig runs it).
func NewBus(k *sim.Kernel, cfg BusConfig) *Bus {
	b := &Bus{k: k, cfg: cfg}
	b.hub.b = b
	if cfg.Segmented() {
		b.segNextFree = make([]sim.Time, cfg.SegRows*cfg.SegCols)
		b.segOf = make([]int, cfg.Nodes)
		segW := (cfg.Width + cfg.SegCols - 1) / cfg.SegCols
		segH := (cfg.Height + cfg.SegRows - 1) / cfg.SegRows
		for n := range b.segOf {
			x, y := n%cfg.Width, n/cfg.Width
			b.segOf[n] = (y/segH)*cfg.SegCols + x/segW
		}
	}
	return b
}

// Attach registers an observer (cache or memory controller).
func (b *Bus) Attach(o BusObserver) { b.observers = append(b.observers, o) }

// Ordered returns the number of requests ordered so far.
func (b *Bus) Ordered() uint64 { return b.ordered.Value() }

// Submit queues a request for arbitration. Flat: the request is ordered
// at the next free central slot and observed by every node
// DeliverLatency later. Segmented: the request first wins its segment's
// local arbiter slot, then travels CollectLatency to the hub ring,
// where ordering (and sequence numbering) happens on arrival — see
// busHub.HandleEvent.
func (b *Bus) Submit(msg coherence.Msg) {
	now := b.k.Now()
	if b.cfg.Segmented() {
		seg := b.segOf[msg.From]
		at := now
		if b.segNextFree[seg] > at {
			at = b.segNextFree[seg]
		}
		b.segNextFree[seg] = at + b.cfg.SegArbInterval
		cm := b.free.Get()
		*cm = msg
		b.k.AtEvent(at+b.cfg.CollectLatency, &b.hub, b.epoch, 0, cm)
		return
	}
	at := now
	if b.nextFree > at {
		at = b.nextFree
	}
	b.nextFree = at + b.cfg.ArbInterval
	seq := b.seq
	b.seq++
	cm := b.free.Get()
	*cm = msg
	b.k.AtEvent(at+b.cfg.DeliverLatency, b, b.epoch, seq, cm)
}

// HandleEvent implements sim.Handler for hub-ring arrivals on the
// segmented network: the collected request takes the next free hub slot
// — the global ordering point, so the sequence number is assigned here,
// in hub-arrival order rather than submit order — and the broadcast
// fires DeliverLatency later. Hub slots are spaced ArbInterval apart,
// so delivery times are strictly increasing in sequence order and every
// observer sees the global order as its arrival order.
func (h *busHub) HandleEvent(epoch, _ uint64, p any) {
	b := h.b
	cm := p.(*coherence.Msg)
	if b.epoch != epoch {
		b.free.Put(cm)
		return // dropped by a recovery reset
	}
	at := b.k.Now()
	if b.nextFree > at {
		at = b.nextFree
	}
	b.nextFree = at + b.cfg.ArbInterval
	seq := b.seq
	b.seq++
	b.k.AtEvent(at+b.cfg.DeliverLatency, b, b.epoch, seq, cm)
}

// HandleEvent implements sim.Handler: one ordered-request broadcast.
func (b *Bus) HandleEvent(epoch, seq uint64, p any) {
	cm := p.(*coherence.Msg)
	msg := *cm
	b.free.Put(cm)
	if b.epoch != epoch {
		return // dropped by a recovery reset
	}
	b.ordered.Inc()
	for _, o := range b.observers {
		if b.epoch != epoch {
			return // a recovery fired mid-broadcast; abort the event
		}
		o.OnOrdered(seq, msg)
	}
	if b.epoch != epoch {
		return
	}
	if b.OnOrder != nil {
		b.OnOrder(seq)
	}
}

// Reset drops every submitted-but-undelivered request (a SafetyNet
// recovery discards in-flight traffic) — on the segmented network that
// includes requests still in local arbitration or in flight to the hub.
func (b *Bus) Reset() {
	b.epoch++
	if b.nextFree < b.k.Now() {
		b.nextFree = b.k.Now()
	}
	for i, t := range b.segNextFree {
		if t < b.k.Now() {
			b.segNextFree[i] = b.k.Now()
		}
	}
}
