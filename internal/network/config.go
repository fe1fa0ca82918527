// Package network implements the multiprocessor interconnect model: a
// two-dimensional bidirectional torus of input-buffered switches with
// credit-based flow control, virtual networks, virtual channels with
// dateline deadlock avoidance, static dimension-order routing, and the
// paper's minimal adaptive routing (paper §3.1: "choose among minimal
// distance paths based on outgoing queue lengths").
//
// Three configurations matter for the reproduction:
//
//   - Safe static baseline: dimension-order routing, per-virtual-network
//     buffers, 2 virtual channels with a dateline — provably deadlock-free.
//   - Adaptive (paper §3.1): adaptive routing with full buffering, per the
//     paper's footnote 1 ("we simplistically avoid deadlock with full
//     buffering"). Does not preserve point-to-point ordering.
//   - Speculatively simplified (paper §4): no virtual networks, no virtual
//     channels, one shared finite buffer pool per input port. Both switch
//     deadlock (Figure 3) and endpoint deadlock (Figure 2) are possible
//     and are recovered from, not avoided.
package network

import (
	"math"

	"specsimp/internal/sim"
)

// RoutingPolicy selects how switches pick output ports.
type RoutingPolicy uint8

// Routing policies.
const (
	// Static is deterministic dimension-order (X then Y) routing. Two
	// messages between the same endpoints always take the same path, so
	// per-virtual-network point-to-point ordering is preserved.
	Static RoutingPolicy = iota
	// Adaptive is minimal adaptive routing: at each hop the switch
	// considers every productive direction and picks the one whose
	// outgoing buffer has most credit (ties broken deterministically).
	Adaptive
	// Deflection is hot-potato-style routing (paper §4: "interconnect
	// designers have used deflection routing to avoid deadlock"): a
	// blocked message takes *any* usable output, even an unproductive
	// one, instead of waiting for a buffer cycle to clear. It trades
	// deadlock for potential livelock, which the coherence transaction
	// timeout also detects (paper footnote 3).
	Deflection
)

func (r RoutingPolicy) String() string {
	switch r {
	case Static:
		return "static"
	case Adaptive:
		return "adaptive"
	default:
		return "deflection"
	}
}

// Config describes an interconnect instance.
type Config struct {
	// Width and Height give the torus dimensions; Width*Height nodes.
	Width, Height int

	// LinkBandwidth is bytes per cycle per unidirectional link. The
	// paper sweeps 400 MB/s to 3.2 GB/s which, at the 4 GHz processor
	// clock, is 0.1 to 0.8 bytes/cycle.
	LinkBandwidth float64

	// PropDelay is the per-hop pipeline latency in cycles (switch
	// traversal + wire flight), paid in addition to serialization.
	PropDelay sim.Time

	// Routing selects static or adaptive routing.
	Routing RoutingPolicy

	// VNets is the number of virtual networks carried. Message VNet
	// metadata is always preserved; SeparateVNetBuffers controls whether
	// it maps to separate buffer classes.
	VNets int

	// SeparateVNetBuffers reserves distinct buffer classes per virtual
	// network (endpoint-deadlock avoidance). When false, all messages
	// share one buffer class per port — the paper §4 simplified design.
	SeparateVNetBuffers bool

	// VCsPerVNet is the number of virtual channels per virtual network.
	// 2 enables the dateline scheme that makes dimension-order routing
	// deadlock-free on a torus. 1 disables VC protection.
	VCsPerVNet int

	// BufferSize is the input buffering capacity in messages. With
	// SeparateVNetBuffers it is the size of each (port, class) input
	// buffer; without (the §4 simplified design) it is the size of one
	// pool per switch shared by every neighbor port and message type —
	// which is how the paper's 16-node system can deadlock at 8-entry
	// buffers despite having only 16 outstanding requests. 0 means
	// unlimited ("full buffering", the paper's footnote-1 treatment for
	// the adaptive network).
	BufferSize int

	// EndpointBufferSize is the per-class capacity of each node's
	// ingress queue. 0 means unlimited.
	EndpointBufferSize int
}

// NumNodes returns Width*Height.
func (c Config) NumNodes() int { return c.Width * c.Height }

// classes returns the number of distinct buffer classes per port. It
// and classOf and serLatency take a pointer: the switch hot path calls
// them per message, and a value receiver would copy the whole Config.
func (c *Config) classes() int {
	if !c.SeparateVNetBuffers {
		return 1
	}
	v := c.VNets
	if v < 1 {
		v = 1
	}
	vc := c.VCsPerVNet
	if vc < 1 {
		vc = 1
	}
	return v * vc
}

// classOf maps a message's virtual network and virtual channel to its
// buffer class under this configuration.
func (c *Config) classOf(vnet, vc int) int {
	if !c.SeparateVNetBuffers {
		return 0
	}
	vcs := c.VCsPerVNet
	if vcs < 1 {
		vcs = 1
	}
	if vc >= vcs {
		vc = vcs - 1
	}
	return vnet*vcs + vc
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return errConfig("torus dimensions must be at least 2x2")
	case math.IsNaN(c.LinkBandwidth) || math.IsInf(c.LinkBandwidth, 0) || c.LinkBandwidth <= 0:
		return errConfig("LinkBandwidth must be positive and finite")
	case c.VNets < 1:
		return errConfig("VNets must be at least 1")
	case c.BufferSize < 0 || c.EndpointBufferSize < 0:
		return errConfig("buffer sizes must be non-negative")
	case numPorts*c.classes() > 64:
		// Switch arbitration tracks queue occupancy in one 64-bit
		// bitmap: five ports times at most twelve buffer classes.
		return errConfig("VNets*VCsPerVNet must be at most 12")
	}
	return nil
}

// serLatency is the serialization latency of a size-byte message on
// one link (at least one cycle).
func (c *Config) serLatency(size int) sim.Time {
	cyc := math.Ceil(float64(size) / c.LinkBandwidth)
	if cyc < 1 {
		cyc = 1
	}
	return sim.Time(cyc)
}

// MinHopLatency is the smallest possible switch-to-switch delivery
// latency under this configuration: the serialization of a minimum-size
// (CtrlBytesDefault) message plus the propagation delay. It is the
// conservative lookahead bound for intra-run sharding — a cross-shard
// message sent at t cannot arrive before t+MinHopLatency, so shards may
// run that many cycles between synchronizations.
func (c Config) MinHopLatency() sim.Time {
	return c.PropDelay + c.serLatency(CtrlBytesDefault)
}

type errConfig string

func (e errConfig) Error() string { return "network: " + string(e) }

// SafeStaticConfig is the deadlock-free baseline: dimension-order
// routing, separate virtual-network buffers, two dateline virtual
// channels, finite buffers.
func SafeStaticConfig(width, height int, bw float64) Config {
	return Config{
		Width: width, Height: height,
		LinkBandwidth:       bw,
		PropDelay:           8,
		Routing:             Static,
		VNets:               4,
		SeparateVNetBuffers: true,
		VCsPerVNet:          2,
		BufferSize:          16,
		EndpointBufferSize:  16,
	}
}

// AdaptiveConfig is the paper §3.1 network: adaptive routing with full
// buffering (footnote 1), separate virtual networks. It can reorder
// messages between a source/destination pair.
func AdaptiveConfig(width, height int, bw float64) Config {
	c := SafeStaticConfig(width, height, bw)
	c.Routing = Adaptive
	c.VCsPerVNet = 1
	c.BufferSize = 0 // full buffering
	c.EndpointBufferSize = 0
	return c
}

// SimplifiedConfig is the paper §4 network: no virtual networks or
// channels, one shared finite buffer pool of bufSize messages per
// switch. Deadlock is possible and must be detected and recovered from.
func SimplifiedConfig(width, height int, bw float64, bufSize int) Config {
	c := SafeStaticConfig(width, height, bw)
	c.Routing = Adaptive
	c.SeparateVNetBuffers = false
	c.VCsPerVNet = 1
	c.BufferSize = bufSize
	c.EndpointBufferSize = bufSize
	return c
}

// DeflectionConfig is the §4 alternative: deflection (hot-potato)
// routing. Deflection is fundamentally bufferless — a packet never
// waits on downstream buffer space, it takes any free output — so
// buffer-cycle deadlock cannot form; the cost is unproductive hops and
// potential livelock (caught by the same transaction timeout, paper
// footnote 3). The model reflects this with unbounded buffers and
// deflect-on-busy link selection.
func DeflectionConfig(width, height int, bw float64) Config {
	c := SimplifiedConfig(width, height, bw, 0)
	c.Routing = Deflection
	return c
}
