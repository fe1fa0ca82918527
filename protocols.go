package specsimp

import (
	"specsimp/internal/coherence"
	"specsimp/internal/directory"
	"specsimp/internal/network"
	"specsimp/internal/snoop"
)

// Protocol-level API: direct access to the coherence protocols for
// fine-grained experiments (the system-level API in specsimp.go is the
// usual entry point).

// NodeID identifies a node; Addr is a block-aligned physical address.
type (
	NodeID = coherence.NodeID
	Addr   = coherence.Addr
)

// AccessType distinguishes loads from stores.
type AccessType = coherence.AccessType

// Access types.
const (
	Load  = coherence.Load
	Store = coherence.Store
)

// Directory protocol (paper §3.1).
type (
	// DirectoryProtocol is the MOSI directory protocol instance.
	DirectoryProtocol = directory.Protocol
	// DirectoryConfig parameterizes it.
	DirectoryConfig = directory.Config
	// DirectoryVariant selects Full or Spec.
	DirectoryVariant = directory.Variant
)

// Directory protocol variants.
const (
	DirFull = directory.Full
	DirSpec = directory.Spec
)

// NewDirectoryProtocol builds the directory protocol over a network
// fabric, without checkpoint logging. It panics on an invalid
// configuration.
func NewDirectoryProtocol(k *Kernel, net *Network, cfg DirectoryConfig) *DirectoryProtocol {
	return directory.New(k, net, cfg, nil)
}

// DefaultDirectoryConfig returns paper Table 2 parameters.
func DefaultDirectoryConfig(nodes int, v DirectoryVariant) DirectoryConfig {
	return directory.DefaultConfig(nodes, v)
}

// DirectoryComplexity counts states and specified transitions of a
// variant (the A1 complexity ablation).
func DirectoryComplexity(v DirectoryVariant) directory.Complexity {
	return directory.ComplexityOf(v)
}

// Snooping protocol (paper §3.2).
type (
	// SnoopProtocol is the broadcast snooping protocol instance.
	SnoopProtocol = snoop.Protocol
	// SnoopConfig parameterizes it.
	SnoopConfig = snoop.Config
	// SnoopVariant selects Full or Spec.
	SnoopVariant = snoop.Variant
	// Bus is the totally ordered address network.
	Bus = snoop.Bus
	// BusConfig parameterizes the bus.
	BusConfig = snoop.BusConfig
)

// Snooping protocol variants.
const (
	SnFull = snoop.Full
	SnSpec = snoop.Spec
)

// NewBus builds the ordered address network.
func NewBus(k *Kernel, cfg BusConfig) *Bus { return snoop.NewBus(k, cfg) }

// DefaultBusConfig returns the default bus parameters.
func DefaultBusConfig(nodes int) BusConfig { return snoop.DefaultBusConfig(nodes) }

// NewSnoopProtocol builds the snooping protocol over a bus and a data
// fabric.
func NewSnoopProtocol(k *Kernel, bus *Bus, data *Network, cfg SnoopConfig) *SnoopProtocol {
	return snoop.New(k, bus, data, cfg, nil)
}

// DefaultSnoopConfig returns paper Table 2 parameters.
func DefaultSnoopConfig(nodes int, v SnoopVariant) SnoopConfig {
	return snoop.DefaultConfig(nodes, v)
}

// SnoopComplexity counts states and specified transitions of a variant.
func SnoopComplexity(v SnoopVariant) snoop.Complexity { return snoop.ComplexityOf(v) }

// Network-level types for traffic studies and demos.
type (
	// NetClient consumes messages delivered to a node.
	NetClient = network.Client
	// NetClientFunc adapts a function to NetClient.
	NetClientFunc = network.ClientFunc
	// NetTraceEvent is one step of a message's journey (for demos).
	NetTraceEvent = network.TraceEvent
	// NetNodeID identifies a network endpoint (distinct from the
	// protocol-level NodeID).
	NetNodeID = network.NodeID
)

// PortName renders a switch port for traces.
func PortName(p int) string { return network.PortName(p) }
