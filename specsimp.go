// Package specsimp is a from-scratch reproduction of
//
//	Sorin, Martin, Hill & Wood,
//	"Using Speculation to Simplify Multiprocessor Design", IPDPS 2004.
//
// It provides the paper's speculation-for-simplicity framework
// (detect / recover / guarantee forward progress), complete simulated
// substrates — a 2D-torus interconnect with static and adaptive routing,
// MOSI directory and broadcast-snooping cache coherence protocols in
// both "full" and "speculatively simplified" variants, a SafetyNet-style
// global checkpoint/recovery service, blocking processors, and synthetic
// commercial workloads. The evaluation harness that regenerates every
// table and figure of the paper is the sweep command (see
// EXPERIMENTS.md).
//
// # Quick start
//
//	cfg := specsimp.DefaultConfig(specsimp.DirectorySpec, specsimp.OLTP)
//	res := specsimp.RunOne(cfg, 1_000_000)
//	fmt.Printf("perf=%.3f recoveries=%d\n", res.Perf, res.Recoveries)
//
// The root package is a facade over the implementation packages; see
// DESIGN.md for the system inventory and the per-experiment index.
package specsimp

import (
	"specsimp/internal/core"
	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// Time is simulated time in processor cycles.
type Time = sim.Time

// Kernel is the deterministic discrete-event simulation kernel.
type Kernel = sim.Kernel

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return sim.NewKernel() }

// ---- systems ----

// Config describes one simulated machine (paper Table 2 defaults via
// DefaultConfig).
type Config = system.Config

// Results summarizes a run.
type Results = system.Results

// System is a built machine bound to a kernel.
type System = system.System

// Kind selects the coherence protocol and variant.
type Kind = system.Kind

// System kinds: directory or snooping protocol, full or speculatively
// simplified variant.
const (
	DirectoryFull = system.DirectoryFull
	DirectorySpec = system.DirectorySpec
	SnoopFull     = system.SnoopFull
	SnoopSpec     = system.SnoopSpec
)

// DefaultConfig returns the paper's Table 2 target system.
func DefaultConfig(kind Kind, wl Workload) Config { return system.DefaultConfig(kind, wl) }

// DefaultConfigSized returns the Table 2 system scaled to a w×h torus.
// Directory systems scale to 32×32 (1024 nodes) — the sharer-set format
// is picked from the geometry (exact bitmap up to 64 nodes,
// limited-pointer with broadcast overflow beyond); snooping systems run
// a flat bus to 64 nodes and the segmented address network to 256.
func DefaultConfigSized(kind Kind, wl Workload, w, h int) Config {
	return system.DefaultConfigSized(kind, wl, w, h)
}

// Build constructs a system from a config. It panics on an invalid
// configuration.
func Build(cfg Config) *System { return system.Build(cfg) }

// RunOne builds, starts, and runs a system for the given cycles.
func RunOne(cfg Config, cycles Time) Results { return system.RunOne(cfg, cycles) }

// ---- workloads (paper Table 3) ----

// Workload parameterizes a synthetic reference stream.
type Workload = workload.Profile

// The evaluation workloads (paper Table 3) and two calibration
// profiles.
var (
	OLTP    = workload.OLTP
	JBB     = workload.JBB
	Apache  = workload.Apache
	Slash   = workload.Slash
	Barnes  = workload.Barnes
	Uniform = workload.Uniform
	Hotspot = workload.Hotspot
)

// WorkloadSuite is the paper's five evaluation workloads.
func WorkloadSuite() []Workload { return append([]Workload(nil), workload.Suite...) }

// WorkloadByName resolves a workload by its name (including the
// "trace:<path>" scheme).
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// ---- interconnect ----

// NetConfig describes an interconnect instance.
type NetConfig = network.Config

// Network is the 2D torus interconnect.
type Network = network.Network

// NetMessage is a network-level message.
type NetMessage = network.Message

// SafeStaticConfig is the provably deadlock-free baseline network
// (dimension-order routing, virtual networks, dateline virtual
// channels).
func SafeStaticConfig(w, h int, bw float64) NetConfig { return network.SafeStaticConfig(w, h, bw) }

// AdaptiveNetConfig is the paper §3.1 adaptively routed network with
// full buffering; it does not preserve point-to-point ordering.
func AdaptiveNetConfig(w, h int, bw float64) NetConfig { return network.AdaptiveConfig(w, h, bw) }

// SimplifiedNetConfig is the paper §4 network: no virtual networks or
// channels, one shared finite buffer pool per switch; deadlock is
// possible and recovered from rather than avoided.
func SimplifiedNetConfig(w, h int, bw float64, bufSize int) NetConfig {
	return network.SimplifiedConfig(w, h, bw, bufSize)
}

// NewNetwork builds a standalone network on a kernel (for
// network-level studies; systems build their own).
func NewNetwork(k *Kernel, cfg NetConfig) *Network { return network.New(k, cfg) }

// ---- the speculation framework (the paper's contribution) ----

// Speculation describes one application of speculation for simplicity.
type Speculation = core.Speculation

// The paper's three applications of speculation for simplicity.
var (
	P2POrdering  = core.P2POrdering
	SnoopCorner  = core.SnoopCorner
	NoVCDeadlock = core.NoVCDeadlock
)

// Table1 renders the framework characterization (paper Table 1).
func Table1() string { return core.Table1(P2POrdering, SnoopCorner, NoVCDeadlock) }

// Table2 renders the target system parameters (paper Table 2).
func Table2(cfg Config) string { return system.Table2(cfg) }
