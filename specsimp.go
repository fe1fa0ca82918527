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
// commercial workloads — plus the full evaluation harness regenerating
// every table and figure of the paper (see EXPERIMENTS.md).
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
	"specsimp/internal/experiments"
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

// Build constructs a system from a config. It panics on an invalid
// configuration; BuildChecked returns the error instead.
func Build(cfg Config) *System { return system.Build(cfg) }

// BuildChecked constructs a system, reporting invalid configurations
// (oversize machines, bad geometry) as errors before anything is built.
func BuildChecked(cfg Config) (*System, error) { return system.BuildChecked(cfg) }

// ValidateConfig checks a configuration without building it: network
// geometry, the directory sharer-set format's node ceiling, and the
// snooping size cap.
func ValidateConfig(cfg Config) error { return system.ValidateConfig(cfg) }

// RunOne builds, starts, and runs a system for the given cycles.
func RunOne(cfg Config, cycles Time) Results { return system.RunOne(cfg, cycles) }

// RunOneChecked is RunOne with configuration errors returned instead of
// panicking — the sweep engine reports them per design point.
func RunOneChecked(cfg Config, cycles Time) (Results, error) {
	return system.RunOneChecked(cfg, cycles)
}

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

// The sharing-idiom streams (workload/idioms.go): pure sharing patterns
// the protocols were not calibrated against.
var (
	MigratoryChain = workload.MigratoryChain
	Ring           = workload.Ring
	Scan           = workload.Scan
	Broadcast      = workload.Broadcast
)

// WorkloadSuite is the paper's five evaluation workloads.
func WorkloadSuite() []Workload { return append([]Workload(nil), workload.Suite...) }

// WorkloadIdioms is the sharing-idiom evaluation set.
func WorkloadIdioms() []Workload { return append([]Workload(nil), workload.Idioms...) }

// WorkloadNames lists every registered workload name.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName resolves a workload by its name (including the
// "trace:<path>" scheme).
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// ResolveWorkload is WorkloadByName with a descriptive error: unknown
// names list the registry, bad trace files report the decode failure.
func ResolveWorkload(name string) (Workload, error) { return workload.Resolve(name) }

// WorkloadFromTrace loads a recorded trace file as a replayable
// workload (equivalent to ResolveWorkload("trace:" + path)).
func WorkloadFromTrace(path string) (Workload, error) { return workload.FromTrace(path) }

// TraceRecorder captures the reference streams a run actually consumes;
// set Config.Recorder to record, then write Trace() to a file for
// -workload trace:<path> replay.
type TraceRecorder = workload.TraceRecorder

// NewTraceRecorder records a run of the named workload across nodes.
func NewTraceRecorder(name string, nodes int) *TraceRecorder {
	return workload.NewTraceRecorder(name, nodes)
}

// ---- interconnect ----

// NetConfig describes an interconnect instance.
type NetConfig = network.Config

// Network is the 2D torus interconnect.
type Network = network.Network

// NetMessage is a network-level message.
type NetMessage = network.Message

// Routing policies.
const (
	Static   = network.Static
	Adaptive = network.Adaptive
)

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

// DeflectionNetConfig is the §4 alternative the paper mentions:
// hot-potato routing, which trades buffer-cycle deadlock for potential
// livelock (detected by the same transaction timeout, footnote 3).
func DeflectionNetConfig(w, h int, bw float64) NetConfig {
	return network.DeflectionConfig(w, h, bw)
}

// NewNetwork builds a standalone network on a kernel (for
// network-level studies; systems build their own).
func NewNetwork(k *Kernel, cfg NetConfig) *Network { return network.New(k, cfg) }

// ---- the speculation framework (the paper's contribution) ----

// Speculation describes one application of speculation for simplicity.
type Speculation = core.Speculation

// Characterization is one row of the paper's Table 1.
type Characterization = core.Characterization

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

// ---- evaluation harness ----

// ExperimentParams sizes an experiment.
type ExperimentParams = experiments.Params

// QuickParams returns bench-sized experiment parameters; StandardParams
// returns the EXPERIMENTS.md parameters.
func QuickParams() ExperimentParams    { return experiments.Quick() }
func StandardParams() ExperimentParams { return experiments.Standard() }

// DefaultConfigSized returns the Table 2 system scaled to a w×h torus.
// Directory systems scale to 32×32 (1024 nodes) — the sharer-set format
// is picked from the geometry (exact bitmap up to 64 nodes,
// limited-pointer with broadcast overflow beyond); snooping systems run
// a flat bus to 64 nodes and the segmented address network to 256
// (ValidateConfig reports why past that).
func DefaultConfigSized(kind Kind, wl Workload, w, h int) Config {
	return system.DefaultConfigSized(kind, wl, w, h)
}
