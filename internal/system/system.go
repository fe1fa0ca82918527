// Package system assembles complete target machines: 16 nodes of
// processor + two-level cache hierarchy + coherence protocol (directory
// or snooping, full or speculatively simplified) + interconnect +
// SafetyNet + the speculation-for-simplicity coordinator (paper §5.1).
// It also implements the evaluation methodology of one run: timed runs,
// checkpoint orchestration and recovery injection (Figure 4). Perturbed
// multi-runs (paper §5.2) are sweep-engine grids (internal/runner).
package system

import (
	"fmt"
	"strings"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/core"
	"specsimp/internal/directory"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/processor"
	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
	"specsimp/internal/snoop"
	"specsimp/internal/stats"
	"specsimp/internal/workload"
)

// Kind selects the coherence protocol and its variant.
type Kind uint8

// System kinds.
const (
	// DirectoryFull is the complete directory protocol for unordered
	// networks — the non-speculative baseline.
	DirectoryFull Kind = iota
	// DirectorySpec is the §3.1 speculatively simplified directory
	// protocol relying on point-to-point ordering.
	DirectorySpec
	// SnoopFull is the complete snooping protocol.
	SnoopFull
	// SnoopSpec is the §3.2 snooping protocol with the corner case left
	// to speculation.
	SnoopSpec
)

func (k Kind) String() string {
	switch k {
	case DirectoryFull:
		return "directory-full"
	case DirectorySpec:
		return "directory-spec"
	case SnoopFull:
		return "snoop-full"
	default:
		return "snoop-spec"
	}
}

// IsDirectory reports whether the kind uses the directory protocol.
func (k Kind) IsDirectory() bool { return k == DirectoryFull || k == DirectorySpec }

// Config describes one experimental system (paper Table 2 defaults via
// DefaultConfig).
type Config struct {
	Kind  Kind
	Nodes int

	// Shards selects conservative-window parallel intra-run simulation
	// for directory kinds: the torus splits into an R×C grid of tiles,
	// each running its own event kernel, synchronized every
	// MinHopLatency cycles (see DESIGN.md "Parallel intra-run DES").
	// The grid is auto-factored from the count (TileGrid: tiles as
	// close to square as the geometry admits) unless ShardRows and
	// ShardCols pin it explicitly. Results are bit-identical at every
	// tile count >= 1 and every tile shape, including 1 (the serial
	// execution of the same windowed schedule). 0 — the default — is
	// the classic single-kernel path. The grid must divide the torus
	// (rows the height, columns the width); snooping kinds (globally
	// ordered bus) support only 0 or 1, both meaning the classic path.
	Shards int

	// ShardRows and ShardCols optionally pin the tile-grid
	// factorization (R rows × C columns). Zero means auto-factor from
	// Shards. When both are set and Shards is zero, Shards is derived
	// as their product; when Shards is also set, the product must match.
	ShardRows, ShardCols int

	Net network.Config
	Bus snoop.BusConfig // snooping address network

	// Sharers selects the directory entry's sharer-set representation
	// for directory kinds. The zero value is the exact full bitmap,
	// which caps the machine at 64 nodes; DefaultConfigSized picks a
	// legal format from the geometry (limited-pointer beyond 64 nodes),
	// each format at its default size (Dir_4_B pointers, the narrowest
	// coarse-vector cluster that fits).
	Sharers directory.SharerFormat

	Workload workload.Profile
	Seed     uint64

	// Recorder, when non-nil, interposes on every node's workload
	// generator and logs the stream the run actually consumes (SafetyNet
	// rollbacks rewind the log too). specsim -record-trace sets it and
	// writes the result as a replayable trace file (workload/trace.go).
	Recorder *workload.TraceRecorder

	// CheckpointInterval is SafetyNet's cadence: cycles for the
	// directory system (Table 2: 100,000; must be positive), ordered
	// requests for the snooping system (Table 2: 3,000) via
	// SnoopCheckpointRequests. The watchdog scans every quarter
	// interval (at least every cycle).
	CheckpointInterval      sim.Time
	SnoopCheckpointRequests uint64

	// TimeoutCycles arms the transaction-timeout watchdog (paper: three
	// checkpoint intervals). 0 disables it.
	TimeoutCycles sim.Time

	// InjectRecoveryEvery periodically forces a recovery — the Figure 4
	// stress methodology. 0 disables injection.
	InjectRecoveryEvery sim.Time

	// FaultRegime selects the sustained-fault scheduler (see faults.go):
	// Poisson storms, correlated regional bursts, or repeat faults timed
	// to land during recovery. FaultRate is the regime's aggregate fault
	// arrival rate in faults per second of the compressed clock
	// (CyclesPerSecond maps it onto cycles). FaultNone disables the
	// scheduler; the legacy periodic injector above runs independently.
	FaultRegime FaultRegime
	FaultRate   float64

	// AdaptiveCheckpoint enables the closed-loop cadence controller for
	// directory kinds: the checkpoint interval halves under observed log
	// pressure and relaxes back toward CheckpointInterval when logs run
	// shallow, clamped to [interval/8, interval] (see
	// nextCheckpointDelay). Snooping kinds checkpoint on a request-count
	// cadence and reject it.
	AdaptiveCheckpoint bool

	// LogBytes overrides SafetyNet's per-node log capacity (0 = Table
	// 2's 512 KB; negative = unlimited). The availability experiment
	// shrinks it to exercise the log-overflow backpressure path.
	LogBytes int

	// SlowStartWindow is how long the post-recovery outstanding limit
	// (SlowStartLimit, default 1) lasts; AdaptiveDisableWindow is how
	// long adaptive routing stays off after a recovery (0 = forever,
	// the conservative knob).
	SlowStartWindow       sim.Time
	SlowStartLimit        int
	AdaptiveDisableWindow sim.Time

	// CyclesPerSecond maps wall-clock rates (recoveries/second) onto
	// simulated cycles. The paper's machine runs at 4 GHz; experiments
	// use a compressed clock, recorded in EXPERIMENTS.md.
	CyclesPerSecond float64

	// Cache geometry overrides (0 = paper Table 2 defaults). Small
	// caches raise eviction/writeback pressure for the race-hunting
	// experiments.
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int

	// ReorderInjectProb amplifies network reordering for fault-
	// injection experiments: each ForwardedRequest-class message is
	// held at its source for ReorderInjectDelay cycles with this
	// probability, letting later messages overtake it. Natural
	// reorderings are rare (the paper's premise), so end-to-end tests
	// of the detect/recover/forward-progress path use this knob.
	ReorderInjectProb  float64
	ReorderInjectDelay sim.Time

	// derivedTimeout records the TimeoutCycles value DefaultConfigSized
	// derived from its checkpoint interval (the 3× coupling). Build and
	// ValidateConfig re-derive TimeoutCycles when a caller later moved
	// CheckpointInterval but left the timeout at the recorded
	// derivation — previously the stale 3×old-interval value silently
	// survived the override.
	derivedTimeout sim.Time
}

// DefaultConfig returns the paper's Table 2 system for the given kind
// and workload: 16 nodes on a 4x4 torus.
func DefaultConfig(kind Kind, wl workload.Profile) Config {
	return DefaultConfigSized(kind, wl, 4, 4)
}

// DefaultConfigSized returns the Table 2 system scaled to a w×h torus —
// the paper's machine at 4×4, the scaling study's 64-node machine at
// 8×8, the directory protocol up to 16×16 (256 nodes). Everything
// geometry-dependent derives from w and h: the torus networks, the
// snooping bus model (diameter-scaled, segmented beyond 64 nodes), the
// node count, and the directory sharer-set format (exact bitmap up to
// 64 nodes, limited-pointer with broadcast overflow beyond). Snooping
// systems stay capped at 64 nodes — ValidateConfig reports why.
func DefaultConfigSized(kind Kind, wl workload.Profile, w, h int) Config {
	cfg := Config{
		Kind:                    kind,
		Nodes:                   w * h,
		Sharers:                 directory.DefaultSharerFormat(w * h),
		Workload:                wl,
		Seed:                    1,
		CheckpointInterval:      100_000,
		SnoopCheckpointRequests: 3_000,
		SlowStartWindow:         200_000,
		AdaptiveDisableWindow:   0, // conservative: never re-enable
		CyclesPerSecond:         4e9,
	}
	switch kind {
	case DirectoryFull:
		// The full protocol tolerates reordering: pair it with the
		// adaptive network by default.
		cfg.Net = network.AdaptiveConfig(w, h, 0.8)
	case DirectorySpec:
		cfg.Net = network.AdaptiveConfig(w, h, 0.8)
		cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		cfg.derivedTimeout = cfg.TimeoutCycles
	default:
		// Snooping: the data network is an ordered-agnostic torus.
		cfg.Net = network.SafeStaticConfig(w, h, 0.8)
		cfg.Bus = snoop.ScaledBusConfig(w, h)
	}
	return cfg
}

// protocol is the system's view of the active coherence protocol, which
// *directory.Protocol and *snoop.Protocol both satisfy.
type protocol interface {
	InFlight() int
	AuditInvariants() error
	ResetTransients()
	TimeoutScan() (coherence.NodeID, bool)
	NoteTimeout()
	Counters() *mem.Counters
}

// System is a built machine bound to a kernel.
type System struct {
	Cfg   Config
	K     *sim.Kernel
	Net   *network.Network
	Dir   *directory.Protocol // nil for snooping systems
	Snoop *snoop.Protocol     // nil for directory systems
	Bus   *snoop.Bus          // nil for directory systems
	Pool  *processor.Pool
	Mgr   *safetynet.Manager
	Coord *core.Coordinator

	// proto is Dir or Snoop, whichever the machine runs.
	proto protocol

	// OnCheckpoint, when non-nil, runs immediately after every
	// checkpoint is taken — a point where the system is quiesced (no
	// in-flight transactions), which is exactly what invariant audits
	// require. The cross-protocol stress suite hooks it to call
	// AuditInvariants at every checkpoint. In sharded systems it runs
	// from window-edge control context with every shard quiesced.
	OnCheckpoint func()

	// ctl schedules all global control — checkpoint attempts and their
	// drain and stall polls, the watchdog, fault injection, policy
	// timers: the kernel on the classic engine, the shard group's
	// window-edge control on the tile engine. repoll is the drain and
	// log-stall re-poll delay: 20 cycles on the classic engine, the
	// next window edge (1) on the tile engine.
	ctl    sim.Scheduler
	repoll sim.Time

	// sh is the tile engine's runtime (nil on the classic engine). See
	// shard.go.
	sh *shardRuntime

	checkpointing   bool
	startedAt       sim.Time
	checkpointStall stats.Counter

	// Checkpoint cadence state: ckptInterval is the controller's current
	// interval (fixed at Cfg.CheckpointInterval unless
	// AdaptiveCheckpoint); ckptTimer is a generation token that lets a
	// pressure-forced early checkpoint cancel the pending periodic
	// attempt, so the cadence never forks into two chains. occAtCkpt is
	// the max per-node log occupancy sampled just before the last
	// checkpoint was taken — the epoch's peak, with the pool drained.
	// TakeCheckpointWindow commits (frees) entries, so sampling any later
	// would read the post-commit trough and the controller would relax
	// straight into pressure.
	ckptInterval sim.Time
	ckptTimer    uint64
	occAtCkpt    int

	// Log-stall accounting (the overflow backpressure fix): logStalled
	// feeds the cadence controller; inLogStall/stallBegan let Results
	// charge a stall still in progress at snapshot time.
	logStalled     bool
	inLogStall     bool
	stallBegan     sim.Time
	logStallCycles uint64

	// Degraded-mode accounting: outageCycles is time fully parked
	// between fault detection and recovery resume; degradedCycles is the
	// union of recovery-plus-slow-start windows (degradedUntil marks the
	// current window's end). All exact integers, updated only from the
	// recovery path (control context).
	outageCycles   uint64
	degradedCycles uint64
	degradedUntil  sim.Time
}

// Shards reports the effective intra-run shard count (1 for the
// classic serial path).
func (s *System) Shards() int {
	if s.sh == nil {
		return 1
	}
	return s.sh.grp.N()
}

// AuditInvariants verifies the active protocol's global coherence
// invariants (single writer, version agreement, memory currency). The
// system must be quiescent — call it from OnCheckpoint, or after a
// drained run.
func (s *System) AuditInvariants() error { return s.proto.AuditInvariants() }

// MaxSnoopNodes caps snooping systems on a flat bus: every ordered
// request is broadcast to every node, so past this size the model
// measures address-network serialization rather than protocol behavior.
// The segmented address network (snoop.BusConfig with segments, as
// ScaledBusConfig builds past 64 nodes) stretches the credible range to
// MaxSegmentedSnoopNodes: local segment arbiters absorb the request
// traffic and only segment winners cross the ordered hub ring. Beyond
// that even a segmented broadcast saturates — every ordered request
// still reaches every node — and only the directory kinds scale further
// (sharer-set formats permitting).
const (
	MaxSnoopNodes          = 64
	MaxSegmentedSnoopNodes = 256
)

// ValidateConfig reports whether cfg describes a buildable machine:
// network geometry, node-count agreement, the directory sharer-set
// format's node ceiling, the snooping size cap, and the cache geometry.
// It runs before any construction, so an oversize machine is an error
// the caller can report (e.g. per sweep design point), not a panic
// mid-build.
func ValidateConfig(cfg Config) error {
	cfg = normalizeConfig(cfg)
	if err := cfg.Workload.Validate(); err != nil {
		return err
	}
	if err := cfg.Net.Validate(); err != nil {
		return err
	}
	if cfg.Nodes != cfg.Net.NumNodes() {
		return fmt.Errorf("system: %d nodes vs %d network endpoints", cfg.Nodes, cfg.Net.NumNodes())
	}
	if err := validateShards(cfg); err != nil {
		return err
	}
	if err := validateFaults(cfg); err != nil {
		return err
	}
	if cfg.Kind.IsDirectory() {
		if cfg.CheckpointInterval == 0 {
			return fmt.Errorf("system: CheckpointInterval must be positive for %s (directory kinds checkpoint every CheckpointInterval cycles; 0 would re-checkpoint at the same cycle forever)", cfg.Kind)
		}
		if cfg.TimeoutCycles > 0 && cfg.TimeoutCycles < cfg.CheckpointInterval {
			return fmt.Errorf("system: TimeoutCycles %d is shorter than CheckpointInterval %d — the watchdog would declare deadlock inside one normal checkpoint epoch; use a multiple of the interval (DefaultConfig derives 3×) or 0 to disarm", cfg.TimeoutCycles, cfg.CheckpointInterval)
		}
		dcfg := directoryConfigFor(cfg)
		if err := validateCaches(dcfg.CacheConfig); err != nil {
			return err
		}
		return dcfg.Validate()
	}
	if cfg.Nodes > MaxSegmentedSnoopNodes {
		return fmt.Errorf("system: snooping systems cap at %d nodes even on the segmented address network (every ordered request still reaches every node); %d nodes needs a directory kind", MaxSegmentedSnoopNodes, cfg.Nodes)
	}
	if cfg.Nodes > MaxSnoopNodes {
		if !cfg.Bus.Segmented() {
			return fmt.Errorf("system: a flat snooping bus caps at %d nodes; %d nodes needs the segmented address network (snoop.ScaledBusConfig) or a directory kind", MaxSnoopNodes, cfg.Nodes)
		}
		if err := cfg.Bus.Validate(); err != nil {
			return err
		}
	}
	return validateCaches(snoopConfigFor(cfg).CacheConfig)
}

// validateCaches reports an L1 or L2 geometry that cache.New would
// refuse, naming the level.
func validateCaches(c mem.CacheConfig) error {
	if _, err := cache.Geometry(c.L1Bytes, c.L1Ways); err != nil {
		return fmt.Errorf("system: L1 %w", err)
	}
	if _, err := cache.Geometry(c.L2Bytes, c.L2Ways); err != nil {
		return fmt.Errorf("system: L2 %w", err)
	}
	return nil
}

// normalizeConfig re-derives defaults that DefaultConfig coupled to
// CheckpointInterval. DefaultConfigSized sets TimeoutCycles to three
// checkpoint intervals for DirectorySpec and records the derivation in
// derivedTimeout; a caller that then overrides CheckpointInterval
// without touching TimeoutCycles used to keep the stale 3×old-interval
// timeout silently. Both ValidateConfig and BuildChecked run this, so
// the timeout follows the interval unless explicitly overridden.
func normalizeConfig(cfg Config) Config {
	if cfg.derivedTimeout != 0 && cfg.TimeoutCycles == cfg.derivedTimeout {
		cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		cfg.derivedTimeout = cfg.TimeoutCycles
	}
	if cfg.Shards == 0 && cfg.ShardRows > 0 && cfg.ShardCols > 0 {
		cfg.Shards = cfg.ShardRows * cfg.ShardCols
	}
	return cfg
}

// validateFaults checks the sustained-fault and adaptive-cadence
// settings (faults.go) before construction.
func validateFaults(cfg Config) error {
	if cfg.FaultRegime > FaultRepeat {
		return fmt.Errorf("system: unknown FaultRegime %d", cfg.FaultRegime)
	}
	if cfg.FaultRegime != FaultNone {
		if cfg.FaultRate <= 0 {
			return fmt.Errorf("system: FaultRegime %s requires FaultRate > 0 (faults per second)", cfg.FaultRegime)
		}
		if cfg.CyclesPerSecond <= 0 {
			return fmt.Errorf("system: FaultRegime %s requires CyclesPerSecond > 0 to map FaultRate onto cycles", cfg.FaultRegime)
		}
	}
	if cfg.AdaptiveCheckpoint && !cfg.Kind.IsDirectory() {
		return fmt.Errorf("system: AdaptiveCheckpoint requires a directory kind (%s checkpoints on a request-count cadence, not a cycle interval)", cfg.Kind)
	}
	return nil
}

// validateShards checks the intra-run sharding request (Config.Shards,
// optionally pinned by ShardRows×ShardCols) against the machine: tile
// grid versus torus geometry, protocol kind, and the network features
// sharding can support. Run after normalizeConfig, which derives Shards
// from an explicit grid.
func validateShards(cfg Config) error {
	w, h := cfg.Net.Width, cfg.Net.Height
	switch {
	case cfg.Shards < 0:
		return fmt.Errorf("system: Shards must be non-negative, got %d", cfg.Shards)
	case (cfg.ShardRows > 0) != (cfg.ShardCols > 0) || cfg.ShardRows < 0 || cfg.ShardCols < 0:
		return fmt.Errorf("system: ShardRows and ShardCols must be set together as a positive R×C grid, got %dx%d", cfg.ShardRows, cfg.ShardCols)
	case cfg.ShardRows > 0 && cfg.ShardRows*cfg.ShardCols != cfg.Shards:
		return fmt.Errorf("system: explicit %dx%d tile grid is %d tiles but Shards is %d", cfg.ShardRows, cfg.ShardCols, cfg.ShardRows*cfg.ShardCols, cfg.Shards)
	case cfg.Shards <= 1 && !cfg.Kind.IsDirectory():
		return nil // 0 and 1 are the classic serial path for snooping kinds
	case cfg.Shards == 0:
		return nil
	case !cfg.Kind.IsDirectory():
		return fmt.Errorf("system: %d intra-run shards requested but %s simulates serially: the snooping bus is a single globally ordered resource (use -shards 1, or a directory kind)", cfg.Shards, cfg.Kind)
	case cfg.ShardRows > 0 && (h%cfg.ShardRows != 0 || w%cfg.ShardCols != 0):
		return fmt.Errorf("system: a %dx%d tile grid does not divide the %dx%d torus (rows must divide the height %d, columns the width %d); %s", cfg.ShardRows, cfg.ShardCols, w, h, h, w, tileGridHint(w, h, cfg.Shards))
	case cfg.Net.BufferSize != 0 || cfg.Net.EndpointBufferSize != 0:
		return fmt.Errorf("system: intra-run sharding requires unlimited network buffering (zero-latency credit returns have no conservative lookahead); this network has BufferSize=%d EndpointBufferSize=%d", cfg.Net.BufferSize, cfg.Net.EndpointBufferSize)
	}
	if cfg.ShardRows == 0 {
		if _, _, ok := TileGrid(w, h, cfg.Shards); !ok {
			return fmt.Errorf("system: %d shards admit no R×C tile grid on the %dx%d torus (rows must divide the height %d, columns the width %d); %s", cfg.Shards, w, h, h, w, tileGridHint(w, h, cfg.Shards))
		}
	}
	return nil
}

// tileGridHint renders the legal tile factorizations near a requested
// count for an error message: the grids of the requested count if any
// exist, otherwise the legal counts (with their grids) around it.
func tileGridHint(w, h, shards int) string {
	if opts := tileOptions(w, h, shards); len(opts) > 0 {
		return fmt.Sprintf("legal %d-tile grids: %s", shards, strings.Join(opts, " "))
	}
	var counts []string
	for n := 1; n <= w*h && len(counts) < 8; n++ {
		if opts := tileOptions(w, h, n); len(opts) > 0 {
			counts = append(counts, fmt.Sprintf("%d (%s)", n, strings.Join(opts, " ")))
		}
	}
	return "legal tile counts: " + strings.Join(counts, ", ") + ", …"
}

// tileOptions lists every R×C factorization of `shards` tiles that
// divides a w×h torus, as "RxC" strings in ascending row order.
func tileOptions(w, h, shards int) []string {
	var opts []string
	for r := 1; r <= shards; r++ {
		if shards%r != 0 || h%r != 0 {
			continue
		}
		if c := shards / r; w%c == 0 {
			opts = append(opts, fmt.Sprintf("%dx%d", r, c))
		}
	}
	return opts
}

// directoryConfigFor derives the directory protocol configuration for a
// directory-kind system config (shared by ValidateConfig and Build).
func directoryConfigFor(cfg Config) directory.Config {
	v := directory.Full
	if cfg.Kind == DirectorySpec {
		v = directory.Spec
	}
	dcfg := directory.DefaultConfig(cfg.Nodes, v)
	dcfg.Sharers = cfg.Sharers
	dcfg.TimeoutCycles = cfg.TimeoutCycles
	overrideCaches(&dcfg.CacheConfig, cfg)
	return dcfg
}

// snoopConfigFor derives the snooping protocol configuration for a
// snooping-kind system config (shared by ValidateConfig and Build).
func snoopConfigFor(cfg Config) snoop.Config {
	v := snoop.Full
	if cfg.Kind == SnoopSpec {
		v = snoop.Spec
	}
	scfg := snoop.DefaultConfig(cfg.Nodes, v)
	scfg.TimeoutCycles = cfg.TimeoutCycles
	overrideCaches(&scfg.CacheConfig, cfg)
	return scfg
}

// Build constructs the system. It panics on invalid configuration;
// BuildChecked returns the error instead.
func Build(cfg Config) *System {
	s, err := BuildChecked(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// BuildChecked constructs the system, reporting configuration problems
// (oversize machines, bad geometry) as errors before any kernel or
// network is built.
func BuildChecked(cfg Config) (*System, error) {
	cfg = normalizeConfig(cfg)
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, repoll: 20}
	var net *network.Network
	var err error
	if cfg.Shards >= 1 && cfg.Kind.IsDirectory() {
		// Conservative-window parallel intra-run engine (shard.go). One
		// tile still uses the windowed engine — that is what makes
		// results bit-identical across every -shards value. The machine
		// is the classic one with its components re-homed onto tiles.
		s.sh = newShardRuntime(cfg)
		s.K, s.ctl, s.repoll = s.sh.grp.Kernel(0), s.sh.grp, 1
		net, err = network.NewOnShards(s.sh.grp, cfg.Net, s.sh.shardOf)
	} else {
		s.K = sim.NewKernel()
		s.ctl = s.K
		net, err = network.NewChecked(s.K, cfg.Net)
	}
	if err != nil {
		return nil, err
	}
	k := s.K
	if cfg.ReorderInjectProb > 0 {
		net.PerturbFn = reorderInjector(cfg, s.sh != nil)
	}
	sn := safetynet.DefaultConfig(cfg.Nodes, cfg.CheckpointInterval)
	applyLogBytes(&sn, cfg)
	mgr := safetynet.NewManager(k, sn)
	coord := core.NewCoordinator(k, mgr)
	s.Net, s.Mgr, s.Coord = net, mgr, coord

	var access processor.AccessFunc
	misSpeculate := func(_ coherence.NodeID, reason string) { coord.TriggerMisSpeculation(reason) }
	switch {
	case cfg.Kind.IsDirectory():
		dir, err := directory.NewChecked(k, net, directoryConfigFor(cfg), mgr)
		if err != nil {
			return nil, err
		}
		s.Dir, s.proto = dir, dir
		if s.sh != nil {
			dir.PartitionOnShards(s.sh.grp, s.sh.shardOf)
			misSpeculate = s.deferMisSpeculation
		}
		dir.OnMisSpeculation = misSpeculate
		access = dir.Access
	default:
		s.Bus = snoop.NewBus(k, cfg.Bus)
		s.Snoop = snoop.New(k, s.Bus, net, snoopConfigFor(cfg), mgr)
		s.proto = s.Snoop
		s.Snoop.OnMisSpeculation = misSpeculate
		access = s.Snoop.Access
	}

	gens := make([]workload.Generator, cfg.Nodes)
	for i := range gens {
		gens[i] = workload.New(cfg.Workload, i, cfg.Nodes, cfg.Seed)
		if cfg.Recorder != nil {
			gens[i] = cfg.Recorder.Wrap(i, gens[i])
		}
	}
	s.Pool = processor.NewPool(k, cfg.Nodes, access, gens)
	if s.sh != nil {
		s.Pool.PartitionOnShards(s.sh.grp, s.sh.shardOf)
	}

	// Recovery wiring (framework features 3 and 4).
	coord.ResetFn = func() {
		net.Reset()
		s.proto.ResetTransients()
		if s.Bus != nil {
			s.Bus.Reset()
		}
	}
	coord.RestoreFn = func(snapshot interface{}) {
		s.Pool.RestoreAll(snapshot.([]processor.Snapshot))
	}
	coord.ResumeFn = func(at sim.Time) {
		s.noteRecoveryOutage(at)
		s.Pool.Resume(at)
	}
	// Policy timers toggle machine-wide state, so they run as control.
	if cfg.Net.Routing == network.Adaptive {
		coord.AddPolicy(&core.DisableAdaptiveRouting{K: s.ctl, Net: net, ReenableAfter: cfg.AdaptiveDisableWindow})
	}
	ssLimit := cfg.SlowStartLimit
	if ssLimit <= 0 {
		ssLimit = 1
	}
	coord.AddPolicy(&core.SlowStart{K: s.ctl, Limiter: s.Pool, Limit: ssLimit, Normal: 0, Window: cfg.SlowStartWindow})
	coord.PolicyExempt = func(reason string) bool { return reason == "injected" }

	// Log backpressure: force an early checkpoint as soon as any node's
	// log fills. The classic engine reacts to Manager.OnPressure. Tiles
	// write the pressure flags mid-window (never reading them there), so
	// the tile engine polls them at every edge instead, after committing
	// the window's deferred detections; the edge also grants slow-start
	// tokens to cores waiting on the outstanding limit.
	if s.sh != nil {
		s.sh.grp.PreControl = func(sim.Time) {
			s.commitDeferredRecoveries()
			s.forceCheckpoint()
		}
		s.sh.grp.PostControl = func(sim.Time) { s.Pool.GrantWaiting() }
	} else {
		mgr.OnPressure = func() { s.ctl.After(1, s.forceCheckpoint) }
	}
	return s, nil
}

// reorderInjector builds the PerturbFn behind ReorderInjectProb: each
// ForwardedRequest-class message is held at its source with the
// configured probability. The classic engine draws from one shared
// stream; the tile engine gives every source node its own stream, since
// a shared stream's draw order would depend on cross-tile execution
// order. Node 0's stream is the shared stream's seed.
func reorderInjector(cfg Config, perNode bool) func(*network.Message) sim.Time {
	streams := 1
	if perNode {
		streams = cfg.Nodes
	}
	rngs := make([]*sim.RNG, streams)
	for i := range rngs {
		rngs[i] = sim.NewRNG(cfg.Seed ^ 0xfa17 ^ uint64(i)*0x9e3779b97f4a7c15)
	}
	delay := cfg.ReorderInjectDelay
	if delay == 0 {
		delay = 2_000
	}
	return func(m *network.Message) sim.Time {
		if m.VNet == coherence.VNetForward && rngs[int(m.Src)%streams].Bool(cfg.ReorderInjectProb) {
			return delay
		}
		return 0
	}
}

// Start takes the initial checkpoint, starts the processors, the
// checkpoint cadence, the watchdog, and (if configured) the fault
// injectors — in that order, which is the order their same-cycle events
// fire in. Call once.
func (s *System) Start() {
	s.startedAt = s.ctl.Now()
	s.ckptInterval = s.Cfg.CheckpointInterval
	s.Mgr.TakeCheckpoint(s.Pool.SnapshotAll())
	if s.OnCheckpoint != nil {
		s.OnCheckpoint()
	}
	s.Pool.Start()

	if s.Cfg.Kind.IsDirectory() {
		s.scheduleCheckpoint(s.Cfg.CheckpointInterval)
	} else {
		every := s.Cfg.SnoopCheckpointRequests
		if every == 0 {
			every = 3000
		}
		s.Bus.OnOrder = func(seq uint64) {
			if seq > 0 && seq%every == 0 {
				s.attemptCheckpoint()
			}
		}
	}
	s.startWatchdog()
	s.startFaults()
}

// startWatchdog arms the §4 transaction-timeout deadlock detector: every
// quarter checkpoint interval (at least one cycle) it scans the active
// protocol's transactions and recovers if any has been outstanding
// longer than TimeoutCycles. A no-op if TimeoutCycles is zero. The scan
// reads every node's TBEs, which is why it runs as control.
func (s *System) startWatchdog() {
	if s.Cfg.TimeoutCycles == 0 {
		return
	}
	period := s.Cfg.CheckpointInterval / 4
	if period < 1 {
		period = 1
	}
	var tick func()
	tick = func() {
		if _, ok := s.proto.TimeoutScan(); ok {
			s.proto.NoteTimeout()
			s.Coord.TriggerMisSpeculation("deadlock-timeout")
		}
		s.ctl.After(period, tick)
	}
	s.ctl.After(period, tick)
}

// attemptCheckpoint drains in-flight transactions and takes a SafetyNet
// checkpoint (a consistent cut by construction — see safetynet package
// comment), then schedules the next one. The drain is re-polled every
// repoll cycles. If the logs are still at capacity after the checkpoint,
// the pool stays paused until validation frees space (stallForLogSpace —
// the overflow backpressure fix).
func (s *System) attemptCheckpoint() {
	if s.checkpointing {
		return
	}
	s.checkpointing = true
	began := s.ctl.Now()
	var poll func()
	poll = func() {
		if s.Coord.InRecovery() {
			s.ctl.At(s.Coord.ResumeAt()+1, poll)
			return
		}
		s.Pool.Pause()
		if s.inFlight() == 0 {
			s.occAtCkpt = s.Mgr.MaxOccupancyEntries()
			s.Mgr.TakeCheckpointWindow(s.Pool.SnapshotAll(), s.validationWindow())
			if s.OnCheckpoint != nil {
				s.OnCheckpoint()
			}
			s.checkpointStall.Add(uint64(s.ctl.Now() - began))
			if s.Mgr.PressureSignal() {
				s.stallForLogSpace()
				return
			}
			s.finishCheckpoint()
			return
		}
		s.ctl.After(s.repoll, poll)
	}
	poll()
}

// finishCheckpoint resumes execution after a checkpoint (and any log
// stall) and schedules the next periodic attempt through the cadence
// controller.
func (s *System) finishCheckpoint() {
	lat := s.Mgr.Config().RegCkptLatency
	s.Pool.Resume(s.ctl.Now() + lat)
	s.checkpointing = false
	if s.Cfg.Kind.IsDirectory() {
		s.scheduleCheckpoint(s.nextCheckpointDelay())
	}
}

// scheduleCheckpoint arms the next periodic checkpoint attempt d cycles
// out. The generation token lets forceCheckpoint cancel a pending
// attempt when log pressure forces an early one — each completion then
// schedules exactly one successor, so the cadence never forks into two
// concurrent chains.
func (s *System) scheduleCheckpoint(d sim.Time) {
	s.ckptTimer++
	gen := s.ckptTimer
	s.ctl.After(d, func() {
		if gen == s.ckptTimer {
			s.attemptCheckpoint()
		}
	})
}

// forceCheckpoint starts an immediate checkpoint attempt in response to
// log pressure: the new checkpoint opens an epoch whose validation will
// free the over-capacity entries, and the attempt holds the pool paused
// until it does. The classic engine reaches here via Manager.OnPressure;
// the tile engine from its window-edge PreControl poll.
func (s *System) forceCheckpoint() {
	if s.checkpointing || !s.Mgr.PressureSignal() {
		return
	}
	s.ckptTimer++ // cancel the pending periodic attempt
	s.attemptCheckpoint()
}

// stallForLogSpace holds the pool paused after a checkpoint whose logs
// are still at capacity, committing as validation windows expire (re-
// polled every repoll cycles). If a full validation window passes
// without relief — a recovery discarded the forced checkpoint, or one
// epoch's working set alone exceeds LogBytes — it restarts the attempt:
// the system then visibly thrashes (checkpoint, stall, repeat) instead
// of deadlocking or, as before the fix, logging past its budget for
// free.
func (s *System) stallForLogSpace() {
	began := s.ctl.Now()
	s.logStalled = true
	s.inLogStall = true
	s.stallBegan = began
	deadline := began + s.validationWindow()
	var wait func()
	wait = func() {
		if s.Coord.InRecovery() {
			s.ctl.At(s.Coord.ResumeAt()+1, wait)
			return
		}
		s.Pool.Pause()
		s.Mgr.CommitNow()
		pressured := s.Mgr.PressureSignal()
		if pressured && s.ctl.Now() < deadline {
			s.ctl.After(s.repoll, wait)
			return
		}
		s.logStallCycles += uint64(s.ctl.Now() - began)
		s.inLogStall = false
		if pressured {
			s.checkpointing = false
			s.attemptCheckpoint()
			return
		}
		s.finishCheckpoint()
	}
	wait()
}

// nextCheckpointDelay applies the closed-loop cadence controller: halve
// the interval when the last epoch saw a log stall or occupancy at or
// above 5/8 of capacity, relax by a quarter when occupancy sits below
// 1/8, clamp to [base/8, base]. The configured interval is the ceiling,
// not the midpoint: base is the design point chosen for rollback-
// distance bounds, and the controller's mandate is shedding log
// pressure by tightening below it — relaxing past base would trade
// unbounded rollback distance for log headroom the budget already has.
// Pure integer arithmetic — the controller's trajectory is part of the
// bit-identical determinism contract.
func (s *System) nextCheckpointDelay() sim.Time {
	base := s.Cfg.CheckpointInterval
	if !s.Cfg.AdaptiveCheckpoint {
		return base
	}
	cur := s.ckptInterval
	capE := s.Mgr.CapacityEntries()
	occ := s.occAtCkpt
	pressured := s.logStalled || (capE > 0 && occ*8 >= capE*5)
	s.logStalled = false
	switch {
	case pressured:
		cur /= 2
	case capE == 0 || occ*8 < capE:
		cur += cur / 4
	}
	if min := base / 8; cur < min {
		cur = min
	}
	if cur > base {
		cur = base
	}
	if cur < 1 {
		cur = 1
	}
	s.ckptInterval = cur
	return cur
}

// validationWindow is the window for the next checkpoint: three base
// intervals normally (Table 2's detection-latency bound), three
// *current* intervals under the adaptive controller — shrinking the
// window with the cadence is what lets a tightened cadence free log
// space sooner.
func (s *System) validationWindow() sim.Time {
	if s.Cfg.AdaptiveCheckpoint {
		return 3 * s.ckptInterval
	}
	return s.Mgr.Config().ValidationWindow
}

// noteRecoveryOutage does the degraded-mode bookkeeping for one
// recovery, called from the coordinator's resume hook: the machine is
// fully parked until resumeAt (outage) and runs throttled until
// resumeAt + SlowStartWindow (degraded). Overlapping windows merge so
// repeated faults never double-count a cycle.
func (s *System) noteRecoveryOutage(resumeAt sim.Time) {
	now := s.K.Now()
	if resumeAt > now {
		s.outageCycles += uint64(resumeAt - now)
	}
	until := resumeAt + s.Cfg.SlowStartWindow
	from := now
	if s.degradedUntil > from {
		from = s.degradedUntil
	}
	if until > from {
		s.degradedCycles += uint64(until - from)
	}
	if until > s.degradedUntil {
		s.degradedUntil = until
	}
	s.Pool.MarkDegradedUntil(until)
}

// applyLogBytes applies Config.LogBytes to a SafetyNet config: positive
// overrides the Table 2 capacity, negative removes the bound.
func applyLogBytes(sn *safetynet.Config, cfg Config) {
	if cfg.LogBytes > 0 {
		sn.LogBytes = cfg.LogBytes
	} else if cfg.LogBytes < 0 {
		sn.LogBytes = 0
	}
}

func (s *System) inFlight() int {
	return s.Net.InFlight() + s.proto.InFlight()
}

// Run executes the system for the given number of cycles (after Start)
// and returns the results.
func (s *System) Run(cycles sim.Time) Results {
	until := s.ctl.Now() + cycles
	if s.sh != nil {
		s.sh.grp.Run(until)
	} else {
		s.K.Run(until)
	}
	return s.Results()
}

// Results summarizes a run.
type Results struct {
	Kind         Kind
	Workload     string
	Cycles       uint64
	Instructions uint64
	// Perf is aggregate instructions per cycle — the normalized
	// performance metric of Figures 4 and 5.
	Perf float64

	Recoveries      uint64
	RecoveryReasons map[string]uint64
	Checkpoints     uint64
	CheckpointStall uint64
	MeanLostWork    float64

	ReorderRatePerVNet []float64
	TotalReorderRate   float64
	Deflections        uint64
	MeanLinkUtil       float64
	MissLatencyMean    float64
	Transactions       uint64
	Writebacks         uint64
	WBRaces            uint64
	Invalidations      uint64
	InvBroadcasts      uint64
	SharerOverflows    uint64
	OrderViolations    uint64
	CornerDetected     uint64
	CornerHandled      uint64
	Timeouts           uint64
	LimitStalls        uint64
	LogHighWaterBytes  int

	// Availability metrics: exact integers only, so every column merges
	// bit-identically at any shard count. OutageCycles is time fully
	// parked between fault detection and resume; DegradedCycles the
	// union of recovery-plus-slow-start windows; DegradedInstructions
	// the instructions retired inside those windows (throughput while
	// the machine is nominally "up" but degraded). LogStallCycles is
	// time the log-overflow backpressure held the machine; LogOverflows
	// counts appends past LogBytes. CheckpointIntervalFinal is the
	// cadence controller's final interval (== the configured interval
	// without AdaptiveCheckpoint).
	OutageCycles            uint64
	DegradedCycles          uint64
	DegradedInstructions    uint64
	LogStallCycles          uint64
	LogOverflows            uint64
	CheckpointIntervalFinal uint64
	RecoveryLatency         stats.IntSummary
	RollbackDist            stats.IntSummary
}

// Results snapshots the current measurements.
func (s *System) Results() Results {
	now := s.K.Now()
	elapsed := uint64(now - s.startedAt)
	instr := s.Pool.Instructions()
	// One stats snapshot serves every read below: on a sharded network
	// each Stats() call merges the per-shard counters afresh.
	netSt := s.Net.Stats()
	r := Results{
		Kind:             s.Cfg.Kind,
		Workload:         s.Cfg.Workload.Name,
		Cycles:           elapsed,
		Instructions:     instr,
		Recoveries:       s.Coord.Recoveries(),
		RecoveryReasons:  map[string]uint64{},
		Checkpoints:      s.Mgr.Checkpoints(),
		CheckpointStall:  s.checkpointStall.Value(),
		MeanLostWork:     s.Coord.MeanLostWork(),
		MeanLinkUtil:     netSt.MeanLinkUtilization(now),
		TotalReorderRate: netSt.TotalReorderRate(),
		Deflections:      netSt.Deflections.Value(),
		LimitStalls:      s.Pool.LimitStalls(),

		DegradedInstructions:    s.Pool.DegradedInstructions(),
		LogOverflows:            s.Mgr.Overflows(),
		CheckpointIntervalFinal: uint64(s.ckptInterval),
		RecoveryLatency:         s.Coord.RecoveryLatencyDist(),
		RollbackDist:            s.Coord.RollbackDist(),
	}
	// Clamp the in-progress tails so a snapshot mid-outage, mid-degraded-
	// window or mid-log-stall charges only elapsed cycles.
	r.OutageCycles = s.outageCycles
	if ra := s.Coord.ResumeAt(); ra > now {
		r.OutageCycles -= uint64(ra - now)
	}
	r.DegradedCycles = s.degradedCycles
	if s.degradedUntil > now {
		r.DegradedCycles -= uint64(s.degradedUntil - now)
	}
	r.LogStallCycles = s.logStallCycles
	if s.inLogStall && now > s.stallBegan {
		r.LogStallCycles += uint64(now - s.stallBegan)
	}
	if elapsed > 0 {
		r.Perf = float64(instr) / float64(elapsed)
	}
	for _, reason := range s.Coord.Reasons() {
		r.RecoveryReasons[reason] = s.Coord.RecoveriesFor(reason)
	}
	for v := 0; v < s.Cfg.Net.VNets; v++ {
		r.ReorderRatePerVNet = append(r.ReorderRatePerVNet, netSt.ReorderRate(v))
	}
	for i := 0; i < s.Cfg.Nodes; i++ {
		if hw := s.Mgr.OccupancyHighWaterBytes(i); hw > r.LogHighWaterBytes {
			r.LogHighWaterBytes = hw
		}
	}
	c := s.proto.Counters()
	r.MissLatencyMean = c.MissLatency.Mean()
	r.Transactions = c.Transactions.Value()
	r.Writebacks = c.Writebacks.Value()
	r.Timeouts = c.TimeoutsDetected.Value()
	if s.Dir != nil {
		ds := s.Dir.Stats()
		r.WBRaces = ds.WBRaces.Value()
		r.Invalidations = ds.Invalidations.Value()
		r.InvBroadcasts = ds.InvBroadcasts.Value()
		r.SharerOverflows = ds.SharerOverflows.Value()
		r.OrderViolations = ds.OrderViolations.Value()
	}
	if s.Snoop != nil {
		ss := s.Snoop.Stats()
		r.CornerDetected = ss.CornerDetected.Value()
		r.CornerHandled = ss.CornerHandled.Value()
	}
	return r
}

// RunOne builds, starts and runs a system for the given cycles.
func RunOne(cfg Config, cycles sim.Time) Results {
	s := Build(cfg)
	s.Start()
	return s.Run(cycles)
}

// RunOneChecked is RunOne with configuration errors returned instead of
// panicking — the sweep engine reports them per design point so one
// illegal machine does not kill a whole grid.
func RunOneChecked(cfg Config, cycles sim.Time) (Results, error) {
	s, err := BuildChecked(cfg)
	if err != nil {
		return Results{}, err
	}
	s.Start()
	return s.Run(cycles), nil
}

// overrideCaches applies cfg's nonzero cache geometry overrides to c.
func overrideCaches(c *mem.CacheConfig, cfg Config) {
	if cfg.L1Bytes > 0 {
		c.L1Bytes = cfg.L1Bytes
	}
	if cfg.L1Ways > 0 {
		c.L1Ways = cfg.L1Ways
	}
	if cfg.L2Bytes > 0 {
		c.L2Bytes = cfg.L2Bytes
	}
	if cfg.L2Ways > 0 {
		c.L2Ways = cfg.L2Ways
	}
}

// Table2 renders the target system parameters (paper Table 2).
func Table2(cfg Config) string {
	t := stats.NewTable("Parameter", "Value")
	t.AddRow("Nodes", fmt.Sprintf("%d (one processor, two cache levels, memory+directory slice, NI each)", cfg.Nodes))
	t.AddRow("L1 Cache (I and D)", "128 KB, 4-way set associative")
	t.AddRow("L2 Cache", "4 MB, 4-way set-associative")
	t.AddRow("Memory", "2 GB total, 64-byte blocks (modeled as versioned blocks)")
	t.AddRow("Miss From Memory", "~180 ns uncontended 2-hop (120-cycle DRAM + network)")
	t.AddRow("Interconnect", fmt.Sprintf("%dx%d torus, %s routing, %.2f B/cycle links",
		cfg.Net.Width, cfg.Net.Height, cfg.Net.Routing, cfg.Net.LinkBandwidth))
	if cfg.Kind.IsDirectory() {
		t.AddRow("Directory Sharer Set", directoryConfigFor(cfg).DescribeSharers())
	}
	t.AddRow("Checkpoint Log Buffer", "512 KB/node, 72-byte entries")
	t.AddRow("Checkpoint Interval", fmt.Sprintf("%d cycles (directory), %d requests (snooping)",
		cfg.CheckpointInterval, cfg.SnoopCheckpointRequests))
	t.AddRow("Register Checkpoint Latency", "100 cycles")
	return t.String()
}
