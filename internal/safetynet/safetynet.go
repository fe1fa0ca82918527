// Package safetynet models the SafetyNet global checkpoint/recovery
// mechanism (Sorin et al., ISCA 2002) that all three speculative designs
// in the paper rely on for feature (3), Recovery.
//
// SafetyNet periodically checkpoints the shared-memory system and
// incrementally logs old values of cache, memory and directory state so
// the system can be rolled back to a prior checkpoint. A checkpoint
// becomes *validated* (committable) once the validation window — the
// mis-speculation detection latency bound, three checkpoint intervals in
// the paper (§4 footnote 4) — has passed with no recovery. Recovery
// rewinds to the newest validated checkpoint by applying the logged old
// values in reverse.
//
// The reproduction takes checkpoints at system-quiesced points (the
// system drains in-flight transactions first), so a checkpoint is a
// consistent cut by construction; the real SafetyNet achieves the same
// consistency with logical-time coordination instead of draining. The
// substitution slightly overstates checkpoint overhead and is recorded
// in DESIGN.md.
package safetynet

import (
	"fmt"

	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Config sizes the mechanism (paper Table 2).
type Config struct {
	// Nodes is the number of checkpointing nodes.
	Nodes int
	// LogBytes is the per-node checkpoint log buffer capacity
	// (Table 2: 512 KB total per node).
	LogBytes int
	// EntryBytes is the size of one log entry (Table 2: 72 bytes —
	// a 64-byte block plus address/state metadata).
	EntryBytes int
	// RegCkptLatency is the processor-visible stall per checkpoint
	// (Table 2: 100 cycles).
	RegCkptLatency sim.Time
	// ValidationWindow is how long a checkpoint must age before it can
	// commit; equals the mis-speculation detection latency bound
	// (three checkpoint intervals in the paper).
	ValidationWindow sim.Time
	// RecoveryLatency is the fixed cost of a system recovery on top of
	// the lost work between the recovery point and detection.
	RecoveryLatency sim.Time
}

// DefaultConfig returns the paper's Table 2 parameters for n nodes and
// the given checkpoint interval. The recovery latency scales with the
// interval (one fifth of it — 20k cycles at the paper's 100k-cycle
// interval) so compressed-clock experiments keep proportionate costs.
func DefaultConfig(n int, interval sim.Time) Config {
	rl := interval / 5
	if rl < 100 {
		rl = 100
	}
	return Config{
		Nodes:            n,
		LogBytes:         512 * 1024,
		EntryBytes:       72,
		RegCkptLatency:   100,
		ValidationWindow: 3 * interval,
		RecoveryLatency:  rl,
	}
}

type entry struct {
	epoch uint64
	undo  func()
}

type checkpoint struct {
	epoch    uint64
	at       sim.Time
	validAt  sim.Time // when this checkpoint becomes committable
	snapshot interface{}
}

// Manager implements checkpoint creation, old-value logging, commit and
// recovery. It is driven by the system layer: the system quiesces and
// calls TakeCheckpoint on its cadence (every 100k cycles for the
// directory system, every 3000 ordered requests for snooping), and calls
// Recover when a mis-speculation is detected.
type Manager struct {
	k   *sim.Kernel
	cfg Config

	epoch uint64
	ckpts []checkpoint
	logs  [][]entry
	// seen[node] holds the keys node logged in the current epoch; an
	// epoch advance or a recovery empties it.
	seen []map[uint64]struct{}

	recoveries  stats.Counter
	checkpoints stats.Counter
	// entriesLogged and overflows are per node: logging happens on the
	// hot path from whichever shard owns the node, so the counters must
	// be single-writer (and per-node sums merge identically at any
	// shard count).
	entriesLogged []uint64
	overflows     []uint64
	occupancyHW   []int // per-node high-water mark, entries

	// capEntries is LogBytes/EntryBytes: the per-node log capacity in
	// entries. pressure[i] is set by LogOldValue (hot path, written
	// only by node i's owning shard) when node i's log reaches
	// capacity, and recomputed from actual occupancy at control points
	// (CommitNow, Recover). The system layer polls PressureSignal at
	// window edges and engages the log stall.
	capEntries int
	pressure   []bool

	// OnPressure, when non-nil, fires whenever a node's pressure flag
	// transitions from clear to set. Only the classic serial path may
	// install it (the callback runs on the logging hot path, which in
	// sharded mode executes on the node's owning shard where global
	// control is off-limits); sharded systems poll PressureSignal at
	// window edges instead.
	OnPressure func()
}

// NewManager creates a manager. TakeCheckpoint must be called once (with
// the initial system snapshot) before any logging.
func NewManager(k *sim.Kernel, cfg Config) *Manager {
	if cfg.Nodes <= 0 {
		panic("safetynet: Nodes must be positive")
	}
	if cfg.EntryBytes <= 0 {
		cfg.EntryBytes = 72
	}
	m := &Manager{k: k, cfg: cfg}
	m.logs = make([][]entry, cfg.Nodes)
	m.seen = make([]map[uint64]struct{}, cfg.Nodes)
	for i := range m.seen {
		m.seen[i] = make(map[uint64]struct{})
	}
	m.occupancyHW = make([]int, cfg.Nodes)
	m.entriesLogged = make([]uint64, cfg.Nodes)
	m.overflows = make([]uint64, cfg.Nodes)
	m.pressure = make([]bool, cfg.Nodes)
	if cfg.LogBytes > 0 {
		m.capEntries = cfg.LogBytes / cfg.EntryBytes
	}
	return m
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Epoch returns the current epoch (the number of the latest checkpoint).
func (m *Manager) Epoch() uint64 { return m.epoch }

// TakeCheckpoint records a new checkpoint with the given system snapshot
// (processor/workload architectural state; memory-system state is
// covered by the undo logs). The caller must have quiesced the system.
// It returns the new epoch number.
func (m *Manager) TakeCheckpoint(snapshot interface{}) uint64 {
	return m.TakeCheckpointWindow(snapshot, m.cfg.ValidationWindow)
}

// TakeCheckpointWindow is TakeCheckpoint with an explicit validation
// window for this checkpoint: it becomes committable once window cycles
// pass with no recovery. The adaptive-cadence controller uses it so a
// checkpoint taken under a shortened interval validates after three of
// the *current* intervals, not three of the configured base interval.
func (m *Manager) TakeCheckpointWindow(snapshot interface{}, window sim.Time) uint64 {
	if len(m.ckpts) > 0 {
		m.epoch++
		m.clearSeen()
	}
	now := m.k.Now()
	m.ckpts = append(m.ckpts, checkpoint{epoch: m.epoch, at: now, validAt: now + window, snapshot: snapshot})
	m.checkpoints.Inc()
	m.commit()
	return m.epoch
}

// commit discards checkpoints (and their log entries) older than the
// newest validated checkpoint; we can never roll back past it.
func (m *Manager) commit() {
	now := m.k.Now()
	newest := -1
	for i, c := range m.ckpts {
		if c.validAt <= now {
			newest = i
		}
	}
	if newest <= 0 {
		return
	}
	floor := m.ckpts[newest].epoch
	m.ckpts = append(m.ckpts[:0], m.ckpts[newest:]...)
	for n := range m.logs {
		keep := m.logs[n][:0]
		for _, e := range m.logs[n] {
			if e.epoch >= floor {
				keep = append(keep, e)
			}
		}
		m.logs[n] = keep
	}
	m.recomputePressure()
}

// CommitNow re-runs checkpoint commitment against the current clock
// without taking a new checkpoint. The log-stall path calls it while
// waiting for a forced checkpoint's validation window to elapse so
// over-capacity logs drain as soon as the protocol allows.
func (m *Manager) CommitNow() { m.commit() }

// LogOldValue records an undo action for the first modification of the
// state identified by key at node in the current epoch. Subsequent
// modifications of the same key in the same epoch are (correctly) not
// logged: the retained undo restores the epoch-boundary value. The key
// must uniquely identify one piece of restorable state (one cache line,
// one memory block, one directory entry).
func (m *Manager) LogOldValue(node int, key uint64, undo func()) {
	if len(m.ckpts) == 0 {
		panic("safetynet: LogOldValue before first TakeCheckpoint")
	}
	if _, ok := m.seen[node][key]; ok {
		return
	}
	m.seen[node][key] = struct{}{}
	m.logs[node] = append(m.logs[node], entry{epoch: m.epoch, undo: undo})
	m.entriesLogged[node]++
	n := len(m.logs[node])
	if n > m.occupancyHW[node] {
		m.occupancyHW[node] = n
		if m.cfg.LogBytes > 0 && n*m.cfg.EntryBytes > m.cfg.LogBytes {
			m.overflows[node]++
		}
	}
	if m.capEntries > 0 && n >= m.capEntries && !m.pressure[node] {
		// Log full: raise the node's pressure flag. The entry is still
		// accepted (recovery must be able to rewind everything the node
		// touched); the system layer reads the flag at its next control
		// point and stalls execution until validation frees space —
		// the honest cost the paper's 512 KB budget implies.
		m.pressure[node] = true
		if m.OnPressure != nil {
			m.OnPressure()
		}
	}
}

// RecoveryPoint returns the epoch and snapshot the system would recover
// to right now: the newest validated checkpoint, or the oldest retained
// one early in a run.
func (m *Manager) RecoveryPoint() (uint64, interface{}) {
	c := m.target()
	return c.epoch, c.snapshot
}

func (m *Manager) target() checkpoint {
	if len(m.ckpts) == 0 {
		panic("safetynet: no checkpoint to recover to")
	}
	now := m.k.Now()
	best := m.ckpts[0]
	for _, c := range m.ckpts {
		if c.validAt <= now {
			best = c
		}
	}
	return best
}

// Recover rolls the logged state back to the recovery point and returns
// its snapshot plus the amount of lost work in cycles. The caller is
// responsible for restoring the snapshot, resetting the network and
// controllers, and stalling for RecoveryLatency.
func (m *Manager) Recover() (snapshot interface{}, lost sim.Time) {
	c := m.target()
	now := m.k.Now()
	lost = now - c.at
	m.recoveries.Inc()

	for n := range m.logs {
		log := m.logs[n]
		// Undo every change made at or after the target checkpoint, in
		// reverse order of logging.
		cut := len(log)
		for cut > 0 && log[cut-1].epoch >= c.epoch {
			cut--
		}
		for i := len(log) - 1; i >= cut; i-- {
			log[i].undo()
		}
		m.logs[n] = log[:cut]
	}
	// Every key logged since the target checkpoint was just undone, so
	// the target epoch starts over with nothing logged.
	m.clearSeen()
	// Discard checkpoints newer than the target; execution resumes
	// inside the target's epoch.
	for len(m.ckpts) > 0 && m.ckpts[len(m.ckpts)-1].epoch > c.epoch {
		m.ckpts = m.ckpts[:len(m.ckpts)-1]
	}
	m.epoch = c.epoch
	m.recomputePressure()
	return c.snapshot, lost
}

func (m *Manager) clearSeen() {
	for _, s := range m.seen {
		clear(s)
	}
}

// recomputePressure rederives each node's pressure flag from its actual
// log occupancy. Runs at control points only (commit, recovery), where
// no shard is mid-window.
func (m *Manager) recomputePressure() {
	if m.capEntries <= 0 {
		return
	}
	for n := range m.pressure {
		m.pressure[n] = len(m.logs[n]) >= m.capEntries
	}
}

// PressureSignal reports whether any node's log has reached capacity.
// Safe only from control context (window edges, or the serial kernel):
// the flags are written by the logging hot path of each node's owning
// shard mid-window.
func (m *Manager) PressureSignal() bool {
	for _, p := range m.pressure {
		if p {
			return true
		}
	}
	return false
}

// CapacityEntries returns the per-node log capacity in entries (0 =
// unlimited).
func (m *Manager) CapacityEntries() int { return m.capEntries }

// MaxOccupancyEntries returns the largest current (not high-water) log
// occupancy across nodes, in entries — the adaptive-cadence
// controller's feedback signal.
func (m *Manager) MaxOccupancyEntries() int {
	max := 0
	for n := range m.logs {
		if len(m.logs[n]) > max {
			max = len(m.logs[n])
		}
	}
	return max
}

// Recoveries returns the number of recoveries performed.
func (m *Manager) Recoveries() uint64 { return m.recoveries.Value() }

// Checkpoints returns the number of checkpoints taken.
func (m *Manager) Checkpoints() uint64 { return m.checkpoints.Value() }

// EntriesLogged returns the total number of log writes.
func (m *Manager) EntriesLogged() uint64 {
	var total uint64
	for _, n := range m.entriesLogged {
		total += n
	}
	return total
}

// Overflows returns how many log appends exceeded the configured
// LogBytes capacity. Since the backpressure fix each overflow also
// raises the node's pressure flag (the system stalls until validation
// frees space); the counter remains as the occupancy-excess metric the
// A3 ablation reports.
func (m *Manager) Overflows() uint64 {
	var total uint64
	for _, n := range m.overflows {
		total += n
	}
	return total
}

// OccupancyHighWaterBytes returns the largest log footprint node i
// reached.
func (m *Manager) OccupancyHighWaterBytes(i int) int {
	return m.occupancyHW[i] * m.cfg.EntryBytes
}

// String summarizes the manager state for logs.
func (m *Manager) String() string {
	return fmt.Sprintf("safetynet{epoch=%d ckpts=%d recoveries=%d logged=%d}",
		m.epoch, len(m.ckpts), m.recoveries.Value(), m.EntriesLogged())
}
