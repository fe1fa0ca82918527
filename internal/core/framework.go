// Package core implements the paper's primary contribution: the
// "speculation for simplicity" framework (paper §2). The framework
// specifies four features any speculative simplification must provide:
//
//  1. Infrequency of mis-speculation,
//  2. Detection of every mis-speculation,
//  3. Recovery to a consistent pre-speculation state (SafetyNet),
//  4. Guaranteed forward progress after recovery.
//
// The Coordinator ties the pieces together: protocol controllers and
// timeout watchdogs report detected mis-speculations; the Coordinator
// drives SafetyNet recovery, resets the memory system, restores the
// processor snapshot, and applies forward-progress policies that perturb
// post-recovery timing so the rare event cannot simply recur (paper §2
// feature 4: "alter the timing of the execution after system recovery").
package core

import (
	"fmt"
	"sort"

	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
)

// Characterization is one row of the paper's Table 1: how a speculative
// design satisfies the four framework features.
type Characterization struct {
	Application     string
	Infrequency     string
	Detection       string
	Recovery        string
	ForwardProgress string
	Result          string
}

// Speculation is one application of speculation for simplicity: its
// name ("p2p-ordering", "snoop-corner", "no-vc-deadlock") and its
// Table 1 row.
type Speculation struct {
	Name string
	Characterization
}

// The three applications of the paper, as described by Table 1.
var (
	// P2POrdering is §3.1: simplify a directory protocol by speculating
	// that the adaptively routed interconnect preserves point-to-point
	// ordering.
	P2POrdering = Speculation{
		Name: "p2p-ordering",
		Characterization: Characterization{
			Application:     "Simplify directory protocol by speculating on point-to-point ordering (§3.1)",
			Infrequency:     "re-orderings are rare and most re-orderings do not matter",
			Detection:       "one specific invalid transition in protocol controller",
			Recovery:        "SafetyNet",
			ForwardProgress: "selectively disable adaptive routing during re-execution",
			Result:          "simpler protocol with rare mis-speculations",
		},
	}
	// SnoopCorner is §3.2: treat a rare snooping-protocol transition as
	// a mis-speculation instead of specifying it.
	SnoopCorner = Speculation{
		Name: "snoop-corner",
		Characterization: Characterization{
			Application:     "Simplify snooping protocol by treating corner case transition as error (§3.2)",
			Infrequency:     "writebacks do not often race with requests to write the block",
			Detection:       "one specific invalid transition in protocol controller",
			Recovery:        "SafetyNet",
			ForwardProgress: "slow-start execution after recovery",
			Result:          "protocol almost never exercises corner case in practice",
		},
	}
	// NoVCDeadlock is §4: remove virtual channel flow control and
	// recover from the resulting (rare) deadlocks.
	NoVCDeadlock = Speculation{
		Name: "no-vc-deadlock",
		Characterization: Characterization{
			Application:     "Simplify interconnection network by removing virtual channel flow control (§4)",
			Infrequency:     "worst-case buffering requirements are rarely needed in practice",
			Detection:       "timeout on cache coherence transaction",
			Recovery:        "SafetyNet",
			ForwardProgress: "slow-start execution after recovery, with sufficient buffering during slow-start",
			Result:          "simpler network incurs no deadlocks in practice",
		},
	}
)

// Table1 renders the framework characterization of the paper's three
// designs in the layout of the paper's Table 1.
func Table1() string {
	t := stats.NewTable("Feature", "Design", "Characterization")
	rows := []struct {
		f   string
		get func(Characterization) string
	}{
		{"(1) Infrequency", func(c Characterization) string { return c.Infrequency }},
		{"(2) Detection", func(c Characterization) string { return c.Detection }},
		{"(3) Recovery", func(c Characterization) string { return c.Recovery }},
		{"(4) Forward Progress", func(c Characterization) string { return c.ForwardProgress }},
		{"Result", func(c Characterization) string { return c.Result }},
	}
	for _, s := range []Speculation{P2POrdering, SnoopCorner, NoVCDeadlock} {
		t.AddRow("Application", s.Name, s.Application)
		for _, r := range rows {
			t.AddRow(r.f, s.Name, r.get(s.Characterization))
		}
	}
	return t.String()
}

// ForwardProgressPolicy perturbs post-recovery execution so that the
// mis-speculated race cannot deterministically recur.
type ForwardProgressPolicy interface {
	// OnRecovery is invoked after state restoration, with the running
	// count of recoveries attributed to the coordinator.
	OnRecovery(nRecoveries uint64)
	// PolicyName identifies the policy in reports.
	PolicyName() string
}

// Coordinator routes detected mis-speculations to SafetyNet recovery and
// forward-progress policies. Exactly one coordinator exists per system.
type Coordinator struct {
	k   *sim.Kernel
	mgr *safetynet.Manager

	// RestoreFn reinstates the processor/workload snapshot returned by
	// SafetyNet (architectural state at the recovery point).
	RestoreFn func(snapshot interface{})
	// ResetFn clears derived, non-checkpointed state: in-flight network
	// messages and controller transaction buffers.
	ResetFn func()
	// ResumeFn tells the system when execution restarts (now +
	// RecoveryLatency); processors stall until then.
	ResumeFn func(at sim.Time)

	// PolicyExempt, when non-nil, suppresses forward-progress policies
	// for matching reasons. The Figure 4 stress methodology injects
	// recoveries into a non-speculative system; those recoveries have
	// no race to avoid, so slow-start must not engage.
	PolicyExempt func(reason string) bool

	policies []ForwardProgressPolicy

	resumeAt   sim.Time
	byReason   map[string]*stats.Counter
	total      stats.Counter
	lostWork   stats.Sample
	recovering bool

	// rollback and recoveryLat are the exact integer distributions the
	// availability experiment reports: cycles of lost work per recovery,
	// and detection-to-resume latency per recovery (including any
	// deferral the fault spent waiting behind an in-progress recovery
	// or a window edge). Exact accumulators keep the columns
	// bit-identical at every shard count.
	rollback    stats.IntSample
	recoveryLat stats.IntSample
}

// NewCoordinator builds a coordinator over a SafetyNet manager.
func NewCoordinator(k *sim.Kernel, mgr *safetynet.Manager) *Coordinator {
	return &Coordinator{k: k, mgr: mgr, byReason: make(map[string]*stats.Counter)}
}

// AddPolicy registers a forward-progress policy.
func (c *Coordinator) AddPolicy(p ForwardProgressPolicy) { c.policies = append(c.policies, p) }

// InRecovery reports whether the system is between detection and resume.
func (c *Coordinator) InRecovery() bool { return c.k.Now() < c.resumeAt }

// ResumeAt returns the time execution restarts after the most recent
// recovery (zero if none).
func (c *Coordinator) ResumeAt() sim.Time { return c.resumeAt }

// TriggerMisSpeculation performs a system recovery attributed to reason.
// Duplicate detections during an in-progress recovery are coalesced. It
// reports whether a recovery was actually performed.
func (c *Coordinator) TriggerMisSpeculation(reason string) bool {
	return c.TriggerMisSpeculationAt(reason, c.k.Now())
}

// TriggerMisSpeculationAt is TriggerMisSpeculation for detections whose
// nominal fault time precedes the call: a mid-window detection deferred
// to the edge, or a fault held back behind an in-progress recovery. The
// recovery-latency distribution then charges the deferral honestly —
// latency runs from detectedAt to the post-recovery resume time.
func (c *Coordinator) TriggerMisSpeculationAt(reason string, detectedAt sim.Time) bool {
	if c.InRecovery() || c.recovering {
		return false
	}
	c.recovering = true
	defer func() { c.recovering = false }()

	cnt := c.byReason[reason]
	if cnt == nil {
		cnt = &stats.Counter{}
		c.byReason[reason] = cnt
	}
	cnt.Inc()
	c.total.Inc()

	snapshot, lost := c.mgr.Recover()
	c.lostWork.Observe(float64(lost))
	c.rollback.Observe(uint64(lost))
	if c.ResetFn != nil {
		c.ResetFn()
	}
	if c.RestoreFn != nil {
		c.RestoreFn(snapshot)
	}
	c.resumeAt = c.k.Now() + c.mgr.Config().RecoveryLatency
	if c.resumeAt > detectedAt {
		c.recoveryLat.Observe(uint64(c.resumeAt - detectedAt))
	} else {
		c.recoveryLat.Observe(0)
	}
	if c.PolicyExempt == nil || !c.PolicyExempt(reason) {
		for _, p := range c.policies {
			p.OnRecovery(c.total.Value())
		}
	}
	if c.ResumeFn != nil {
		c.ResumeFn(c.resumeAt)
	}
	return true
}

// Recoveries returns the total recoveries performed via this coordinator.
func (c *Coordinator) Recoveries() uint64 { return c.total.Value() }

// RecoveriesFor returns the recoveries attributed to reason.
func (c *Coordinator) RecoveriesFor(reason string) uint64 {
	if cnt := c.byReason[reason]; cnt != nil {
		return cnt.Value()
	}
	return 0
}

// Reasons returns the observed mis-speculation reasons, sorted.
func (c *Coordinator) Reasons() []string {
	out := make([]string, 0, len(c.byReason))
	for r := range c.byReason {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// MeanLostWork returns the mean rollback distance in cycles.
func (c *Coordinator) MeanLostWork() float64 { return c.lostWork.Mean() }

// RollbackDist returns the exact rollback-distance distribution
// (cycles of lost work per recovery).
func (c *Coordinator) RollbackDist() stats.IntSummary { return c.rollback.Summary() }

// RecoveryLatencyDist returns the exact recovery-latency distribution:
// nominal detection time to post-recovery resume, per recovery.
func (c *Coordinator) RecoveryLatencyDist() stats.IntSummary { return c.recoveryLat.Summary() }

// String summarizes recovery activity.
func (c *Coordinator) String() string {
	return fmt.Sprintf("coordinator{recoveries=%d lost=%.0f}", c.total.Value(), c.lostWork.Mean())
}

// AdaptiveRoutingToggle is the interface DisableAdaptiveRouting drives
// (satisfied by *network.Network).
type AdaptiveRoutingToggle interface {
	SetAdaptiveDisabled(bool)
}

// DisableAdaptiveRouting is the §3.1 forward-progress policy: after a
// recovery, route statically for ReenableAfter cycles (0 = forever, the
// paper's conservative extreme), so point-to-point order holds during
// re-execution and the reordering race cannot recur.
//
// K is a sim.Scheduler rather than a kernel so sharded systems can
// route the re-enable timer through window-edge control: toggling the
// routing policy touches every shard and must not fire mid-window.
type DisableAdaptiveRouting struct {
	K             sim.Scheduler
	Net           AdaptiveRoutingToggle
	ReenableAfter sim.Time

	generation uint64 // invalidates stale re-enable timers
}

// PolicyName implements ForwardProgressPolicy.
func (d *DisableAdaptiveRouting) PolicyName() string { return "disable-adaptive-routing" }

// OnRecovery implements ForwardProgressPolicy.
func (d *DisableAdaptiveRouting) OnRecovery(uint64) {
	d.Net.SetAdaptiveDisabled(true)
	d.generation++
	if d.ReenableAfter == 0 {
		return
	}
	gen := d.generation
	d.K.After(d.ReenableAfter, func() {
		if gen == d.generation {
			d.Net.SetAdaptiveDisabled(false)
		}
	})
}

// OutstandingLimiter is the interface SlowStart drives: it bounds the
// number of concurrently outstanding coherence transactions (satisfied
// by the system's processor pool).
type OutstandingLimiter interface {
	SetOutstandingLimit(int)
}

// SlowStart is the §3.2/§4 forward-progress policy: after a recovery,
// restrict the system to Limit outstanding coherence transactions for
// Window cycles. With Limit 1 the double-transaction races and
// buffer-cycle deadlocks provably cannot recur, and with sufficient
// buffering for Limit transactions slow-start avoids livelock (§4).
type SlowStart struct {
	K       sim.Scheduler // window-edge scheduler in sharded systems (see DisableAdaptiveRouting.K)
	Limiter OutstandingLimiter
	Limit   int // outstanding transactions during slow-start (>=1)
	Normal  int // normal limit to restore (0 = unlimited)
	Window  sim.Time

	generation uint64
}

// PolicyName implements ForwardProgressPolicy.
func (s *SlowStart) PolicyName() string { return "slow-start" }

// OnRecovery implements ForwardProgressPolicy.
func (s *SlowStart) OnRecovery(uint64) {
	limit := s.Limit
	if limit < 1 {
		limit = 1
	}
	s.Limiter.SetOutstandingLimit(limit)
	s.generation++
	gen := s.generation
	s.K.After(s.Window, func() {
		if gen == s.generation {
			s.Limiter.SetOutstandingLimit(s.Normal)
		}
	})
}
