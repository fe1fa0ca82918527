// Sustained-fault regimes: the availability layer drives recoveries
// through deterministic fault processes instead of (or alongside) the
// single periodic injector of the Figure 4 methodology. Every regime
// runs on the system's one control surface (System.ctl) — kernel
// events classically, window-edge control when tiled — so fault
// arrival times, deferrals and the resulting recovery schedule are
// bit-identical at every shard count.
//
// Faults that land while a recovery is already in progress are the
// interesting case (the paper's availability argument must hold under
// them): they are *deferred* to the resume point, never dropped, and
// faults queued behind the same recovery coalesce into one delivery
// carrying the earliest nominal time — a single rollback disposes of
// them all, exactly like the sharded edge-deferral of protocol
// detections (shard.go). Before this layer, InjectRecoveryEvery ticks
// that hit an in-progress recovery vanished silently.
package system

import (
	"specsimp/internal/sim"
)

// FaultRegime selects the sustained-fault scheduler (Config.FaultRegime).
type FaultRegime uint8

const (
	// FaultNone disables the regime scheduler. The legacy periodic
	// injector (Config.InjectRecoveryEvery) runs independently.
	FaultNone FaultRegime = iota
	// FaultStorm is a Poisson fault storm: every node carries an
	// independent geometric (discretized Poisson) fault process on its
	// own seeded RNG stream; the aggregate rate is Config.FaultRate.
	FaultStorm
	// FaultRegional models correlated regional faults: a global Poisson
	// burst process picks one torus quadrant per burst and faults every
	// node in it inside a short jitter window, so most of a burst lands
	// while the first fault's recovery is already in progress.
	FaultRegional
	// FaultRepeat models repeat faults: a Poisson base process whose
	// every delivered fault is followed by an aftershock aimed at the
	// midpoint of the recovery it triggered — the worst case for the
	// fault-during-recovery path.
	FaultRepeat
)

func (f FaultRegime) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultStorm:
		return "storm"
	case FaultRegional:
		return "regional"
	default:
		return "repeat"
	}
}

// faultInjector delivers the faults of one configured source (the
// legacy periodic injector, or one regime) to the coordinator. Each
// source gets its own injector so their deferral slots stay
// independent.
type faultInjector struct {
	s *System

	// Deferral slot: a fault arriving while Coord.InRecovery() parks
	// here; later arrivals behind the same recovery coalesce into it,
	// keeping the earliest nominal time.
	pending    bool
	pendAt     sim.Time
	pendReason string

	rngs []*sim.RNG // per-node streams (storm)
	next []sim.Time // per-node next arrival (storm)
	rng  *sim.RNG   // global stream (regional, repeat)
}

// startFaults wires the legacy periodic injector and the configured
// fault regime onto the system's control surface (on the tile engine
// every fault delivery is thereby quantized to a window edge, exactly
// like deferred protocol detections). Called once from Start.
func (s *System) startFaults() {
	if d := s.Cfg.InjectRecoveryEvery; d > 0 {
		in := &faultInjector{s: s}
		in.startPeriodic(d)
	}
	in := &faultInjector{s: s}
	switch s.Cfg.FaultRegime {
	case FaultStorm:
		in.startStorm()
	case FaultRegional:
		in.startRegional()
	case FaultRepeat:
		in.startRepeat()
	}
}

// at schedules fn at absolute time t, or one cycle out if t is not
// after the clock (a deferred delivery whose nominal time is behind
// it). The tile engine rounds up to the next window edge.
func (f *faultInjector) at(t sim.Time, fn func()) {
	if now := f.s.ctl.Now(); t <= now {
		t = now + 1
	}
	f.s.ctl.At(t, fn)
}

// deliver routes one fault with nominal time t to the coordinator,
// deferring (not dropping) it when a recovery is in progress.
func (f *faultInjector) deliver(t sim.Time, reason string) {
	c := f.s.Coord
	if !c.InRecovery() {
		c.TriggerMisSpeculationAt(reason, t)
		return
	}
	if f.pending {
		if t < f.pendAt {
			f.pendAt = t
		}
		return
	}
	f.pending = true
	f.pendAt = t
	f.pendReason = reason
	f.redeliver()
}

// redeliver retries the parked fault just after the blocking recovery's
// resume point, re-arming if yet another recovery got there first.
func (f *faultInjector) redeliver() {
	f.at(f.s.Coord.ResumeAt()+1, func() {
		if f.s.Coord.InRecovery() {
			f.redeliver()
			return
		}
		f.pending = false
		f.s.Coord.TriggerMisSpeculationAt(f.pendReason, f.pendAt)
	})
}

// startPeriodic drives the legacy InjectRecoveryEvery cadence through
// the deferral path. Nominal fault times stay on the k*d grid whether
// or not a delivery had to wait out a recovery, so the recovery-latency
// distribution charges the wait honestly.
func (f *faultInjector) startPeriodic(d sim.Time) {
	nominal := f.s.ctl.Now() + d
	var fire func()
	fire = func() {
		t := nominal
		nominal += d
		f.deliver(t, "injected")
		f.at(nominal, fire)
	}
	f.at(nominal, fire)
}

// gapCycles converts a rate in events per second into the mean
// inter-arrival gap in cycles of the compressed clock.
func gapCycles(cfg Config, perSecond float64) float64 {
	return cfg.CyclesPerSecond / perSecond
}

// startStorm seeds one RNG stream and one next-arrival slot per node.
// Per-node streams (the tiled reorder injector's idiom, see
// reorderInjector) keep the draw sequence independent of execution
// interleaving; the scheduling itself runs centrally — one timer
// tracking the earliest arrival — so both engines walk the identical
// schedule.
func (f *faultInjector) startStorm() {
	cfg := f.s.Cfg
	f.rngs = make([]*sim.RNG, cfg.Nodes)
	f.next = make([]sim.Time, cfg.Nodes)
	gap := gapCycles(cfg, cfg.FaultRate/float64(cfg.Nodes))
	now := f.s.ctl.Now()
	for i := range f.rngs {
		f.rngs[i] = sim.NewRNG(cfg.Seed ^ 0x5702a11 ^ uint64(i)*0x9e3779b97f4a7c15)
		f.next[i] = now + sim.Time(f.rngs[i].Geometric(gap))
	}
	f.armStorm(gap)
}

// armStorm schedules the earliest pending arrival across nodes (ties
// break to the lowest node id — the canonical order determinism needs).
func (f *faultInjector) armStorm(gap float64) {
	best := 0
	for i, t := range f.next {
		if t < f.next[best] {
			best = i
		}
	}
	t := f.next[best]
	f.at(t, func() {
		f.deliver(t, "storm")
		f.next[best] = t + sim.Time(f.rngs[best].Geometric(gap))
		f.armStorm(gap)
	})
}

// startRegional arms the global burst process.
func (f *faultInjector) startRegional() {
	f.rng = sim.NewRNG(f.s.Cfg.Seed ^ 0x4e61b0b0)
	f.armRegional(gapCycles(f.s.Cfg, f.s.Cfg.FaultRate))
}

// armRegional schedules the next burst: pick a quadrant, then fault
// every node in it at a jittered offset within two recovery latencies —
// so the burst's first fault triggers a recovery and most of the rest
// land inside it and exercise the deferral path. SafetyNet recovery is
// global, so which quadrant was hit is immaterial to the rollback; what
// the regime contributes is the burst's arrival structure (one rollback,
// then typically one coalesced follow-up after resume).
func (f *faultInjector) armRegional(gap float64) {
	now := f.s.ctl.Now()
	t := now + sim.Time(f.rng.Geometric(gap))
	f.at(t, func() {
		quad := int(f.rng.Uint64n(4))
		jitter := uint64(2 * f.s.Mgr.Config().RecoveryLatency)
		if jitter == 0 {
			jitter = 1
		}
		n := quadrantSize(f.s.Cfg.Net.Width, f.s.Cfg.Net.Height, quad)
		for i := 0; i < n; i++ {
			ti := t + sim.Time(f.rng.Uint64n(jitter))
			f.at(ti, func() { f.deliver(ti, "regional") })
		}
		f.armRegional(gap)
	})
}

// quadrantSize is the node count of torus quadrant q (bit 0: right
// half, bit 1: bottom half; odd dimensions put the extra column/row in
// the low half).
func quadrantSize(w, h, q int) int {
	wx := w - w/2
	if q&1 == 1 {
		wx = w / 2
	}
	hy := h - h/2
	if q&2 == 2 {
		hy = h / 2
	}
	return wx * hy
}

// startRepeat arms the base process.
func (f *faultInjector) startRepeat() {
	f.rng = sim.NewRNG(f.s.Cfg.Seed ^ 0x4e9e47)
	f.armRepeat(gapCycles(f.s.Cfg, f.s.Cfg.FaultRate))
}

// armRepeat schedules the next base fault; if its delivery engaged a
// recovery (rather than parking behind one), an aftershock is aimed at
// that recovery's midpoint, guaranteeing a fault that lands while
// InRecovery and must defer to the resume point. Aftershocks do not
// spawn further aftershocks.
func (f *faultInjector) armRepeat(gap float64) {
	now := f.s.ctl.Now()
	t := now + sim.Time(f.rng.Geometric(gap))
	f.at(t, func() {
		f.deliver(t, "repeat")
		if c := f.s.Coord; !f.pending && c.InRecovery() {
			mid := f.s.ctl.Now() + (c.ResumeAt()-f.s.ctl.Now())/2
			f.at(mid, func() { f.deliver(mid, "repeat") })
		}
		f.armRepeat(gap)
	})
}
