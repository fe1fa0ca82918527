package core

import (
	"strings"
	"testing"

	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
)

func TestTable1Characterization(t *testing.T) {
	// Each design fills every framework feature, and each recovers
	// with SafetyNet.
	for _, s := range []Speculation{P2POrdering, SnoopCorner, NoVCDeadlock} {
		if s.Recovery != "SafetyNet" {
			t.Errorf("%s: recovery %q", s.Name, s.Recovery)
		}
		if s.Application == "" || s.Infrequency == "" || s.Detection == "" || s.ForwardProgress == "" || s.Result == "" {
			t.Errorf("%s: incomplete characterization %+v", s.Name, s.Characterization)
		}
	}
	out := Table1()
	for _, want := range []string{
		"p2p-ordering", "snoop-corner", "no-vc-deadlock",
		"SafetyNet",
		"selectively disable adaptive routing",
		"slow-start",
		"timeout on cache coherence transaction",
		"(1) Infrequency", "(2) Detection", "(3) Recovery", "(4) Forward Progress",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func newCoord(t *testing.T) (*sim.Kernel, *safetynet.Manager, *Coordinator) {
	t.Helper()
	k := sim.NewKernel()
	m := safetynet.NewManager(k, safetynet.DefaultConfig(4, 100))
	m.TakeCheckpoint("init")
	return k, m, NewCoordinator(k, m)
}

func TestTriggerPerformsRecovery(t *testing.T) {
	k, m, c := newCoord(t)
	restored, reset := false, false
	var resumeAt sim.Time
	c.RestoreFn = func(s interface{}) { restored = s == "init" }
	c.ResetFn = func() { reset = true }
	c.ResumeFn = func(at sim.Time) { resumeAt = at }
	k.Run(500)
	if !c.TriggerMisSpeculation("race") {
		t.Fatal("trigger refused")
	}
	if !restored || !reset {
		t.Fatalf("restored=%v reset=%v", restored, reset)
	}
	if resumeAt != 500+m.Config().RecoveryLatency {
		t.Fatalf("resumeAt=%d", resumeAt)
	}
	if c.Recoveries() != 1 || c.RecoveriesFor("race") != 1 {
		t.Fatalf("counting wrong: %d/%d", c.Recoveries(), c.RecoveriesFor("race"))
	}
	if !c.InRecovery() {
		t.Fatal("not in recovery immediately after trigger")
	}
}

func TestDuplicateDetectionsCoalesced(t *testing.T) {
	k, _, c := newCoord(t)
	k.Run(100)
	if !c.TriggerMisSpeculation("a") {
		t.Fatal("first trigger refused")
	}
	if c.TriggerMisSpeculation("a") {
		t.Fatal("second trigger during recovery was not coalesced")
	}
	if c.Recoveries() != 1 {
		t.Fatalf("recoveries=%d want 1", c.Recoveries())
	}
}

func TestReasonsSorted(t *testing.T) {
	k, _, c := newCoord(t)
	k.Run(10)
	c.TriggerMisSpeculation("zeta")
	k.Run(c.ResumeAt() + 1000)
	c.TriggerMisSpeculation("alpha")
	got := c.Reasons()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("reasons=%v", got)
	}
}

type fakeToggle struct{ disabled bool }

func (f *fakeToggle) SetAdaptiveDisabled(v bool) { f.disabled = v }

func TestDisableAdaptiveRoutingPolicy(t *testing.T) {
	k := sim.NewKernel()
	tog := &fakeToggle{}
	p := &DisableAdaptiveRouting{K: k, Net: tog, ReenableAfter: 1000}
	p.OnRecovery(1)
	if !tog.disabled {
		t.Fatal("adaptive routing not disabled")
	}
	k.Run(999)
	if !tog.disabled {
		t.Fatal("re-enabled too early")
	}
	k.Run(1001)
	if tog.disabled {
		t.Fatal("not re-enabled after window")
	}
}

func TestDisableAdaptiveRoutingForever(t *testing.T) {
	k := sim.NewKernel()
	tog := &fakeToggle{}
	p := &DisableAdaptiveRouting{K: k, Net: tog, ReenableAfter: 0}
	p.OnRecovery(1)
	k.Run(1_000_000)
	if !tog.disabled {
		t.Fatal("conservative policy re-enabled adaptive routing")
	}
}

func TestDisableAdaptiveRoutingRestartsWindow(t *testing.T) {
	k := sim.NewKernel()
	tog := &fakeToggle{}
	p := &DisableAdaptiveRouting{K: k, Net: tog, ReenableAfter: 1000}
	p.OnRecovery(1)
	k.Run(500)
	p.OnRecovery(2) // second recovery restarts the window
	k.Run(1400)     // old timer (t=1000) must not re-enable
	if tog.disabled == false {
		t.Fatal("stale re-enable timer fired")
	}
	k.Run(1600)
	if tog.disabled {
		t.Fatal("never re-enabled after restarted window")
	}
}

type fakeLimiter struct{ limit int }

func (f *fakeLimiter) SetOutstandingLimit(n int) { f.limit = n }

func TestSlowStartPolicy(t *testing.T) {
	k := sim.NewKernel()
	lim := &fakeLimiter{limit: 16}
	p := &SlowStart{K: k, Limiter: lim, Limit: 1, Normal: 16, Window: 2000}
	p.OnRecovery(1)
	if lim.limit != 1 {
		t.Fatalf("limit=%d during slow-start, want 1", lim.limit)
	}
	k.Run(2001)
	if lim.limit != 16 {
		t.Fatalf("limit=%d after window, want 16", lim.limit)
	}
}

func TestSlowStartMinimumLimit(t *testing.T) {
	k := sim.NewKernel()
	lim := &fakeLimiter{}
	p := &SlowStart{K: k, Limiter: lim, Limit: 0, Normal: 8, Window: 10}
	p.OnRecovery(1)
	if lim.limit != 1 {
		t.Fatalf("limit=%d, slow-start must allow at least 1", lim.limit)
	}
}

func TestPolicyInvokedByCoordinator(t *testing.T) {
	k, _, c := newCoord(t)
	lim := &fakeLimiter{limit: 16}
	c.AddPolicy(&SlowStart{K: k, Limiter: lim, Limit: 1, Normal: 16, Window: 100})
	k.Run(50)
	c.TriggerMisSpeculation("deadlock")
	if lim.limit != 1 {
		t.Fatal("coordinator did not apply forward-progress policy")
	}
}
