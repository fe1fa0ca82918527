package system

import (
	"testing"

	"specsimp/internal/network"
	"specsimp/internal/workload"
)

// TestSnoopLogicalCheckpoints: the snooping system checkpoints on its
// logical time base — every N ordered bus requests (paper Table 2:
// 3,000) — not on wall-clock cycles.
func TestSnoopLogicalCheckpoints(t *testing.T) {
	cfg := DefaultConfig(SnoopFull, workload.Uniform)
	cfg.SnoopCheckpointRequests = 200
	s := Build(cfg)
	s.Start()
	s.K.Run(600_000)
	ordered := s.Bus.Ordered()
	r := s.Results()
	if ordered < 400 {
		t.Fatalf("only %d requests ordered; run too small", ordered)
	}
	// One initial checkpoint plus roughly ordered/200 more (drain time
	// between trigger and cut loses a little cadence).
	minWant := uint64(1 + int(ordered)/200/2)
	if r.Checkpoints < minWant {
		t.Fatalf("checkpoints=%d for %d ordered requests (want >= %d)", r.Checkpoints, ordered, minWant)
	}
}

// TestSnoopSystemInjectedRecovery: the snooping system also rolls back
// and replays deterministically under injected recoveries.
func TestSnoopSystemInjectedRecovery(t *testing.T) {
	cfg := DefaultConfig(SnoopFull, workload.Uniform)
	cfg.SnoopCheckpointRequests = 150
	cfg.CheckpointInterval = 5_000 // scales validation window + recovery latency
	cfg.InjectRecoveryEvery = 120_000
	a := RunOne(cfg, 700_000)
	if a.Recoveries < 3 {
		t.Fatalf("recoveries=%d; injector broken for snooping", a.Recoveries)
	}
	if a.Instructions == 0 {
		t.Fatal("no progress through snooping recoveries")
	}
	b := RunOne(cfg, 700_000)
	if a.Instructions != b.Instructions || a.Recoveries != b.Recoveries {
		t.Fatalf("snooping rollback nondeterministic: (%d,%d) vs (%d,%d)",
			a.Instructions, a.Recoveries, b.Instructions, b.Recoveries)
	}
}

// TestSnoopSystemAuditAfterRecoveries drains a recovery-heavy snooping
// run and audits invariants.
func TestSnoopSystemAuditAfterRecoveries(t *testing.T) {
	cfg := DefaultConfig(SnoopSpec, workload.Hotspot)
	cfg.SnoopCheckpointRequests = 150
	cfg.CheckpointInterval = 5_000
	cfg.InjectRecoveryEvery = 100_000
	s := Build(cfg)
	s.Start()
	s.K.Run(600_000)
	if s.Coord.Recoveries() == 0 {
		t.Fatal("no recoveries injected")
	}
	s.Pool.Pause()
	for i := 0; i < 400_000 && s.inFlight() > 0; i++ {
		if !s.K.Step() {
			break
		}
	}
	if s.inFlight() != 0 {
		t.Fatalf("drain failed: %d in flight", s.inFlight())
	}
	if err := s.Snoop.AuditInvariants(); err != nil {
		t.Fatalf("invariants broken after %d snooping recoveries: %v", s.Coord.Recoveries(), err)
	}
}

// TestDeflectionSystemEndToEnd: the full system runs on the deflection
// network with zero deadlock recoveries where the simplified network
// needs many.
func TestDeflectionSystemEndToEnd(t *testing.T) {
	base := DefaultConfig(DirectorySpec, workload.OLTP)
	base.CheckpointInterval = 5_000
	base.TimeoutCycles = 15_000
	base.SlowStartWindow = 25_000

	simp := base
	simp.Net = network.SimplifiedConfig(4, 4, 0.2, 2)
	rs := RunOne(simp, 1_000_000)

	defl := base
	defl.Net = network.DeflectionConfig(4, 4, 0.2)
	rd := RunOne(defl, 1_000_000)

	if rs.Recoveries == 0 {
		t.Skip("baseline produced no deadlocks this seed")
	}
	if rd.RecoveryReasons["deadlock-timeout"] > rs.RecoveryReasons["deadlock-timeout"]/4 {
		t.Fatalf("deflection timeouts %v vs simplified %v; no improvement",
			rd.RecoveryReasons, rs.RecoveryReasons)
	}
	if rd.Deflections == 0 {
		t.Fatal("no deflections recorded")
	}
	t.Logf("simplified: perf=%.4f recov=%d; deflection: perf=%.4f recov=%d deflections=%d",
		rs.Perf, rs.Recoveries, rd.Perf, rd.Recoveries, rd.Deflections)
}
