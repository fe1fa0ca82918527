package system

import (
	"testing"

	"specsimp/internal/network"
	"specsimp/internal/workload"
)

func TestDirectoryFullRuns(t *testing.T) {
	cfg := DefaultConfig(DirectoryFull, workload.Uniform)
	r := RunOne(cfg, 400_000)
	if r.Instructions == 0 || r.Perf <= 0 {
		t.Fatalf("no progress: %+v", r)
	}
	if r.Checkpoints < 2 {
		t.Fatalf("checkpoints=%d; cadence broken", r.Checkpoints)
	}
	if r.Recoveries != 0 {
		t.Fatalf("full protocol recovered %d times (reasons %v)", r.Recoveries, r.RecoveryReasons)
	}
}

func TestDirectorySpecRunsOnAdaptive(t *testing.T) {
	cfg := DefaultConfig(DirectorySpec, workload.Hotspot)
	r := RunOne(cfg, 600_000)
	if r.Instructions == 0 {
		t.Fatal("no progress")
	}
	// Mis-speculations are allowed (that is the design); the system
	// must simply keep making progress through them.
	t.Logf("spec directory: perf=%.3f recoveries=%d reorder=%.5f",
		r.Perf, r.Recoveries, r.TotalReorderRate)
}

func TestSnoopFullRuns(t *testing.T) {
	cfg := DefaultConfig(SnoopFull, workload.Uniform)
	r := RunOne(cfg, 400_000)
	if r.Instructions == 0 {
		t.Fatal("no progress")
	}
	if r.Recoveries != 0 {
		t.Fatalf("full snooping recovered %d times", r.Recoveries)
	}
	if r.Checkpoints < 1 {
		t.Fatal("no checkpoints")
	}
}

func TestSnoopSpecRuns(t *testing.T) {
	cfg := DefaultConfig(SnoopSpec, workload.OLTP)
	r := RunOne(cfg, 400_000)
	if r.Instructions == 0 {
		t.Fatal("no progress")
	}
	t.Logf("spec snooping: perf=%.3f corner detections=%d", r.Perf, r.CornerDetected)
}

func TestInjectedRecoveriesSurvived(t *testing.T) {
	// The injection period must exceed the validation window (three
	// checkpoint intervals) or every rollback returns to the initial
	// checkpoint and the system can make no net progress — that is
	// correct SafetyNet behavior, so scale the interval down.
	cfg := DefaultConfig(DirectoryFull, workload.Uniform)
	cfg.CheckpointInterval = 10_000
	cfg.InjectRecoveryEvery = 150_000
	r := RunOne(cfg, 900_000)
	if r.Recoveries < 3 {
		t.Fatalf("recoveries=%d; injector broken", r.Recoveries)
	}
	if r.RecoveryReasons["injected"] != r.Recoveries {
		t.Fatalf("reasons=%v", r.RecoveryReasons)
	}
	if r.Instructions == 0 {
		t.Fatal("system made no progress through injected recoveries")
	}
	if r.MeanLostWork <= 0 {
		t.Fatal("recoveries lost no work?")
	}
}

func TestInjectionDegradesGracefully(t *testing.T) {
	// Figure 4's premise: more recoveries => monotonically-ish lower
	// performance, but never collapse at modest rates.
	baseCfg := DefaultConfig(DirectoryFull, workload.Uniform)
	baseCfg.CheckpointInterval = 10_000
	base := RunOne(baseCfg, 1_000_000)
	inj := baseCfg
	inj.InjectRecoveryEvery = 250_000
	hit := RunOne(inj, 1_000_000)
	if hit.Perf >= base.Perf {
		t.Logf("note: injected run not slower (%.4f vs %.4f) — acceptable at low rates", hit.Perf, base.Perf)
	}
	// Loss per recovery is bounded by the validation window plus one
	// interval plus the recovery latency (~60k cycles); at a 250k
	// period performance should retain well over half.
	if hit.Perf < base.Perf*0.5 {
		t.Fatalf("injected run lost too much: %.4f vs %.4f", hit.Perf, base.Perf)
	}
}

func TestSimplifiedNetworkDeadlockRecovery(t *testing.T) {
	// The §4 experiment: no virtual networks/channels, tiny shared
	// buffers. Deadlocks (or unrecoverable stalls) must be detected by
	// the transaction timeout and recovered from, and the system must
	// still make forward progress (slow-start guarantees it).
	cfg := DefaultConfig(DirectorySpec, workload.Hotspot)
	cfg.Net = network.SimplifiedConfig(4, 4, 0.8, 2)
	cfg.CheckpointInterval = 20_000
	cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
	cfg.SlowStartWindow = 50_000
	r := RunOne(cfg, 2_000_000)
	if r.Instructions == 0 {
		t.Fatal("no progress on the simplified network")
	}
	t.Logf("simplified net: perf=%.3f recoveries=%d timeouts=%d reasons=%v",
		r.Perf, r.Recoveries, r.Timeouts, r.RecoveryReasons)
}

func TestRecoveryDeterminismAfterRollback(t *testing.T) {
	// Two identical runs with injected recoveries must agree exactly:
	// rollback + workload replay is fully deterministic.
	cfg := DefaultConfig(DirectoryFull, workload.Uniform)
	cfg.InjectRecoveryEvery = 170_000
	a := RunOne(cfg, 700_000)
	b := RunOne(cfg, 700_000)
	if a.Instructions != b.Instructions || a.Recoveries != b.Recoveries {
		t.Fatalf("nondeterminism: (%d,%d) vs (%d,%d)",
			a.Instructions, a.Recoveries, b.Instructions, b.Recoveries)
	}
}

func TestCheckpointLogStaysBounded(t *testing.T) {
	cfg := DefaultConfig(DirectoryFull, workload.Uniform)
	r := RunOne(cfg, 800_000)
	if r.LogHighWaterBytes == 0 {
		t.Fatal("nothing was logged — checkpointing not wired")
	}
	if r.LogHighWaterBytes > 8*512*1024 {
		t.Fatalf("log high water %d bytes: commit is not freeing entries", r.LogHighWaterBytes)
	}
}

func TestAuditAfterSystemRun(t *testing.T) {
	// After a run with recoveries, drain and audit protocol invariants.
	cfg := DefaultConfig(DirectoryFull, workload.Hotspot)
	cfg.InjectRecoveryEvery = 200_000
	s := Build(cfg)
	s.Start()
	s.K.Run(600_000)
	// Stop issuing and drain everything in flight.
	s.Pool.Pause()
	for i := 0; i < 200_000 && s.inFlight() > 0; i++ {
		if !s.K.Step() {
			break
		}
	}
	if s.inFlight() != 0 {
		t.Fatalf("could not drain: %d in flight", s.inFlight())
	}
	if err := s.Dir.AuditInvariants(); err != nil {
		t.Fatalf("invariants violated after recoveries: %v", err)
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Table2(DefaultConfig(DirectoryFull, workload.OLTP))
	for _, want := range []string{"128 KB", "4 MB", "torus", "512 KB", "100 cycles"} {
		if !contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestKindStrings(t *testing.T) {
	if DirectoryFull.String() != "directory-full" || SnoopSpec.String() != "snoop-spec" {
		t.Fatal("kind names wrong")
	}
	if !DirectorySpec.IsDirectory() || SnoopFull.IsDirectory() {
		t.Fatal("IsDirectory wrong")
	}
}
