package system

import (
	"fmt"
	"strings"
	"testing"

	"specsimp/internal/directory"
	"specsimp/internal/sim"
	"specsimp/internal/workload"
)

// stressSeeds are the pseudo-random replay seeds for the cross-protocol
// stress suite. The list is fixed so CI is deterministic; a failure
// message carries the exact seed (and configuration) that reproduces it
// — rerun with that seed to replay the violation bit for bit.
var stressSeeds = []uint64{0x5eed0001, 0xbadc0ffe}

// stressCases add geometry and fault-injection variety on top of the
// kind × workload grid: the plain 4×4 machine, a recovery-hammered 4×4
// machine (rollback is when invariants are easiest to break), the
// 64-node scaling geometry, and the 256-node machine under both wide
// directory sharer-set formats (snooping kinds have no sharer set, so
// they build the same 256-node machine under both).
type stressCase struct {
	name          string
	width, height int
	injectEvery   sim.Time // recovery injection period in cycles (0 = off)
	cycles        sim.Time
	sharers       directory.SharerFormat // 0 = DefaultConfigSized's pick
}

var stressCases = []stressCase{
	{name: "4x4", width: 4, height: 4, cycles: 120_000},
	{name: "4x4-inject", width: 4, height: 4, injectEvery: 7_000, cycles: 120_000},
	{name: "8x8", width: 8, height: 8, cycles: 60_000},
	{name: "16x16-limited", width: 16, height: 16, cycles: 50_000, sharers: directory.LimitedPointer},
	{name: "16x16-coarse", width: 16, height: 16, cycles: 50_000, sharers: directory.CoarseVector},
}

// stressStreams is the workload axis of the stress matrix: the
// five-workload evaluation suite, the four sharing idioms, and a
// Zipf-skewed phase-shifting variant of OLTP — every stream shape the
// generator can produce gets its invariants audited.
func stressStreams() []workload.Profile {
	streams := append([]workload.Profile{}, workload.Suite...)
	streams = append(streams, workload.Idioms...)
	zipf := workload.OLTP
	zipf.Name = "oltp-zipf"
	zipf.ZipfSkew = 1.1
	zipf.PhaseLen = 2_048
	return append(streams, zipf)
}

// TestCrossKindInvariantStress runs randomized-workload simulations over
// all four system Kinds × the stress streams (evaluation suite, sharing
// idioms, Zipf/phase variant) and calls AuditInvariants at every
// SafetyNet checkpoint (the system is quiesced there by construction).
// Any violation reports the replay seed. A subtest whose machines and
// cycle budgets equal an earlier subtest's is simulated only there: the
// snooping kinds under every 16×16 case but the first.
func TestCrossKindInvariantStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped in -short mode")
	}
	kinds := []Kind{DirectoryFull, DirectorySpec, SnoopFull, SnoopSpec}
	simulatedBy := map[string]string{} // rendered runs → subtest that simulates them
	for _, sc := range stressCases {
		for _, kind := range kinds {
			for _, wl := range stressStreams() {
				sc, kind, wl := sc, kind, wl
				name := sc.name + "/" + kind.String() + "/" + wl.Name
				var runs []string
				for _, seed := range stressSeeds {
					cfg, cycles := stressConfig(sc, kind, wl, seed)
					runs = append(runs, fmt.Sprintf("%+v cycles=%d", cfg, cycles))
				}
				key := strings.Join(runs, "\n")
				twin, dup := simulatedBy[key]
				if !dup {
					simulatedBy[key] = name
				}
				t.Run(name, func(t *testing.T) {
					if dup {
						t.Logf("same machines and cycle budgets as %s, which audits them", twin)
						return
					}
					t.Parallel()
					for _, seed := range stressSeeds {
						runStressCase(t, sc, kind, wl, seed)
					}
				})
			}
		}
	}
}

// TestShardedInvariantStress is the sharded variant of the cross-kind
// stress: directory systems at 4×4 and 8×8 run under 2 and 4 intra-run
// shards — fault injection and recovery included — with invariants
// audited at every checkpoint, and the whole Results struct asserted
// bit-identical to the 1-shard (serial windowed) run of the same replay
// seed. A violation or divergence reports the seed to replay.
func TestShardedInvariantStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped in -short mode")
	}
	cases := []stressCase{
		{name: "4x4", width: 4, height: 4, cycles: 120_000},
		{name: "4x4-inject", width: 4, height: 4, injectEvery: 7_000, cycles: 120_000},
		{name: "8x8", width: 8, height: 8, cycles: 60_000},
		{name: "8x8-inject", width: 8, height: 8, injectEvery: 9_000, cycles: 60_000},
	}
	for _, sc := range cases {
		for _, kind := range []Kind{DirectoryFull, DirectorySpec} {
			sc, kind := sc, kind
			t.Run(sc.name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				for _, seed := range stressSeeds {
					ref := runShardedStressCase(t, sc, kind, seed, 1)
					for _, shards := range []int{2, 4} {
						got := runShardedStressCase(t, sc, kind, seed, shards)
						if got != ref {
							t.Fatalf("results at %d shards diverged from serial (replay: kind=%s geom=%s seed=%#x):\nserial: %s\nshards: %s",
								shards, kind, sc.name, seed, ref, got)
						}
					}
				}
			})
		}
	}
}

func runShardedStressCase(t *testing.T, sc stressCase, kind Kind, seed uint64, shards int) string {
	t.Helper()
	cfg := DefaultConfigSized(kind, workload.Hotspot, sc.width, sc.height)
	cfg.Seed = seed
	cfg.Shards = shards
	cfg.CheckpointInterval = 2_000
	cfg.TimeoutCycles = 3 * cfg.CheckpointInterval // watchdog armed at edges
	cfg.InjectRecoveryEvery = sc.injectEvery
	cfg.ReorderInjectProb = 0.25
	cfg.L2Bytes = 8 * 1024
	cfg.L1Bytes = 2 * 1024
	replay := fmt.Sprintf("replay: kind=%s geom=%s seed=%#x shards=%d", kind, sc.name, seed, shards)
	s, err := BuildChecked(cfg)
	if err != nil {
		t.Fatalf("build failed (%s): %v", replay, err)
	}
	audits := 0
	s.OnCheckpoint = func() {
		audits++
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("invariant violation at checkpoint %d (%s): %v", audits, replay, err)
		}
	}
	s.Start()
	res := s.Run(sc.cycles)
	if res.Instructions == 0 {
		t.Fatalf("no forward progress (%s)", replay)
	}
	if audits < 5 {
		t.Fatalf("only %d checkpoints audited — the stress proves nothing (%s)", audits, replay)
	}
	if sc.injectEvery > 0 && res.Recoveries == 0 {
		t.Fatalf("injection produced no recoveries (%s)", replay)
	}
	// Rendered for exact comparison across shard counts (fmt prints
	// every field, maps in sorted key order).
	return fmt.Sprintf("%+v", res)
}

// stressConfig returns the machine runStressCase builds for one replay
// seed and the cycles it simulates.
func stressConfig(sc stressCase, kind Kind, wl workload.Profile, seed uint64) (Config, sim.Time) {
	cfg := DefaultConfigSized(kind, wl, sc.width, sc.height)
	cfg.Seed = seed
	cfg.CheckpointInterval = 2_000
	cfg.SnoopCheckpointRequests = 200
	cfg.TimeoutCycles = 0 // deadlock-free fabrics; the audit is the detector here
	cfg.InjectRecoveryEvery = sc.injectEvery
	if sc.sharers != 0 && kind.IsDirectory() {
		cfg.Sharers = sc.sharers
	}
	// Streams with machine-wide hot blocks (Zipf skew, single-writer
	// broadcast) quiesce slowly on 256-node machines — the drained
	// checkpoint takes ~20k cycles, so the 50k budget completes too few
	// checkpoints to audit. Scale the budget, not the audit floor.
	cycles := sc.cycles
	if cfg.Nodes >= 256 && (wl.ZipfSkew > 0 || wl.Idiom == workload.IdiomBroadcast) {
		cycles *= 5
	}
	return cfg, cycles
}

func runStressCase(t *testing.T, sc stressCase, kind Kind, wl workload.Profile, seed uint64) {
	t.Helper()
	cfg, cycles := stressConfig(sc, kind, wl, seed)
	replay := fmt.Sprintf("replay: kind=%s workload=%s geom=%s seed=%#x",
		kind, wl.Name, sc.name, seed)
	s, err := BuildChecked(cfg)
	if err != nil {
		t.Fatalf("build failed (%s): %v", replay, err)
	}
	audits := 0
	s.OnCheckpoint = func() {
		audits++
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("invariant violation at checkpoint %d (%s): %v", audits, replay, err)
		}
	}
	s.Start()
	res := s.Run(cycles)
	if res.Instructions == 0 {
		t.Fatalf("no forward progress (%s)", replay)
	}
	if audits < 5 {
		t.Fatalf("only %d checkpoints audited — the stress proves nothing (%s)", audits, replay)
	}
	if sc.injectEvery > 0 && res.Recoveries == 0 {
		t.Fatalf("injection produced no recoveries (%s)", replay)
	}
}
