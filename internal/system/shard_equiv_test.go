package system

import (
	"reflect"
	"strings"
	"testing"

	"specsimp/internal/sim"
	"specsimp/internal/workload"
)

// shardedBase returns a directory system configured to exercise the
// interesting machinery under sharded execution: perturbed forwards
// (mis-speculation detections on Spec), periodic injected recoveries,
// the armed timeout watchdog, checkpoints every few thousand cycles,
// and small caches for writeback pressure.
func shardedBase(kind Kind, wl workload.Profile, w, h int) Config {
	cfg := DefaultConfigSized(kind, wl, w, h)
	cfg.CheckpointInterval = 2_000
	cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
	cfg.SlowStartWindow = 5_000
	cfg.InjectRecoveryEvery = 17_000
	cfg.ReorderInjectProb = 0.3
	cfg.L2Bytes = 8 * 1024
	cfg.L1Bytes = 2 * 1024
	return cfg
}

func runSharded(t *testing.T, cfg Config, shards int, cycles sim.Time) Results {
	t.Helper()
	c := cfg
	c.Shards = shards
	res, err := RunOneChecked(c, cycles)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return res
}

// TestShardedResultsBitIdenticalAcrossCounts is the tentpole property:
// the same run produces deep-equal Results — every counter, derived
// float and recovery statistic — at 1, 2 and 4 shards, for both
// directory variants, with recoveries, checkpoints, slow-start and the
// watchdog all active.
func TestShardedResultsBitIdenticalAcrossCounts(t *testing.T) {
	for _, kind := range []Kind{DirectorySpec, DirectoryFull} {
		for _, wl := range []workload.Profile{workload.OLTP, workload.Hotspot} {
			cfg := shardedBase(kind, wl, 4, 4)
			ref := runSharded(t, cfg, 1, 60_000)
			if ref.Instructions == 0 {
				t.Fatalf("%s/%s: no forward progress", kind, wl.Name)
			}
			if kind == DirectorySpec && ref.Recoveries == 0 {
				t.Fatalf("%s/%s: expected recoveries under perturbation; the equivalence run is not exercising the recovery path", kind, wl.Name)
			}
			for _, n := range []int{2, 4} {
				got := runSharded(t, cfg, n, 60_000)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s/%s: results at %d shards diverged from serial:\nserial: %+v\nshards: %+v", kind, wl.Name, n, ref, got)
				}
			}
		}
	}
}

// TestShardedResultsBitIdentical8x8 extends the equivalence to the
// 64-node machine that dominates scale64 wall-clock (2 and 4 shards,
// plus 8 — a full column per shard).
func TestShardedResultsBitIdentical8x8(t *testing.T) {
	if testing.Short() {
		t.Skip("8x8 equivalence is slow; covered by the full run and the parallel-determinism CI lane")
	}
	cfg := shardedBase(DirectorySpec, workload.OLTP, 8, 8)
	ref := runSharded(t, cfg, 1, 40_000)
	for _, n := range []int{2, 4, 8} {
		if got := runSharded(t, cfg, n, 40_000); !reflect.DeepEqual(got, ref) {
			t.Errorf("8x8 results at %d shards diverged from serial:\nserial: %+v\nshards: %+v", n, ref, got)
		}
	}
}

// TestShardedRepeatedRunsEquivalent checks chopping Run into uneven
// chunks — which re-anchors the window edges at every chunk boundary —
// behaves identically at different shard counts as long as the call
// pattern matches. (Edge placement is part of the schedule: the
// guarantee is bit-identical results for identical Run sequences at
// any shard count, which is exactly what the sweep engine performs.)
func TestShardedRepeatedRunsEquivalent(t *testing.T) {
	run := func(shards int) Results {
		cfg := shardedBase(DirectorySpec, workload.Uniform, 4, 4)
		cfg.Shards = shards
		s, err := BuildChecked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		s.Run(11_000)
		s.Run(1)
		return s.Run(18_999)
	}
	ref := run(1)
	for _, n := range []int{2, 4} {
		if got := run(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("chunked runs at %d shards diverged from serial:\nserial: %+v\nshards: %+v", n, ref, got)
		}
	}
}

// TestTileGridAndMap pins the tile decomposition over divisor
// geometries: the auto-factorization's shape choices (near-square
// tiles, column strips on ties), equal tile populations, and — the
// property the lookahead table rests on — that every node's four torus
// neighbors live in a tile the lookahead table activates, wrap edges
// and single-row/column degenerates included.
func TestTileGridAndMap(t *testing.T) {
	cases := []struct{ w, h, shards, r, c int }{
		{4, 4, 1, 1, 1},
		{4, 4, 2, 1, 2}, // tie between 1x2 and 2x1: column strips win
		{4, 4, 4, 2, 2},
		{4, 4, 8, 2, 4}, // non-square grid on a square torus
		{4, 4, 16, 4, 4},
		{8, 4, 4, 1, 4}, // tie on a non-square torus: more columns
		{8, 4, 8, 2, 4}, // square 2x2 tiles beat 1x8 strips
		{4, 8, 2, 2, 1}, // row strips when they are squarer
		{2, 8, 4, 4, 1}, // single-column degenerate grid
		{16, 16, 8, 2, 4},
		{32, 32, 16, 4, 4},
	}
	for _, tc := range cases {
		r, c, ok := TileGrid(tc.w, tc.h, tc.shards)
		if !ok {
			t.Errorf("TileGrid(%d,%d,%d): no factorization found", tc.w, tc.h, tc.shards)
			continue
		}
		if r != tc.r || c != tc.c {
			t.Errorf("TileGrid(%d,%d,%d) = %dx%d, want %dx%d", tc.w, tc.h, tc.shards, r, c, tc.r, tc.c)
		}
		of := tileMap(tc.w, tc.h, r, c)
		pop := make([]int, tc.shards)
		for _, s := range of {
			pop[s]++
		}
		for s, p := range pop {
			if want := tc.w * tc.h / tc.shards; p != want {
				t.Errorf("%dx%d/%d tiles: tile %d holds %d nodes, want %d", tc.w, tc.h, tc.shards, s, p, want)
			}
		}
		look := tileLookahead(r, c, 18)
		for n := range of {
			x, y := n%tc.w, n/tc.w
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx := (x + d[0] + tc.w) % tc.w
				ny := (y + d[1] + tc.h) % tc.h
				m := ny*tc.w + nx
				if look[of[n]][of[m]] == 0 {
					t.Fatalf("%dx%d/%dx%d: neighbor pair %d->%d crosses inactive tile pair %d->%d",
						tc.w, tc.h, r, c, m, n, of[m], of[n])
				}
			}
		}
	}
	if _, _, ok := TileGrid(4, 4, 3); ok {
		t.Error("TileGrid(4,4,3) found a factorization; 3 divides neither side")
	}
	if _, _, ok := TileGrid(4, 4, 32); ok {
		t.Error("TileGrid(4,4,32) found a factorization; 32 tiles exceed any 4x4 grid")
	}
}

// TestShardedResultsBitIdentical16x16 extends the equivalence to the
// 256-node machine the scale1024 curve leans on, at every power-of-two
// tile count through 16 and across tile shapes at equal count, with a
// sustained fault regime and the adaptive checkpoint cadence active on
// top of the usual perturbations.
func TestShardedResultsBitIdentical16x16(t *testing.T) {
	if testing.Short() {
		t.Skip("16x16 equivalence is slow; covered by the parallel-determinism CI lane")
	}
	cfg := shardedBase(DirectorySpec, workload.OLTP, 16, 16)
	cfg.FaultRegime = FaultStorm
	cfg.FaultRate = 50
	cfg.CyclesPerSecond = 2e6
	cfg.AdaptiveCheckpoint = true
	ref := runSharded(t, cfg, 1, 30_000)
	if ref.Instructions == 0 {
		t.Fatal("no forward progress")
	}
	for _, n := range []int{2, 4, 8, 16} {
		if got := runSharded(t, cfg, n, 30_000); !reflect.DeepEqual(got, ref) {
			t.Errorf("16x16 results at %d tiles diverged from serial:\nserial: %+v\ntiles: %+v", n, ref, got)
		}
	}
	// Shape invariance at a fixed count: the auto grid for 4 tiles is
	// 2x2; pin 4x1 and 1x4 explicitly and demand the same bits.
	for _, grid := range [][2]int{{4, 1}, {1, 4}} {
		c := cfg
		c.Shards, c.ShardRows, c.ShardCols = 4, grid[0], grid[1]
		got, err := RunOneChecked(c, 30_000)
		if err != nil {
			t.Fatalf("grid %dx%d: %v", grid[0], grid[1], err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("16x16 results on a %dx%d grid diverged from serial", grid[0], grid[1])
		}
	}
}

// TestShardedValidation pins the config errors for illegal sharding
// requests: counts with no tile factorization, bad explicit grids,
// snooping kinds, finite buffers — and that the errors name the legal
// factorizations.
func TestShardedValidation(t *testing.T) {
	cfg := DefaultConfigSized(DirectorySpec, workload.OLTP, 4, 4)
	cfg.Shards = 3
	if err := ValidateConfig(cfg); err == nil {
		t.Error("3 shards on a 4x4 torus validated; want no-factorization error")
	} else if !strings.Contains(err.Error(), "2 (1x2 2x1)") {
		t.Errorf("no-factorization error does not list legal counts: %v", err)
	}
	// 8 was illegal under column strips (8 > width 4); as a 2x4 or 4x2
	// tile grid it now divides the torus.
	cfg.Shards = 8
	if err := ValidateConfig(cfg); err != nil {
		t.Errorf("8 shards on a 4x4 torus must tile as 2x4/4x2, got %v", err)
	}
	cfg.Shards = 32
	if err := ValidateConfig(cfg); err == nil {
		t.Error("32 shards on a 4x4 torus validated; want no-factorization error")
	}

	// Explicit grids: shape/count mismatch, non-dividing shape, and a
	// half-set pair are each their own descriptive error.
	bad := DefaultConfigSized(DirectorySpec, workload.OLTP, 4, 4)
	bad.Shards, bad.ShardRows, bad.ShardCols = 4, 2, 1
	if err := ValidateConfig(bad); err == nil || !strings.Contains(err.Error(), "2 tiles but Shards is 4") {
		t.Errorf("2x1 grid with Shards=4: got %v, want mismatch error", err)
	}
	bad.Shards, bad.ShardRows, bad.ShardCols = 6, 3, 2
	if err := ValidateConfig(bad); err == nil || !strings.Contains(err.Error(), "does not divide") {
		t.Errorf("3x2 grid on 4x4: got %v, want divisibility error", err)
	}
	bad.Shards, bad.ShardRows, bad.ShardCols = 4, 2, 0
	if err := ValidateConfig(bad); err == nil || !strings.Contains(err.Error(), "set together") {
		t.Errorf("half-set grid: got %v, want set-together error", err)
	}
	// A legal explicit grid derives Shards when it is left zero.
	derive := DefaultConfigSized(DirectorySpec, workload.OLTP, 4, 4)
	derive.ShardRows, derive.ShardCols = 4, 2
	if err := ValidateConfig(derive); err != nil {
		t.Errorf("explicit 4x2 grid with derived Shards rejected: %v", err)
	}

	snoopCfg := DefaultConfigSized(SnoopSpec, workload.OLTP, 4, 4)
	snoopCfg.Shards = 2
	if err := ValidateConfig(snoopCfg); err == nil {
		t.Error("2 shards on a snooping system validated; want serial-only error")
	}
	snoopCfg.Shards = 1
	if err := ValidateConfig(snoopCfg); err != nil {
		t.Errorf("1 shard on a snooping system must mean the classic path, got %v", err)
	}

	finite := DefaultConfigSized(DirectorySpec, workload.OLTP, 4, 4)
	finite.Net.BufferSize = 8
	finite.Shards = 2
	if err := ValidateConfig(finite); err == nil {
		t.Error("finite-buffer network validated for sharding; want lookahead error")
	}
}

// TestShardedSnoopFallsBackToClassic checks a snooping system with
// Shards=1 builds and runs on the classic path (byte-equal to Shards=0
// by construction — it is the same code path).
func TestShardedSnoopFallsBackToClassic(t *testing.T) {
	cfg := DefaultConfigSized(SnoopSpec, workload.OLTP, 4, 4)
	cfg.CheckpointInterval = 2_000
	ref, err := RunOneChecked(cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 1
	got, err := RunOneChecked(cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("snoop Shards=1 diverged from Shards=0 (must be the same classic path)")
	}
}
