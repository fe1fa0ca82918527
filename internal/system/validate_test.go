package system

import (
	"strings"
	"testing"
	"time"

	"specsimp/internal/directory"
	"specsimp/internal/snoop"
	"specsimp/internal/workload"
)

// TestValidateOversizeMachines pins the bugfix: an oversize machine is
// a config error reported before any kernel, network or protocol is
// built — not a panic from deep inside directory.New.
func TestValidateOversizeMachines(t *testing.T) {
	// A 16×16 directory machine on the default (auto-picked) format is
	// legal and builds.
	cfg := DefaultConfigSized(DirectorySpec, workload.Uniform, 16, 16)
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("default 16x16 directory config rejected: %v", err)
	}
	if _, err := BuildChecked(cfg); err != nil {
		t.Fatalf("default 16x16 directory build failed: %v", err)
	}

	// Forcing the exact bitmap past its 64-node ceiling is the
	// historical panic; it must now surface as a descriptive error.
	bad := cfg
	bad.Sharers = directory.FullBitmap
	err := ValidateConfig(bad)
	if err == nil || !strings.Contains(err.Error(), "64 nodes") {
		t.Fatalf("bitmap at 256 nodes: got %v, want 64-node-cap error", err)
	}
	if _, berr := BuildChecked(bad); berr == nil {
		t.Fatal("BuildChecked accepted a 256-node bitmap machine")
	}

	// Snooping at 256 nodes rides the segmented address network
	// (ScaledBusConfig) and validates; on a flat bus it still caps at
	// 64 nodes, and past 256 nodes no bus model helps.
	segSnoop := DefaultConfigSized(SnoopSpec, workload.Uniform, 16, 16)
	if err := ValidateConfig(segSnoop); err != nil {
		t.Fatalf("snooping at 256 nodes on the segmented bus rejected: %v", err)
	}
	flat := segSnoop
	flat.Bus = snoop.DefaultBusConfig(256)
	err = ValidateConfig(flat)
	if err == nil || !strings.Contains(err.Error(), "flat snooping bus") {
		t.Fatalf("256-node snooping on a flat bus: got %v, want flat-bus-cap error", err)
	}
	huge := DefaultConfigSized(SnoopSpec, workload.Uniform, 32, 32)
	err = ValidateConfig(huge)
	if err == nil || !strings.Contains(err.Error(), "directory kind") {
		t.Fatalf("snooping at 1024 nodes: got %v, want snoop-cap error", err)
	}

	// Network geometry problems propagate as errors too (historically a
	// panic mid-setup in network.New).
	short := cfg
	short.Net.Width, short.Net.Height = 1, 1
	short.Nodes = 1
	if err := ValidateConfig(short); err == nil {
		t.Fatal("1x1 torus accepted")
	}
	if _, err := BuildChecked(short); err == nil {
		t.Fatal("BuildChecked accepted a 1x1 torus")
	}
}

// TestRunOneCheckedRejectsOversizeSnoop pins the end-to-end error
// path: running a 1024-node snooping machine (past even the segmented
// address network's ceiling) returns the descriptive snoop-cap error —
// no panic, no partial construction — which is what the sweep engine's
// per-design-point error column relies on.
func TestRunOneCheckedRejectsOversizeSnoop(t *testing.T) {
	cfg := DefaultConfigSized(SnoopSpec, workload.Uniform, 32, 32)
	_, err := RunOneChecked(cfg, 10_000)
	if err == nil {
		t.Fatal("RunOneChecked accepted a 1024-node snooping machine")
	}
	for _, want := range []string{"256 nodes", "directory kind"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q not descriptive: missing %q", err, want)
		}
	}
}

// TestTimeoutFollowsCheckpointInterval pins the derived-timeout fix:
// DefaultConfig couples TimeoutCycles to 3× the checkpoint interval, so
// a caller that overrides CheckpointInterval afterwards must get the
// timeout re-derived — not silently keep 3× the *old* interval — while
// an explicitly overridden timeout is respected, and a timeout shorter
// than the interval is rejected outright.
func TestTimeoutFollowsCheckpointInterval(t *testing.T) {
	cfg := DefaultConfig(DirectorySpec, workload.Uniform)
	if cfg.TimeoutCycles != 3*cfg.CheckpointInterval {
		t.Fatalf("DefaultConfig: TimeoutCycles=%d, want 3x interval %d", cfg.TimeoutCycles, cfg.CheckpointInterval)
	}

	// Interval override after DefaultConfig: the derived timeout follows.
	cfg.CheckpointInterval /= 2
	s, err := BuildChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.TimeoutCycles != 3*cfg.CheckpointInterval {
		t.Fatalf("timeout not re-derived: got %d, want %d (3x the overridden interval)",
			s.Cfg.TimeoutCycles, 3*cfg.CheckpointInterval)
	}

	// An explicit timeout override survives a later interval change.
	exp := DefaultConfig(DirectorySpec, workload.Uniform)
	exp.CheckpointInterval = 2_000
	exp.TimeoutCycles = 9_000
	s, err = BuildChecked(exp)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.TimeoutCycles != 9_000 {
		t.Fatalf("explicit timeout overridden: got %d, want 9000", s.Cfg.TimeoutCycles)
	}

	// A timeout inside one checkpoint epoch is a config error for
	// directory kinds, not a latent false-deadlock generator.
	bad := DefaultConfig(DirectorySpec, workload.Uniform)
	bad.TimeoutCycles = bad.CheckpointInterval / 2
	err = ValidateConfig(bad)
	if err == nil || !strings.Contains(err.Error(), "TimeoutCycles") {
		t.Fatalf("sub-interval timeout: got %v, want TimeoutCycles error", err)
	}
	// TimeoutCycles == 0 stays the documented disarm.
	off := DefaultConfig(DirectorySpec, workload.Uniform)
	off.TimeoutCycles = 0
	if err := ValidateConfig(off); err != nil {
		t.Fatalf("disarmed watchdog rejected: %v", err)
	}
}

// TestValidateFaultAndCadenceConfig pins the sustained-fault and
// adaptive-cadence validation: regimes need a positive rate and clock,
// unknown regimes are rejected, and the cadence controller is
// directory-only (snooping checkpoints on a request-count cadence the
// controller cannot steer).
func TestValidateFaultAndCadenceConfig(t *testing.T) {
	cfg := DefaultConfig(DirectorySpec, workload.Uniform)
	cfg.FaultRegime = FaultStorm
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("storm regime with zero FaultRate validated")
	}
	cfg.FaultRate = 10
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("storm regime with a rate rejected: %v", err)
	}
	cfg.CyclesPerSecond = 0
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("fault regime without CyclesPerSecond validated (the rate is per second)")
	}

	bad := DefaultConfig(DirectorySpec, workload.Uniform)
	bad.FaultRegime = FaultRegime(17)
	if err := ValidateConfig(bad); err == nil {
		t.Fatal("unknown FaultRegime validated")
	}

	snoop := DefaultConfig(SnoopSpec, workload.Uniform)
	snoop.AdaptiveCheckpoint = true
	if err := ValidateConfig(snoop); err == nil {
		t.Fatal("AdaptiveCheckpoint on a snooping kind validated")
	}
	dir := DefaultConfig(DirectorySpec, workload.Uniform)
	dir.AdaptiveCheckpoint = true
	if err := ValidateConfig(dir); err != nil {
		t.Fatalf("AdaptiveCheckpoint on a directory kind rejected: %v", err)
	}
}

// TestValidateCacheGeometry: an L1 or L2 override that cache.New would
// refuse is a config error naming the level and the numbers, returned by
// ValidateConfig and by BuildChecked before anything is built, for both
// protocol families.
func TestValidateCacheGeometry(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"3MB L2", func(c *Config) { c.L2Bytes = 3 << 20 }, "L2 cache: 3145728 bytes / 4 ways yields non-power-of-two set count 12288"},
		{"3-way L2", func(c *Config) { c.L2Ways = 3 }, "L2 cache: 4194304 bytes / 3 ways"},
		{"16MB L2", func(c *Config) { c.L2Bytes = 16 << 20 }, "L2 cache: 16777216 bytes / 4 ways yields 65536 sets"},
		{"3-way L1", func(c *Config) { c.L1Ways = 3 }, "L1 cache: 131072 bytes / 3 ways yields non-power-of-two set count 682"},
		{"L1 under one set", func(c *Config) { c.L1Bytes = 128 }, "L1 cache: 128 bytes / 4 ways yields non-power-of-two set count 0"},
	}
	for _, kind := range []Kind{DirectorySpec, SnoopSpec} {
		for _, tc := range cases {
			cfg := DefaultConfig(kind, workload.OLTP)
			tc.set(&cfg)
			err := ValidateConfig(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s %s: ValidateConfig = %v, want an error containing %q", kind, tc.name, err, tc.want)
			}
			if _, err := BuildChecked(cfg); err == nil {
				t.Errorf("%s %s: BuildChecked accepted the geometry", kind, tc.name)
			}
		}
		largest := DefaultConfig(kind, workload.OLTP)
		largest.L2Bytes = 8 << 20 // 32,768 sets at 4 ways: the largest a cache may have
		if err := ValidateConfig(largest); err != nil {
			t.Errorf("%s 8MB L2 rejected: %v", kind, err)
		}
	}
}

// TestBuildPanicsStayForLegacyCallers keeps the documented contract of
// the unchecked constructors: Build panics (with the same descriptive
// error) for callers that treat configuration as a programming error.
func TestBuildPanicsStayForLegacyCallers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build did not panic on an invalid config")
		}
	}()
	cfg := DefaultConfigSized(DirectorySpec, workload.Uniform, 16, 16)
	cfg.Sharers = directory.FullBitmap
	Build(cfg)
}

// TestZeroCheckpointIntervalRejected: a directory machine with no
// checkpoint interval would re-checkpoint at cycle 0 forever, so it is
// a descriptive config error (a sweep reports it for the design point)
// instead of a hang. Snooping kinds checkpoint on ordered requests and
// still accept it.
func TestZeroCheckpointIntervalRejected(t *testing.T) {
	for _, kind := range []Kind{DirectoryFull, DirectorySpec} {
		for _, shards := range []int{0, 1} {
			cfg := DefaultConfig(kind, workload.Uniform)
			cfg.CheckpointInterval = 0
			cfg.Shards = shards
			if _, err := RunOneChecked(cfg, 1_000); err == nil || !strings.Contains(err.Error(), "CheckpointInterval must be positive") {
				t.Errorf("%s shards=%d: zero interval gave %v, want CheckpointInterval error", kind, shards, err)
			}
		}
	}
	snoop := DefaultConfig(SnoopSpec, workload.Uniform)
	snoop.CheckpointInterval = 0
	if err := ValidateConfig(snoop); err != nil {
		t.Errorf("snooping kind with zero cycle interval rejected: %v", err)
	}
}

// TestTinyCheckpointIntervalCompletes: a checkpoint interval below four
// cycles used to make the watchdog period (a quarter interval) zero, so
// its tick rescheduled itself in the same cycle forever. The period is
// now at least one cycle and the run finishes, on both engines and on
// the snooping watchdog too.
func TestTinyCheckpointIntervalCompletes(t *testing.T) {
	hang := time.AfterFunc(2*time.Minute, func() { panic("tiny-interval run hung") })
	defer hang.Stop()
	for _, tc := range []struct {
		kind   Kind
		shards int
	}{{DirectorySpec, 0}, {DirectorySpec, 1}, {SnoopSpec, 0}} {
		cfg := DefaultConfig(tc.kind, workload.OLTP)
		cfg.CheckpointInterval = 2
		cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		cfg.Shards = tc.shards
		r, err := RunOneChecked(cfg, 20_000)
		if err != nil {
			t.Fatalf("%s shards=%d: %v", tc.kind, tc.shards, err)
		}
		if r.Cycles != 20_000 || r.Timeouts == 0 {
			t.Errorf("%s shards=%d: cycles=%d timeouts=%d, want a full run with the watchdog firing", tc.kind, tc.shards, r.Cycles, r.Timeouts)
		}
	}
}
