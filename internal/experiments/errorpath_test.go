package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specsimp/internal/runner"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

var updateErrGolden = flag.Bool("update", false, "rewrite golden files")

// TestUnsupportedDesignPointCSVGolden pins the artifact rendering of
// the PR-3 per-point error path byte for byte: a snooping design point
// beyond system.MaxSegmentedSnoopNodes (the 256-node segmented-bus
// ceiling; 16×16 snooping is a real run now) fails validation (fast,
// before any kernel exists), the grid keeps running, and the point's
// CSV row carries zero metrics plus the comma-sanitized error message
// in the trailing error column — next to a healthy point's row in the
// same artifact.
func TestUnsupportedDesignPointCSVGolden(t *testing.T) {
	dir := t.TempDir()
	sink, err := runner.NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Uniform

	good := system.DefaultConfigSized(system.SnoopSpec, wl, 2, 2)
	good.CheckpointInterval = 1_000
	good.CyclesPerSecond = 600_000
	good.TimeoutCycles = 0

	bad := system.DefaultConfigSized(system.SnoopSpec, wl, 32, 32)
	bad.CheckpointInterval = 1_000
	bad.CyclesPerSecond = 600_000
	bad.TimeoutCycles = 0

	pts := []runner.Point{
		SysPoint("scale64", good, 20_000, map[string]string{"geom": "2x2", "kind": "snoop-spec", "sharers": "n/a"}, 0),
		SysPoint("scale64", bad, 20_000, map[string]string{"geom": "32x32", "kind": "snoop-spec", "sharers": "n/a"}, 0),
	}
	ex := &runner.Runner{Workers: 1, Sink: sink}
	res := ex.Run(pts)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("healthy 2x2 point failed: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("32x32 snooping point did not fail validation")
	}

	got, err := os.ReadFile(filepath.Join(dir, "scale64.csv"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "scale64-error.golden")
	if *updateErrGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("scale64.csv drifted from golden.\n got: %q\nwant: %q", got, want)
	}
}
