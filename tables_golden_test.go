package specsimp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specsimp/internal/core"
	"specsimp/internal/experiments"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden table files under testdata/")

// checkGolden compares rendered table output against its committed
// golden file; `go test -run Golden -update .` regenerates the files.
// The inputs below are synthetic fixtures, not simulation outputs, so
// these tests pin the formatters' layout — not the physics — and stay
// stable across performance work on the simulator itself.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if string(want) != got {
		t.Fatalf("%s output changed; rerun with -update if intentional.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func cellAt(mean, std float64) experiments.Cell { return experiments.Cell{Mean: mean, Std: std} }

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1", core.Table1())
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", system.Table2(system.DefaultConfig(system.DirectorySpec, workload.OLTP)))
}

func TestGoldenFig4Table(t *testing.T) {
	res := []experiments.Fig4Result{
		{
			Workload: "oltp",
			PerfByRate: map[int]experiments.Cell{
				0: cellAt(1, 0), 1: cellAt(0.998, 0.003), 10: cellAt(0.982, 0.004), 100: cellAt(0.861, 0.012),
			},
			Recoveries:   map[int]float64{0: 0, 1: 1, 10: 10, 100: 99},
			MeanLostWork: 7900,
		},
		{
			Workload: "jbb",
			PerfByRate: map[int]experiments.Cell{
				0: cellAt(1, 0), 1: cellAt(0.999, 0.001), 10: cellAt(0.990, 0.002), 100: cellAt(0.903, 0.008),
			},
			Recoveries:   map[int]float64{0: 0, 1: 1, 10: 10, 100: 100},
			MeanLostWork: 8100,
		},
	}
	checkGolden(t, "fig4", experiments.Fig4Table(res))
}

func TestGoldenFig5Table(t *testing.T) {
	res := []experiments.Fig5Result{
		{Workload: "oltp", StaticPerf: cellAt(1, 0), AdaptivePerf: cellAt(1.062, 0.011), Recoveries: 0.33, ReorderRate: 0.00012, MeanLinkUtil: 0.21},
		{Workload: "barnes", StaticPerf: cellAt(1, 0), AdaptivePerf: cellAt(1.018, 0.004), Recoveries: 0, ReorderRate: 0, MeanLinkUtil: 0.13},
	}
	checkGolden(t, "fig5", experiments.Fig5Table(res))
}

func TestGoldenReorderTable(t *testing.T) {
	res := []experiments.ReorderResult{
		{BandwidthBpc: 0.1, BandwidthMBs: 400, PerVNet: []float64{0, 0.00021, 0.00007, 0}, Total: 0.00009, Recoveries: 0.67, MeanLinkUtil: 0.34},
		{BandwidthBpc: 0.8, BandwidthMBs: 3200, PerVNet: []float64{0, 0.00002, 0, 0}, Total: 0.00001, Recoveries: 0, MeanLinkUtil: 0.08},
	}
	checkGolden(t, "reorder", experiments.ReorderTable(res))
}

func TestGoldenSnoopTable(t *testing.T) {
	res := []experiments.SnoopResult{
		{Workload: "oltp", Perf: cellAt(0.997, 0.006), CornerDetected: 0, FullCornerHit: 2.5},
		{Workload: "apache", Perf: cellAt(1.001, 0.004), CornerDetected: 0, FullCornerHit: 1},
	}
	checkGolden(t, "snoop", experiments.SnoopTable(res))
}

func TestGoldenBufferTable(t *testing.T) {
	res := []experiments.BufferResult{
		{BufferSize: 0, Perf: cellAt(1, 0), Recoveries: 0, Timeouts: 0},
		{BufferSize: 8, Perf: cellAt(0.988, 0.009), Recoveries: 0, Timeouts: 0},
		{BufferSize: 2, Perf: cellAt(0.471, 0.083), Recoveries: 12.3, Timeouts: 12.3},
	}
	checkGolden(t, "buffers", experiments.BufferTable(res))
}

func TestGoldenScaleTable(t *testing.T) {
	// The 4×4/8×8 cells carry the same measurements as before the
	// sharer-set refactor (full-bitmap behavior is bit-identical at ≤64
	// nodes); the 16×16 rows show the wide formats, with the
	// limited-pointer overflow broadcasts visible as extra invalidation
	// traffic. The snooping 256-node point is a real run on the
	// segmented address network, and the 1024-node point (past even that
	// network's ceiling) exercises the unsupported-row rendering.
	res := []experiments.ScaleResult{
		{Kind: "directory-spec", Workload: "oltp", Width: 4, Height: 4, Sharers: "bitmap", Perf: cellAt(0.222, 0.010), PerfVs4x4: cellAt(1, 0.044), Recoveries: 0, MissLatency: 372.0, MeanLinkUtil: 0.109, Invalidations: 118},
		{Kind: "directory-spec", Workload: "oltp", Width: 8, Height: 8, Sharers: "bitmap", Perf: cellAt(0.422, 0.002), PerfVs4x4: cellAt(1.902, 0.010), Recoveries: 0, MissLatency: 629.9, MeanLinkUtil: 0.106, Invalidations: 224},
		{Kind: "directory-spec", Workload: "oltp", Width: 16, Height: 16, Sharers: "limited", Perf: cellAt(0.713, 0.004), PerfVs4x4: cellAt(3.212, 0.018), Recoveries: 0, MissLatency: 1021.4, MeanLinkUtil: 0.094, Invalidations: 10180, InvBroadcasts: 39},
		{Kind: "directory-spec", Workload: "oltp", Width: 16, Height: 16, Sharers: "coarse", Perf: cellAt(0.721, 0.003), PerfVs4x4: cellAt(3.248, 0.014), Recoveries: 0, MissLatency: 1008.7, MeanLinkUtil: 0.093, Invalidations: 1693},
		{Kind: "snoop-spec", Workload: "oltp", Width: 4, Height: 4, Sharers: "-", Perf: cellAt(0.355, 0.011), PerfVs4x4: cellAt(1, 0.032), Recoveries: 0, MissLatency: 331.0, MeanLinkUtil: 0.134},
		{Kind: "snoop-spec", Workload: "oltp", Width: 8, Height: 8, Sharers: "-", Perf: cellAt(0.805, 0.017), PerfVs4x4: cellAt(2.265, 0.048), Recoveries: 0, MissLatency: 554.2, MeanLinkUtil: 0.158},
		{Kind: "snoop-spec", Workload: "oltp", Width: 16, Height: 16, Sharers: "-", Perf: cellAt(1.396, 0.026), PerfVs4x4: cellAt(3.932, 0.073), Recoveries: 0, MissLatency: 1315.7, MeanLinkUtil: 0.118},
		{Kind: "snoop-spec", Workload: "oltp", Width: 32, Height: 32, Sharers: "-",
			Err: "system: snooping systems cap at 256 nodes even on the segmented address network (every ordered request still reaches every node); 1024 nodes needs a directory kind"},
	}
	checkGolden(t, "scale64", experiments.ScaleTable(res))
}

// TestGoldenTable2Scales guards the sized variant: the 8×8 Table 2
// parameter block renders the scaled geometry.
func TestGoldenTable2Scaled(t *testing.T) {
	cfg := system.DefaultConfigSized(system.SnoopSpec, workload.OLTP, 8, 8)
	checkGolden(t, "table2-8x8", system.Table2(cfg))
}
