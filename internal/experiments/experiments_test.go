package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsimp/internal/runner"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// run executes the named registered experiment the way sweep and
// campaigns do, RunExperiment on its ByName entry, and returns the
// typed aggregate. List-valued knobs travel as p.Axes overrides.
func run[T any](tb testing.TB, name string, p Params) T {
	tb.Helper()
	e, ok := ByName(name)
	if !ok {
		tb.Fatalf("no registered experiment %q", name)
	}
	v, err := RunExperiment(e, p)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	out, ok := v.(T)
	if !ok {
		tb.Fatalf("%s aggregates to %T, not %T", name, v, out)
	}
	return out
}

// tiny returns fast parameters for unit testing the drivers.
func tiny() Params {
	return Params{
		Cycles:             200_000,
		Runs:               2,
		CyclesPerSecond:    200_000,
		CheckpointInterval: 4_000,
		Workloads:          []workload.Profile{workload.Uniform, workload.Hotspot},
	}
}

func TestFig4Driver(t *testing.T) {
	res := run[[]Fig4Result](t, "fig4", tiny())
	if len(res) != 2 {
		t.Fatalf("results=%d", len(res))
	}
	for _, r := range res {
		if r.PerfByRate[0].Mean != 1.0 {
			t.Fatalf("%s: base not normalized to 1: %v", r.Workload, r.PerfByRate[0])
		}
		if r.Recoveries[0] != 0 {
			t.Fatalf("%s: recoveries at rate 0", r.Workload)
		}
		if r.Recoveries[100] == 0 {
			t.Fatalf("%s: no recoveries at rate 100", r.Workload)
		}
		// Monotone-ish: rate 100 must not beat rate 0.
		if r.PerfByRate[100].Mean > 1.05 {
			t.Fatalf("%s: rate-100 perf %.3f exceeds baseline", r.Workload, r.PerfByRate[100].Mean)
		}
	}
	tab := Fig4Table(res)
	for _, want := range []string{"workload", "uniform", "hotspot", "projected@4GHz"} {
		if !strings.Contains(tab, want) {
			t.Errorf("Fig4 table missing %q:\n%s", want, tab)
		}
	}
}

func TestFig5Driver(t *testing.T) {
	p := tiny()
	p.Workloads = []workload.Profile{workload.Hotspot}
	res := run[[]Fig5Result](t, "fig5", p)
	if len(res) != 1 {
		t.Fatal("no results")
	}
	r := res[0]
	if r.AdaptivePerf.Mean <= 0 {
		t.Fatalf("adaptive perf %v", r.AdaptivePerf)
	}
	t.Logf("fig5 %s: adaptive=%.3f recoveries=%.1f reorder=%.5f util=%.2f",
		r.Workload, r.AdaptivePerf.Mean, r.Recoveries, r.ReorderRate, r.MeanLinkUtil)
	if !strings.Contains(Fig5Table(res), "adaptive") {
		t.Error("table broken")
	}
}

func TestReorderDriver(t *testing.T) {
	p := tiny()
	p.Workload = workload.Hotspot
	res := run[[]ReorderResult](t, "reorder", p)
	if len(res) != len(ReorderBandwidths) {
		t.Fatal("missing bandwidth points")
	}
	for _, r := range res {
		if r.Total < 0 || r.Total > 0.5 {
			t.Fatalf("reorder rate %v implausible", r.Total)
		}
	}
	// The paper: reordering is rare (<1% of messages overall).
	if res[len(res)-1].Total > 0.05 {
		t.Logf("warning: high-bandwidth reorder rate %.4f above expectations", res[len(res)-1].Total)
	}
	if !strings.Contains(ReorderTable(res), "fwd vnet") {
		t.Error("table broken")
	}
}

func TestSnoopDriver(t *testing.T) {
	p := tiny()
	p.Workloads = []workload.Profile{workload.Uniform}
	res := run[[]SnoopResult](t, "snoop", p)
	if len(res) != 1 {
		t.Fatal("no results")
	}
	r := res[0]
	if r.Perf.Mean < 0.5 || r.Perf.Mean > 1.5 {
		t.Fatalf("spec snooping perf %.3f wildly off the full protocol", r.Perf.Mean)
	}
	// The §5.3 claim: recoveries essentially never happen.
	if r.CornerDetected > 1 {
		t.Fatalf("corner detected %.1f times; should be rare", r.CornerDetected)
	}
	if !strings.Contains(SnoopTable(res), "corner") {
		t.Error("table broken")
	}
}

func TestBufferSweepDriver(t *testing.T) {
	p := tiny()
	p.Workload = workload.Hotspot
	res := run[[]BufferResult](t, "buffers", p)
	if len(res) != len(BufferSizes) {
		t.Fatal("missing sizes")
	}
	if res[0].Perf.Mean != 1.0 {
		t.Fatalf("worst-case baseline not 1.0: %v", res[0].Perf)
	}
	var at16, at8 float64
	for _, r := range res {
		switch r.BufferSize {
		case 16:
			at16 = r.Perf.Mean
		case 8:
			at8 = r.Perf.Mean
		}
	}
	t.Logf("buffer sweep: 16 -> %.3f, 8 -> %.3f", at16, at8)
	if at8 > at16*1.2 {
		t.Fatalf("8-entry buffers (%.3f) outperform 16 (%.3f)?", at8, at16)
	}
	if !strings.Contains(BufferTable(res), "worst-case") {
		t.Error("table broken")
	}
}

// TestScaleSweepDriver covers the scaling study: the directory protocol
// runs the full 4×4 → 8×8 → 16×16 curve (bitmap where it fits, both
// wide sharer-set formats at 256 nodes), the snooping 16×16 point runs
// for real on the segmented address network, and — the acceptance
// property — the sweep's CSV artifacts are byte-identical across
// worker-pool sizes.
func TestScaleSweepDriver(t *testing.T) {
	p := tiny()
	p.Cycles = 60_000
	p.Runs = 1
	p.Workloads = []workload.Profile{workload.Uniform}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var results [2][]ScaleResult
	for i, workers := range []int{1, 4} {
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Exec = &runner.Runner{Workers: workers, Sink: sink}
		results[i] = run[[]ScaleResult](t, "scale64", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	res := results[0]
	wantRows := 4 + 3 // directory: 4 variants; snoop: 3 geometries
	if len(res) != wantRows {
		t.Fatalf("results=%d, want %d", len(res), wantRows)
	}
	for _, r := range res {
		nodes := r.Width * r.Height
		if r.Err != "" {
			t.Errorf("%s/%s at %dx%d (%s) failed: %s", r.Kind, r.Workload, r.Width, r.Height, r.Sharers, r.Err)
			continue
		}
		if nodes >= 64 && r.Perf.Mean <= 0 {
			t.Errorf("%s/%s at %dx%d made no progress", r.Kind, r.Workload, r.Width, r.Height)
		}
		if r.Recoveries > 0 {
			t.Errorf("%s/%s at %dx%d recovered %.1f times on a race-free configuration",
				r.Kind, r.Workload, r.Width, r.Height, r.Recoveries)
		}
		// End-to-end plumbing of the new traffic counters: the 256-node
		// directory machine shares enough for the wide formats to
		// invalidate (snooping has no directory Inv traffic to count).
		if r.Kind == "directory-spec" && nodes > 64 && r.Invalidations == 0 {
			t.Errorf("%s at 16x16: no invalidation traffic reached the driver (counter plumbing broken?)", r.Sharers)
		}
	}
	for _, name := range []string{"scale64.csv", "scale64.json"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not byte-reproducible across -parallel settings", name)
		}
	}
}

// TestScale1024SweepDriver pins the 1024-node study's shape: every
// point succeeds except snooping at 32×32 (past the segmented address
// network's 256-node ceiling — the error column's standing exercise),
// the 32×32 directory machine makes real forward progress on the
// coarse-vector format, and artifacts are byte-reproducible across
// -parallel settings. Tile-count/shape independence is covered by the
// CI lane's -shards 1/2/4/4x1/2x2 diffs at sweep scale.
func TestScale1024SweepDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node builds are slow; CI runs the full lane")
	}
	p := tiny()
	p.Cycles = 60_000
	p.Runs = 1
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var results [2][]ScaleResult
	for i, workers := range []int{1, 4} {
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Exec = &runner.Runner{Workers: workers, Sink: sink}
		results[i] = run[[]ScaleResult](t, "scale1024", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	res := results[0]
	wantRows := 4 + 2 // directory: 4 geometries; snoop: 16x16 + 32x32
	if len(res) != wantRows {
		t.Fatalf("results=%d, want %d", len(res), wantRows)
	}
	for _, r := range res {
		nodes := r.Width * r.Height
		if r.Kind == "snoop-spec" && nodes > system.MaxSegmentedSnoopNodes {
			if r.Err == "" {
				t.Errorf("snooping at %dx%d should be a reported error row", r.Width, r.Height)
			}
			continue
		}
		if r.Err != "" {
			t.Errorf("%s at %dx%d (%s) failed: %s", r.Kind, r.Width, r.Height, r.Sharers, r.Err)
			continue
		}
		if r.Perf.Mean <= 0 {
			t.Errorf("%s at %dx%d made no progress", r.Kind, r.Width, r.Height)
		}
		if r.Recoveries > 0 {
			t.Errorf("%s at %dx%d recovered %.1f times on a race-free configuration",
				r.Kind, r.Width, r.Height, r.Recoveries)
		}
	}
	for _, name := range []string{"scale1024.csv", "scale1024.json"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not byte-reproducible across -parallel settings", name)
		}
	}
}

func TestSlowStartAblationDriver(t *testing.T) {
	p := tiny()
	p.Workload = workload.Hotspot
	p.Axes = map[string][]string{"limit": {"1", "4"}}
	res := run[[]SlowStartResult](t, "slowstart", p)
	if len(res) != 2 {
		t.Fatal("missing points")
	}
	for _, r := range res {
		if r.Perf.Mean <= 0 {
			t.Fatalf("limit %d: no progress", r.Limit)
		}
	}
}

func TestCheckpointAblationDriver(t *testing.T) {
	p := tiny()
	p.Axes = map[string][]string{"interval": {"2000", "16000"}}
	res := run[[]CheckpointResult](t, "checkpoint", p)
	if len(res) != 2 {
		t.Fatal("missing points")
	}
	if res[0].LogHighWater <= 0 || res[1].LogHighWater <= 0 {
		t.Fatal("no log occupancy measured")
	}
	// Longer intervals hold more uncommitted log state.
	if res[1].LogHighWater < res[0].LogHighWater {
		t.Logf("note: high water %0.f < %0.f despite longer interval (small run)", res[1].LogHighWater, res[0].LogHighWater)
	}
}

// TestDriverArtifacts runs one driver with an artifact sink and checks
// the tentpole contract: one CSV row per run, a JSON summary per
// experiment, both matching the aggregated in-memory results.
func TestDriverArtifacts(t *testing.T) {
	p := tiny()
	dir := t.TempDir()
	sink, err := runner.NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Exec = &runner.Runner{Workers: 2, Sink: sink}
	res := run[[]Fig4Result](t, "fig4", p)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	csvData, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(csvData), "\n"), "\n")
	wantRows := len(p.Workloads) * len(Fig4Rates) * p.Runs
	if len(lines) != 1+wantRows {
		t.Fatalf("fig4.csv has %d lines, want header + %d rows", len(lines), wantRows)
	}
	header := lines[0]
	for _, col := range []string{"experiment", "workload", "repeat", "seed", "rate", "perf", "recoveries"} {
		if !strings.Contains(header, col) {
			t.Errorf("fig4.csv header missing %q: %s", col, header)
		}
	}

	var summary []Fig4Result
	data, err := os.ReadFile(filepath.Join(dir, "fig4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &summary); err != nil {
		t.Fatalf("fig4.json: %v", err)
	}
	if len(summary) != len(res) {
		t.Fatalf("summary has %d workloads, driver returned %d", len(summary), len(res))
	}
	for i := range summary {
		if summary[i].Workload != res[i].Workload || summary[i].PerfByRate[100] != res[i].PerfByRate[100] {
			t.Fatalf("summary[%d] %+v diverges from driver result %+v", i, summary[i], res[i])
		}
	}
}

// TestDriverDeterminism is the satellite reproducibility test: the same
// grid executed twice (different worker counts) emits byte-identical
// CSV and JSON artifacts.
func TestDriverDeterminism(t *testing.T) {
	p := tiny()
	p.Axes = map[string][]string{"interval": {"2000", "8000"}}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, workers := range []int{1, 4} {
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Exec = &runner.Runner{Workers: workers, Sink: sink}
		run[[]CheckpointResult](t, "checkpoint", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"checkpoint.csv", "checkpoint.json"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s not reproducible across identical grids", name)
		}
	}
}

// TestScaleSweepShardDeterminism is the intra-run parallelism contract
// the CI parallel-determinism lane enforces: scale64 artifacts are
// byte-identical for every requested -shards value (directory points
// run the conservative-window engine at the clamped shard count;
// snooping points always run serial). The across-run worker count
// varies too, so both parallelism axes are exercised at once.
func TestScaleSweepShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scale64 grid is slow; the CI lane runs it at full size")
	}
	p := tiny()
	p.Cycles = 20_000
	p.Workloads = []workload.Profile{workload.Uniform}
	shardCounts := []int{1, 2, 4}
	dirs := make([]string, len(shardCounts))
	for i, shards := range shardCounts {
		dirs[i] = t.TempDir()
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		p.Exec = &runner.Runner{Workers: 1 + i, Sink: sink}
		run[[]ScaleResult](t, "scale64", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"scale64.csv", "scale64.json"} {
		ref, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dirs); i++ {
			got, err := os.ReadFile(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s differs between -shards %d and -shards %d", name, shardCounts[0], shardCounts[i])
			}
		}
	}
}

// TestAvailabilityDriver checks the availability sweep's shape and that
// the fault regimes actually stress the machine at unit-test scale:
// every regime x cadence point recovers, the rows expose the
// degraded-mode and distribution columns, and the adaptive controller
// reports a final interval.
func TestAvailabilityDriver(t *testing.T) {
	p := tiny()
	res := run[[]AvailabilityResult](t, "availability", p)
	if len(res) != 12 {
		t.Fatalf("rows=%d, want 4 regimes x 3 cadences", len(res))
	}
	for _, r := range res {
		if r.Recoveries == 0 {
			t.Errorf("%s/%s: no recoveries", r.Regime, r.Cadence)
		}
		if r.RecoveryLatMean <= 0 || r.RecoveryLatMax <= 0 {
			t.Errorf("%s/%s: empty recovery-latency distribution (mean=%v max=%v)",
				r.Regime, r.Cadence, r.RecoveryLatMean, r.RecoveryLatMax)
		}
		if r.DegradedPct <= 0 {
			t.Errorf("%s/%s: no degraded time despite recoveries", r.Regime, r.Cadence)
		}
		if r.FinalInterval == 0 {
			t.Errorf("%s/%s: no final checkpoint interval", r.Regime, r.Cadence)
		}
		if r.Cadence == "adaptive" && r.FinalInterval > float64(p.CheckpointInterval) {
			t.Errorf("%s/adaptive: final interval %v above the base %d (controller must not relax past base)",
				r.Regime, r.FinalInterval, p.CheckpointInterval)
		}
	}
}

// TestAvailabilitySweepShardDeterminism extends the intra-run
// parallelism contract to the availability sweep: its CSV and JSON
// artifacts — which carry the new degraded-mode and distribution
// columns — are byte-identical for every -shards value, with the
// across-run worker count varied at the same time.
func TestAvailabilitySweepShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("availability grid is slow; the CI lane runs the full CLI variant")
	}
	p := tiny()
	shardCounts := []int{1, 2, 4}
	dirs := make([]string, len(shardCounts))
	for i, shards := range shardCounts {
		dirs[i] = t.TempDir()
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		p.Exec = &runner.Runner{Workers: 1 + i, Sink: sink}
		run[[]AvailabilityResult](t, "availability", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"availability.csv", "availability.json"} {
		ref, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dirs); i++ {
			got, err := os.ReadFile(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s differs between -shards %d and -shards %d", name, shardCounts[0], shardCounts[i])
			}
		}
	}
}

// TestWorkloadsDriver checks the workload-realism study's shape: the
// full grid runs on both speculative protocols, every cell lands, and
// the skew/phase axes show up in the rows.
func TestWorkloadsDriver(t *testing.T) {
	p := tiny()
	p.Cycles = 50_000
	p.Runs = 1
	p.Workload = workload.OLTP
	res := run[[]WorkloadsResult](t, "workloads", p)
	grid := workloadsGrid(workload.OLTP)
	if want := 2 * len(grid); len(res) != want {
		t.Fatalf("rows=%d, want %d (grid=%d x 2 kinds)", len(res), want, len(grid))
	}
	idioms, skewed, phased := map[string]bool{}, false, false
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("%s/%s idiom=%s skew=%g phase=%d errored: %s", r.Kind, r.Workload, r.Idiom, r.Skew, r.Phase, r.Err)
		}
		if r.Perf.Mean <= 0 {
			t.Fatalf("%s/%s idiom=%s: no forward progress", r.Kind, r.Workload, r.Idiom)
		}
		idioms[r.Idiom] = true
		skewed = skewed || r.Skew > 0
		phased = phased || r.Phase > 0
	}
	if len(idioms) != 5 || !skewed || !phased {
		t.Fatalf("grid axes incomplete: idioms=%v skewed=%v phased=%v", idioms, skewed, phased)
	}
	table := WorkloadsTable(res)
	for _, want := range []string{"oltp", "migratory", "ring", "scan", "broadcast", "zipf s"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestWorkloadsTraceCollapsesGrid: a trace replay has no skew/phase/idiom
// knobs, so the study collapses to its single recorded stream per
// protocol (and the full grid keeps its documented 18 shapes).
func TestWorkloadsTraceCollapsesGrid(t *testing.T) {
	if got := len(workloadsGrid(workload.OLTP)); got != 18 {
		t.Fatalf("full grid has %d variants, want 18", got)
	}
	cfg := system.DefaultConfig(system.DirectorySpec, workload.Uniform)
	cfg.Recorder = workload.NewTraceRecorder(cfg.Workload.Name, cfg.Nodes)
	system.RunOne(cfg, 20_000)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := cfg.Recorder.Trace().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	wl, err := workload.FromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := workloadsGrid(wl); len(got) != 1 || got[0] != (wlVariant{}) {
		t.Fatalf("trace grid = %v, want the single recorded shape", got)
	}
	p := tiny()
	p.Cycles = 30_000
	p.Runs = 1
	p.Workload = wl
	res := run[[]WorkloadsResult](t, "workloads", p)
	if len(res) != 2 {
		t.Fatalf("trace study rows=%d, want 1 per protocol", len(res))
	}
	for _, r := range res {
		if r.Err != "" || r.Perf.Mean <= 0 {
			t.Fatalf("trace replay cell failed: %+v", r)
		}
		if r.Workload != wl.Name {
			t.Fatalf("row workload %q, want %q", r.Workload, wl.Name)
		}
	}
}

// TestWorkloadsSweepShardDeterminism: the workloads artifacts are
// byte-identical for every -shards value — the CI parallel-determinism
// lane's byte-diff in test form.
func TestWorkloadsSweepShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("workloads grid is slow; the CI lane runs it at full size")
	}
	p := tiny()
	p.Cycles = 20_000
	p.Runs = 1
	shardCounts := []int{1, 2, 4}
	dirs := make([]string, len(shardCounts))
	for i, shards := range shardCounts {
		dirs[i] = t.TempDir()
		sink, err := runner.NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		p.Shards = shards
		p.Exec = &runner.Runner{Workers: 1 + i, Sink: sink}
		run[[]WorkloadsResult](t, "workloads", p)
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"workloads.csv", "workloads.json"} {
		ref, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dirs); i++ {
			got, err := os.ReadFile(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("%s differs between -shards %d and -shards %d", name, shardCounts[0], shardCounts[i])
			}
		}
	}
}
