// Package experiments implements the paper's evaluation (§5): one
// driver per table and figure, shared by cmd/sweep and the root
// benchmark suite. Each driver declares its design-point grid
// (experiment × workload × params × repeat), executes it on the sweep
// engine (internal/runner) — a bounded worker pool with deterministic
// per-point seeds — and aggregates the per-run metrics into structured
// results plus a formatted table in the paper's layout. When the engine
// carries an artifact sink, every run lands as a CSV row and every
// driver writes a JSON summary (see EXPERIMENTS.md "Artifact layout").
//
// Scale note: the paper's results are wall-clock rates at 4 GHz over
// seconds of simulated execution. This reproduction compresses the
// clock (Params.CyclesPerSecond) so a data point simulates in seconds of
// host time, and reports, alongside the compressed-clock measurement,
// an analytic projection at the paper's true 4 GHz scale computed from
// the *measured* mean lost work per recovery. EXPERIMENTS.md records
// both for every experiment.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"specsimp/internal/directory"
	"specsimp/internal/network"
	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// Params sizes an experiment run.
type Params struct {
	// Cycles is the simulated run length per data point.
	Cycles sim.Time
	// Runs is the number of perturbed runs per data point (paper §5.2).
	Runs int
	// CyclesPerSecond defines the compressed clock for rate-based
	// experiments (Figure 4).
	CyclesPerSecond float64
	// CheckpointInterval scales SafetyNet's cadence with the compressed
	// clock so the validation window stays proportionate.
	CheckpointInterval sim.Time
	// Workloads are the profiles to evaluate (default: the paper's 5).
	// They resolve the list-valued "workloads" axis of the suite-sweep
	// experiments; see Normalize for the full precedence chain.
	Workloads []workload.Profile
	// Workload resolves the single-valued "workload" axis of the
	// experiments that run one profile (reorder, buffers, the
	// ablations, ...). The zero Profile means "use the axis default".
	// Carrying a resolved profile — not a name — lets trace replays and
	// test-constructed profiles flow through unchanged.
	Workload workload.Profile
	// Axes carries raw per-axis value overrides (CLI/campaign-spec
	// strings, validated by Normalize against the experiment's declared
	// axes). Overrides win over the profile fields above and over the
	// declared defaults.
	Axes map[string][]string
	// Shards requests intra-run parallelism for the design points that
	// support it (the scale64/scale1024 directory machines): each
	// single run partitions its torus into that many conservative-
	// window tiles. Orthogonal to the Runner's across-run worker bound.
	// Values <= 1 (including the zero default) run each point on one
	// tile — still the windowed engine for shard-capable points, so
	// artifacts are byte-identical across every Shards value and every
	// tile shape. Per point the effective count is clamped to the
	// largest count with a legal tile factorization of the point's
	// torus, and snooping points always run the classic serial path.
	Shards int
	// ShardRows and ShardCols optionally pin the tile-grid shape
	// (R rows × C columns; the -shards RxC CLI form). Zero means
	// auto-factor per point (system.TileGrid). A pinned shape that does
	// not divide a point's torus falls back to auto-factoring the same
	// count there.
	ShardRows, ShardCols int
	// Exec is the sweep engine the driver submits its grid to: it
	// bounds worker concurrency and optionally persists artifacts. Nil
	// uses a fresh engine bounded at GOMAXPROCS with no artifacts.
	Exec *runner.Runner

	// Normalized axis state (see Normalize in registry.go): the typed,
	// validated value set per declared axis. normalized makes Normalize
	// idempotent, so a campaign plan's Params pass through RunExperiment
	// unchanged.
	axisValues   map[string][]string
	axisProfiles map[string][]workload.Profile
	normalized   bool
}

// effectiveTiles resolves the requested intra-run tiling for one design
// point's w×h torus. A pinned ShardRows×ShardCols shape that divides the
// torus is honored exactly; otherwise the request degrades to a count
// and the largest count <= requested with a legal tile factorization
// (system.TileGrid) wins, auto-factored per point (rows/cols 0). The
// result is never an invalid config: every returned tiling validates on
// that torus, and the artifacts are byte-identical whichever tiling is
// picked.
func effectiveTiles(p Params, w, h int) (shards, rows, cols int) {
	requested := p.Shards
	if p.ShardRows > 0 && p.ShardCols > 0 {
		if requested == 0 {
			requested = p.ShardRows * p.ShardCols
		}
		if requested == p.ShardRows*p.ShardCols &&
			h%p.ShardRows == 0 && w%p.ShardCols == 0 {
			return requested, p.ShardRows, p.ShardCols
		}
	}
	if requested > w*h {
		requested = w * h
	}
	for s := requested; s > 1; s-- {
		if _, _, ok := system.TileGrid(w, h, s); ok {
			return s, 0, 0
		}
	}
	return 1, 0, 0
}

// exec returns the configured sweep engine or a bounded default.
func (p Params) exec() *runner.Runner {
	if p.Exec != nil {
		return p.Exec
	}
	return &runner.Runner{}
}

// Quick returns bench-sized parameters (seconds of host time).
func Quick() Params {
	return Params{
		Cycles:             600_000,
		Runs:               2,
		CyclesPerSecond:    600_000,
		CheckpointInterval: 1_000,
		Workloads:          workload.Suite,
	}
}

// Standard returns the parameters used for EXPERIMENTS.md. The
// checkpoint interval is scaled down with the compressed clock so the
// validation window (3 intervals) stays well below even the highest
// injection rate's period (100/s -> every 15,000 cycles here).
func Standard() Params {
	return Params{
		Cycles:             1_500_000,
		Runs:               3,
		CyclesPerSecond:    1_500_000,
		CheckpointInterval: 2_000,
		Workloads:          workload.Suite,
	}
}

// Cell is one mean ± stddev measurement.
type Cell struct {
	Mean, Std float64
}

func (c Cell) String() string { return fmt.Sprintf("%.3f ±%.3f", c.Mean, c.Std) }

// cell builds a Cell from a sample, normalized by base (0 disables
// normalization of the mean and suppresses the error bar).
func cell(s *stats.Sample, base float64) Cell {
	if base <= 0 {
		return Cell{}
	}
	return Cell{Mean: s.Mean() / base, Std: s.StdDev() / base}
}

// ---- grid construction ----

// SysPoint declares one design-point run: a full system simulation of
// cfg for cycles, seeded deterministically from cfg.Seed and the repeat
// index (the §5.2 perturbation scheme). Every experiment grid and
// specsim -runs build their points with it.
func SysPoint(exp string, cfg system.Config, cycles sim.Time, params map[string]string, repeat int) runner.Point {
	return runner.Point{
		Experiment: exp,
		Workload:   cfg.Workload.Name,
		Params:     params,
		Repeat:     repeat,
		Seed:       runner.PerturbSeed(cfg.Seed, repeat),
		Run: func(seed uint64) (runner.Metrics, error) {
			c := cfg
			c.Seed = seed
			r, err := system.RunOneChecked(c, cycles)
			if err != nil {
				// An unbuildable machine (e.g. snooping at 1024 nodes)
				// fails this design point only; the grid keeps running.
				return runner.Metrics{}, err
			}
			return metricsFrom(r), nil
		},
	}
}

// repeats appends one SysPoint per perturbed run of a design point.
func repeats(pts []runner.Point, exp string, cfg system.Config, p Params, params map[string]string) []runner.Point {
	for rep := 0; rep < p.Runs; rep++ {
		pts = append(pts, SysPoint(exp, cfg, p.Cycles, params, rep))
	}
	return pts
}

// metricsFrom flattens a run's Results into the fixed metric schema
// shared by every experiment's CSV artifact.
func metricsFrom(r system.Results) runner.Metrics {
	m := runner.Metrics{
		Perf:              r.Perf,
		Cycles:            float64(r.Cycles),
		Instructions:      float64(r.Instructions),
		Recoveries:        float64(r.Recoveries),
		Checkpoints:       float64(r.Checkpoints),
		CheckpointStall:   float64(r.CheckpointStall),
		MeanLostWork:      r.MeanLostWork,
		MeanLinkUtil:      r.MeanLinkUtil,
		ReorderTotal:      r.TotalReorderRate,
		Deflections:       float64(r.Deflections),
		Timeouts:          float64(r.Timeouts),
		CornerDetected:    float64(r.CornerDetected),
		CornerHandled:     float64(r.CornerHandled),
		LogHighWaterBytes: float64(r.LogHighWaterBytes),
		Writebacks:        float64(r.Writebacks),
		WBRaces:           float64(r.WBRaces),
		Invalidations:     float64(r.Invalidations),
		InvBroadcasts:     float64(r.InvBroadcasts),
		SharerOverflows:   float64(r.SharerOverflows),
		Transactions:      float64(r.Transactions),
		MissLatencyMean:   r.MissLatencyMean,
		LimitStalls:       float64(r.LimitStalls),
		OrderViolations:   float64(r.OrderViolations),

		OutageCycles:            float64(r.OutageCycles),
		DegradedCycles:          float64(r.DegradedCycles),
		DegradedInstructions:    float64(r.DegradedInstructions),
		LogStallCycles:          float64(r.LogStallCycles),
		LogOverflows:            float64(r.LogOverflows),
		CheckpointIntervalFinal: float64(r.CheckpointIntervalFinal),
		RecoveryLatN:            float64(r.RecoveryLatency.N),
		RecoveryLatSum:          float64(r.RecoveryLatency.Sum),
		RecoveryLatMin:          float64(r.RecoveryLatency.Min),
		RecoveryLatMax:          float64(r.RecoveryLatency.Max),
		RollbackN:               float64(r.RollbackDist.N),
		RollbackSum:             float64(r.RollbackDist.Sum),
		RollbackMin:             float64(r.RollbackDist.Min),
		RollbackMax:             float64(r.RollbackDist.Max),
	}
	for v := 0; v < 4 && v < len(r.ReorderRatePerVNet); v++ {
		m.ReorderVNet[v] = r.ReorderRatePerVNet[v]
	}
	return m
}

// sampleOf gathers one metric across n consecutive results starting at
// i0 — the perturbed repeats of a single design point.
func sampleOf(res []runner.Result, i0, n int, key string) *stats.Sample {
	vals := make([]float64, n)
	for j := 0; j < n; j++ {
		vals[j] = res[i0+j].Metrics.Get(key)
	}
	s := stats.Of(vals...)
	return &s
}

// ---- Figure 4: performance vs mis-speculation rate ----

// Fig4Result holds one workload row of Figure 4.
type Fig4Result struct {
	Workload string
	// PerfByRate maps recoveries-per-(compressed)-second to normalized
	// performance (base: rate 0).
	PerfByRate map[int]Cell
	// Recoveries actually performed at each rate.
	Recoveries map[int]float64
	// MeanLostWork is the measured rollback distance in cycles, used
	// for the true-scale projection.
	MeanLostWork float64
}

// Fig4Rates are the paper's injection rates (per second).
var Fig4Rates = []int{0, 1, 10, 100}

// fig4Exp reproduces Figure 4: inject periodic recoveries into the
// non-speculative directory system and measure normalized performance.
type fig4Exp struct{}

func (fig4Exp) Name() string { return "fig4" }
func (fig4Exp) Title(Params) string {
	return "Figure 4: normalized performance vs mis-speculation rate"
}
func (fig4Exp) Axes() []Axis { return []Axis{workloadsAxis()} }
func (fig4Exp) Preamble(p Params) string {
	return fmt.Sprintf("compressed clock: 1 second = %.0f cycles; projections at true 4 GHz\n", p.CyclesPerSecond)
}

func (fig4Exp) Grid(p Params) []runner.Point {
	var pts []runner.Point
	for _, wl := range p.AxisProfiles("workloads") {
		for _, rate := range Fig4Rates {
			cfg := system.DefaultConfig(system.DirectoryFull, wl)
			cfg.CheckpointInterval = p.CheckpointInterval
			cfg.CyclesPerSecond = p.CyclesPerSecond
			if rate > 0 {
				cfg.InjectRecoveryEvery = sim.Time(p.CyclesPerSecond / float64(rate))
			}
			pts = repeats(pts, "fig4", cfg, p, map[string]string{"rate": strconv.Itoa(rate)})
		}
	}
	return pts
}

func (fig4Exp) Aggregate(p Params, res []runner.Result) any {
	wls := p.AxisProfiles("workloads")
	out := make([]Fig4Result, len(wls))
	i := 0
	for wi, wl := range wls {
		r := Fig4Result{Workload: wl.Name, PerfByRate: map[int]Cell{}, Recoveries: map[int]float64{}}
		var base float64
		for _, rate := range Fig4Rates {
			perf := sampleOf(res, i, p.Runs, "perf")
			if rate == 0 {
				base = perf.Mean()
			}
			r.PerfByRate[rate] = cell(perf, base)
			r.Recoveries[rate] = sampleOf(res, i, p.Runs, "recoveries").Mean()
			if lost := sampleOf(res, i, p.Runs, "mean_lost_work").Max(); lost > 0 {
				r.MeanLostWork = lost
			}
			i += p.Runs
		}
		out[wi] = r
	}
	return out
}

func (fig4Exp) Table(v any) string { return Fig4Table(v.([]Fig4Result)) }

// Fig4Table renders Figure 4 in the paper's layout plus the true-scale
// projection (4 GHz, Table 2 checkpoint interval).
func Fig4Table(results []Fig4Result) string {
	t := stats.NewTable("workload", "0/s", "1/s", "10/s", "100/s", "projected@4GHz 10/s", "projected@4GHz 100/s")
	for _, r := range results {
		// Projection: fractional loss = rate * lostWork / 4e9, with
		// lost work re-scaled to the paper's 100k-cycle interval
		// (rollback distance is ~4 checkpoint intervals).
		trueLost := 4.0 * 100_000
		proj := func(rate float64) string {
			return fmt.Sprintf("%.4f", 1-rate*trueLost/4e9)
		}
		t.AddRow(r.Workload,
			r.PerfByRate[0].String(), r.PerfByRate[1].String(),
			r.PerfByRate[10].String(), r.PerfByRate[100].String(),
			proj(10), proj(100))
	}
	return t.String()
}

// ---- Figure 5: static vs adaptive routing ----

// Fig5Result is one workload's static-vs-adaptive comparison at
// 400 MB/s links (0.1 bytes/cycle at 4 GHz).
type Fig5Result struct {
	Workload     string
	StaticPerf   Cell // normalized to itself: 1.0
	AdaptivePerf Cell // normalized to static
	Recoveries   float64
	ReorderRate  float64
	MeanLinkUtil float64 // static routing, paper reports 13-35%
}

// Fig5LinkBandwidth is 400 MB/s at the 4 GHz clock.
const Fig5LinkBandwidth = 0.1

// fig5Exp reproduces Figure 5: relative performance of static and
// adaptive routing under the speculatively simplified directory
// protocol.
type fig5Exp struct{}

func (fig5Exp) Name() string { return "fig5" }
func (fig5Exp) Title(Params) string {
	return "Figure 5: static vs adaptive routing (400 MB/s links)"
}
func (fig5Exp) Axes() []Axis { return []Axis{workloadsAxis()} }

func (fig5Exp) Grid(p Params) []runner.Point {
	var pts []runner.Point
	for _, wl := range p.AxisProfiles("workloads") {
		base := system.DefaultConfig(system.DirectorySpec, wl)
		base.CheckpointInterval = p.CheckpointInterval
		// Figure 5's networks (safe static; adaptive with full buffering)
		// cannot deadlock, and at 400 MB/s links a compressed-clock
		// timeout would only produce false positives: the experiment's
		// detector is the invalid-transition check, not the watchdog.
		base.TimeoutCycles = 0

		st := base
		st.Net = network.SafeStaticConfig(4, 4, Fig5LinkBandwidth)
		pts = repeats(pts, "fig5", st, p, map[string]string{"routing": "static"})

		ad := base
		ad.Net = network.AdaptiveConfig(4, 4, Fig5LinkBandwidth)
		ad.AdaptiveDisableWindow = 10 * p.CheckpointInterval
		pts = repeats(pts, "fig5", ad, p, map[string]string{"routing": "adaptive"})
	}
	return pts
}

func (fig5Exp) Aggregate(p Params, res []runner.Result) any {
	wls := p.AxisProfiles("workloads")
	out := make([]Fig5Result, len(wls))
	i := 0
	for wi, wl := range wls {
		static, adaptive := i, i+p.Runs
		i += 2 * p.Runs
		r := Fig5Result{Workload: wl.Name, StaticPerf: Cell{1, 0}}
		sm := sampleOf(res, static, p.Runs, "perf").Mean()
		r.AdaptivePerf = cell(sampleOf(res, adaptive, p.Runs, "perf"), sm)
		r.Recoveries = sampleOf(res, adaptive, p.Runs, "recoveries").Mean()
		r.ReorderRate = sampleOf(res, adaptive, p.Runs, "reorder_total").Mean()
		r.MeanLinkUtil = sampleOf(res, static, p.Runs, "mean_link_util").Mean()
		out[wi] = r
	}
	return out
}

func (fig5Exp) Table(v any) string { return Fig5Table(v.([]Fig5Result)) }

// Fig5Table renders Figure 5.
func Fig5Table(results []Fig5Result) string {
	t := stats.NewTable("workload", "static", "adaptive", "recoveries", "reorder rate", "static link util")
	for _, r := range results {
		t.AddRow(r.Workload, "1.000",
			r.AdaptivePerf.String(),
			fmt.Sprintf("%.2f", r.Recoveries),
			fmt.Sprintf("%.5f", r.ReorderRate),
			fmt.Sprintf("%.1f%%", 100*r.MeanLinkUtil))
	}
	return t.String()
}

// ---- §5.3 text: reorder rates vs link bandwidth ----

// ReorderResult is one bandwidth point of the §5.3 reorder-rate study.
type ReorderResult struct {
	BandwidthBpc float64 // bytes/cycle
	BandwidthMBs float64 // at 4 GHz
	PerVNet      []float64
	Total        float64
	Recoveries   float64
	MeanLinkUtil float64
}

// ReorderBandwidths spans the paper's 400 MB/s – 3.2 GB/s (at 4 GHz).
var ReorderBandwidths = []float64{0.1, 0.2, 0.4, 0.8}

// reorderExp reproduces the §5.3 reorder-rate measurements on the
// speculative directory system with adaptive routing.
type reorderExp struct{}

func (reorderExp) Name() string { return "reorder" }
func (reorderExp) Title(p Params) string {
	return "§5.3: message reorder rates vs link bandwidth (" + p.AxisProfile("workload").Name + ")"
}
func (reorderExp) Axes() []Axis {
	return []Axis{
		workloadAxis("oltp"),
		{Name: "bw", Kind: AxisFloat, List: true,
			Default: floatStrings(ReorderBandwidths),
			Help:    "link bandwidths in bytes/cycle"},
	}
}

func (reorderExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, bw := range p.AxisFloats("bw") {
		cfg := system.DefaultConfig(system.DirectorySpec, wl)
		cfg.CheckpointInterval = p.CheckpointInterval
		cfg.TimeoutCycles = 0 // full-buffering adaptive net cannot deadlock
		cfg.Net = network.AdaptiveConfig(4, 4, bw)
		cfg.AdaptiveDisableWindow = 10 * p.CheckpointInterval
		pts = repeats(pts, "reorder", cfg, p, map[string]string{"bw": strconv.FormatFloat(bw, 'g', -1, 64)})
	}
	return pts
}

func (reorderExp) Aggregate(p Params, res []runner.Result) any {
	bws := p.AxisFloats("bw")
	out := make([]ReorderResult, len(bws))
	for bi, bw := range bws {
		i := bi * p.Runs
		r := ReorderResult{BandwidthBpc: bw, BandwidthMBs: bw * 4000}
		r.Total = sampleOf(res, i, p.Runs, "reorder_total").Mean()
		r.Recoveries = sampleOf(res, i, p.Runs, "recoveries").Mean()
		r.MeanLinkUtil = sampleOf(res, i, p.Runs, "mean_link_util").Mean()
		for v := 0; v < 4; v++ {
			r.PerVNet = append(r.PerVNet, sampleOf(res, i, p.Runs, "reorder_vnet"+strconv.Itoa(v)).Mean())
		}
		out[bi] = r
	}
	return out
}

func (reorderExp) Table(v any) string { return ReorderTable(v.([]ReorderResult)) }

// ReorderTable renders the reorder-rate study.
func ReorderTable(results []ReorderResult) string {
	t := stats.NewTable("link bw (MB/s)", "req vnet", "fwd vnet", "resp vnet", "final vnet", "total", "recoveries", "link util")
	for _, r := range results {
		row := []string{fmt.Sprintf("%.0f", r.BandwidthMBs)}
		for v := 0; v < 4; v++ {
			row = append(row, fmt.Sprintf("%.5f", r.PerVNet[v]))
		}
		row = append(row,
			fmt.Sprintf("%.5f", r.Total),
			fmt.Sprintf("%.2f", r.Recoveries),
			fmt.Sprintf("%.1f%%", 100*r.MeanLinkUtil))
		t.AddRow(row...)
	}
	return t.String()
}

// ---- §5.3: snooping recoveries ----

// SnoopResult is one workload's speculative-snooping outcome.
type SnoopResult struct {
	Workload       string
	Perf           Cell // normalized to the full protocol
	CornerDetected float64
	FullCornerHit  float64 // how often the full protocol exercised it
}

// snoopExp reproduces the §5.3 snooping result: all workloads run to
// completion with (essentially) no recoveries, and performance mirrors
// the fully designed protocol.
type snoopExp struct{}

func (snoopExp) Name() string { return "snoop" }
func (snoopExp) Title(Params) string {
	return "§5.3: speculatively simplified snooping protocol"
}
func (snoopExp) Axes() []Axis { return []Axis{workloadsAxis()} }

func (snoopExp) Grid(p Params) []runner.Point {
	var pts []runner.Point
	for _, wl := range p.AxisProfiles("workloads") {
		full := system.DefaultConfig(system.SnoopFull, wl)
		full.CheckpointInterval = p.CheckpointInterval
		pts = repeats(pts, "snoop", full, p, map[string]string{"variant": "full"})
		spec := system.DefaultConfig(system.SnoopSpec, wl)
		spec.CheckpointInterval = p.CheckpointInterval
		pts = repeats(pts, "snoop", spec, p, map[string]string{"variant": "spec"})
	}
	return pts
}

func (snoopExp) Aggregate(p Params, res []runner.Result) any {
	wls := p.AxisProfiles("workloads")
	out := make([]SnoopResult, len(wls))
	i := 0
	for wi, wl := range wls {
		full, spec := i, i+p.Runs
		i += 2 * p.Runs
		r := SnoopResult{Workload: wl.Name}
		r.Perf = cell(sampleOf(res, spec, p.Runs, "perf"), sampleOf(res, full, p.Runs, "perf").Mean())
		r.CornerDetected = sampleOf(res, spec, p.Runs, "corner_detected").Mean()
		r.FullCornerHit = sampleOf(res, full, p.Runs, "corner_handled").Mean()
		out[wi] = r
	}
	return out
}

func (snoopExp) Table(v any) string { return SnoopTable(v.([]SnoopResult)) }

// SnoopTable renders the snooping study.
func SnoopTable(results []SnoopResult) string {
	t := stats.NewTable("workload", "spec perf (vs full)", "recoveries", "full-protocol corner hits")
	for _, r := range results {
		t.AddRow(r.Workload, r.Perf.String(),
			fmt.Sprintf("%.2f", r.CornerDetected),
			fmt.Sprintf("%.2f", r.FullCornerHit))
	}
	return t.String()
}

// ---- §5.3: interconnect buffer sweep ----

// BufferResult is one buffer-size point of the §5.3 network study.
type BufferResult struct {
	BufferSize int // 0 = worst-case (unlimited) buffering baseline
	Perf       Cell
	Recoveries float64
	Timeouts   float64
}

// BufferSizes are the sweep points; 0 is the worst-case baseline. The
// paper's crossover is between 16 and 8 entries; with this model's
// smaller in-flight message census the same cliff appears between 4 and
// 2 (see EXPERIMENTS.md R3), so the sweep extends below 8.
var BufferSizes = []int{0, 16, 8, 4, 2}

// BufferSweepBandwidth loads the network enough for buffer occupancy to
// matter without saturating it (800 MB/s at 4 GHz).
const BufferSweepBandwidth = 0.2

// buffersExp reproduces the §5.3 network results: the simplified
// interconnect (no virtual networks/channels, one shared buffer pool
// per switch) holds steady performance until buffers get very small,
// then drops sharply once deadlocks appear and are resolved by
// timeout-triggered recovery. Normalization against the worst-case
// baseline happens at aggregation time, so the whole grid — baseline
// included — runs on one worker pool.
type buffersExp struct{}

func (buffersExp) Name() string { return "buffers" }
func (buffersExp) Title(p Params) string {
	return "§5.3: simplified interconnect buffer sweep (" + p.AxisProfile("workload").Name + ")"
}
func (buffersExp) Axes() []Axis {
	return []Axis{
		workloadAxis("oltp"),
		{Name: "bufsize", Kind: AxisInt, List: true,
			Default: intStrings(BufferSizes),
			Help:    "per-switch buffer entries (0 = worst-case baseline)"},
	}
}

func (buffersExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, size := range p.AxisInts("bufsize") {
		cfg := system.DefaultConfig(system.DirectorySpec, wl)
		cfg.CheckpointInterval = p.CheckpointInterval
		cfg.TimeoutCycles = 3 * p.CheckpointInterval
		cfg.SlowStartWindow = 5 * p.CheckpointInterval
		cfg.Net = network.SimplifiedConfig(4, 4, BufferSweepBandwidth, size)
		pts = repeats(pts, "buffers", cfg, p, map[string]string{"bufsize": strconv.Itoa(size)})
	}
	return pts
}

func (buffersExp) Aggregate(p Params, res []runner.Result) any {
	sizes := p.AxisInts("bufsize")
	out := make([]BufferResult, len(sizes))
	var base float64
	for si, size := range sizes {
		i := si * p.Runs
		perf := sampleOf(res, i, p.Runs, "perf")
		if size == 0 {
			base = perf.Mean()
		}
		out[si] = BufferResult{
			BufferSize: size,
			Perf:       cell(perf, base),
			Recoveries: sampleOf(res, i, p.Runs, "recoveries").Mean(),
			Timeouts:   sampleOf(res, i, p.Runs, "timeouts").Mean(),
		}
	}
	return out
}

func (buffersExp) Table(v any) string { return BufferTable(v.([]BufferResult)) }

// BufferTable renders the buffer sweep.
func BufferTable(results []BufferResult) string {
	t := stats.NewTable("buffer size", "normalized perf", "recoveries", "timeouts")
	for _, r := range results {
		name := fmt.Sprintf("%d", r.BufferSize)
		if r.BufferSize == 0 {
			name = "worst-case"
		}
		t.AddRow(name, r.Perf.String(),
			fmt.Sprintf("%.2f", r.Recoveries),
			fmt.Sprintf("%.2f", r.Timeouts))
	}
	return t.String()
}

// ---- scaling study: 16 → 256 nodes ----

// ScaleResult is one (kind, geometry, sharer format, workload) cell of
// the scaling study: both speculatively simplified protocols on the
// paper's 4×4 target machine and the 8×8 (64-node) machine, and — where
// the protocol scales — the 16×16 (256-node) machine, where the
// directory runs once per wide sharer-set format.
type ScaleResult struct {
	Kind     string
	Workload string
	Width    int
	Height   int
	// Sharers names the directory sharer-set format of this design
	// point ("bitmap", "limited", "coarse"; "-" for snooping systems).
	Sharers string
	// Perf is absolute aggregate IPC; PerfVs4x4 normalizes it to the
	// same kind and workload at the 4×4 geometry.
	Perf       Cell
	PerfVs4x4  Cell
	Recoveries float64
	// MissLatency is the mean coherence miss latency in cycles — the
	// quantity the torus diameter stretches.
	MissLatency  float64
	MeanLinkUtil float64
	// Invalidations counts directory Inv messages (mean per run); the
	// limited-pointer format's overflow broadcasts surface here as
	// extra invalidation traffic. InvBroadcasts counts the Dir_i_B
	// broadcast fan-outs behind that extra traffic.
	Invalidations float64
	InvBroadcasts float64
	// Err marks a design point the machine model does not support (e.g.
	// snooping at 1024 nodes, past even the segmented address network's
	// ceiling); the sweep reports it and carries on.
	Err string `json:",omitempty"`
}

// ScaleGeometries are the scaling design points: the paper's target
// machine, the 64-node full-bitmap ceiling, and the 256-node machine
// the wide sharer-set formats open up.
var ScaleGeometries = [][2]int{{4, 4}, {8, 8}, {16, 16}}

// scaleKinds are the scaled systems: both speculatively simplified
// variants (the paper's proposal is exactly that these stay correct and
// fast as the machine grows).
var scaleKinds = []system.Kind{system.DirectorySpec, system.SnoopSpec}

// scaleVariant is one geometry × sharer-format design point of a kind's
// scaling curve.
type scaleVariant struct {
	w, h    int
	sharers directory.SharerFormat
	label   string
}

// scaleVariants lists a kind's design points. Directory systems run the
// exact bitmap where it fits and both wide formats at 16×16 (so the
// precision-vs-traffic trade is directly visible in one table); the
// snooping system runs every geometry, riding the segmented address
// network (snoop.ScaledBusConfig) past the 64-node flat-bus ceiling.
func scaleVariants(kind system.Kind) []scaleVariant {
	if !kind.IsDirectory() {
		var vs []scaleVariant
		for _, g := range ScaleGeometries {
			vs = append(vs, scaleVariant{w: g[0], h: g[1], label: "-"})
		}
		return vs
	}
	return []scaleVariant{
		{4, 4, directory.FullBitmap, "bitmap"},
		{8, 8, directory.FullBitmap, "bitmap"},
		{16, 16, directory.LimitedPointer, "limited"},
		{16, 16, directory.CoarseVector, "coarse"},
	}
}

// scale64Exp runs the scaling study. The directory system keeps its
// adaptive full-buffered network (deadlock-free, so the watchdog stays
// off as in Fig5); the snooping system's address network scales with
// the geometry (ScaledBusConfig): flat through 64 nodes, segmented at
// 16×16. Points past a machine model's ceiling (see scale1024's 32×32
// snooping point) land in the results as reported errors rather than
// killing the sweep.
type scale64Exp struct{}

func (scale64Exp) Name() string { return "scale64" }
func (scale64Exp) Title(Params) string {
	return "Scaling study: 4x4 -> 8x8 -> 16x16, both Spec protocols (directory-only at 256 nodes)"
}
func (scale64Exp) Axes() []Axis { return []Axis{workloadsAxis()} }

func (scale64Exp) Grid(p Params) []runner.Point {
	var pts []runner.Point
	for _, kind := range scaleKinds {
		for _, wl := range p.AxisProfiles("workloads") {
			for _, v := range scaleVariants(kind) {
				cfg := system.DefaultConfigSized(kind, wl, v.w, v.h)
				cfg.CheckpointInterval = p.CheckpointInterval
				cfg.CyclesPerSecond = p.CyclesPerSecond
				cfg.TimeoutCycles = 0
				if kind.IsDirectory() {
					cfg.Sharers = v.sharers
					// Intra-run tiling, resolved per point; snooping
					// points stay on the classic serial path (Shards 0).
					// Directory points always use the windowed engine
					// (Shards >= 1), so the CSVs are byte-identical for
					// every requested -shards value and tile shape —
					// CI diffs them.
					cfg.Shards, cfg.ShardRows, cfg.ShardCols = effectiveTiles(p, v.w, v.h)
				}
				pts = repeats(pts, "scale64", cfg, p, map[string]string{
					"kind":    kind.String(),
					"geom":    fmt.Sprintf("%dx%d", v.w, v.h),
					"sharers": v.label,
				})
			}
		}
	}
	return pts
}

func (scale64Exp) Aggregate(p Params, res []runner.Result) any {
	var out []ScaleResult
	i := 0
	for _, kind := range scaleKinds {
		for _, wl := range p.AxisProfiles("workloads") {
			var base float64
			for vi, v := range scaleVariants(kind) {
				r := ScaleResult{
					Kind:     kind.String(),
					Workload: wl.Name,
					Width:    v.w,
					Height:   v.h,
					Sharers:  v.label,
				}
				if err := res[i].Err; err != nil {
					r.Err = err.Error()
					out = append(out, r)
					i += p.Runs
					continue
				}
				perf := sampleOf(res, i, p.Runs, "perf")
				if vi == 0 {
					base = perf.Mean()
				}
				r.Perf = Cell{perf.Mean(), perf.StdDev()}
				r.PerfVs4x4 = cell(perf, base)
				r.Recoveries = sampleOf(res, i, p.Runs, "recoveries").Mean()
				r.MissLatency = sampleOf(res, i, p.Runs, "miss_latency_mean").Mean()
				r.MeanLinkUtil = sampleOf(res, i, p.Runs, "mean_link_util").Mean()
				r.Invalidations = sampleOf(res, i, p.Runs, "invalidations").Mean()
				r.InvBroadcasts = sampleOf(res, i, p.Runs, "inv_broadcasts").Mean()
				out = append(out, r)
				i += p.Runs
			}
		}
	}
	return out
}

func (scale64Exp) Table(v any) string { return ScaleTable(v.([]ScaleResult)) }

// ScaleTable renders the scaling study. Unsupported design points show
// as "unsupported*" rows with the (deduplicated) reasons footnoted
// below the table.
func ScaleTable(results []ScaleResult) string {
	t := stats.NewTable("system", "workload", "geometry", "sharers", "IPC", "vs 4x4", "recoveries", "miss latency", "invs", "bcasts", "link util")
	var notes []string
	seen := map[string]bool{}
	for _, r := range results {
		geom := fmt.Sprintf("%dx%d (%d nodes)", r.Width, r.Height, r.Width*r.Height)
		if r.Err != "" {
			t.AddRow(r.Kind, r.Workload, geom, r.Sharers,
				"unsupported*", "-", "-", "-", "-", "-", "-")
			if !seen[r.Err] {
				seen[r.Err] = true
				notes = append(notes, "* "+r.Err)
			}
			continue
		}
		t.AddRow(r.Kind, r.Workload, geom, r.Sharers,
			r.Perf.String(), r.PerfVs4x4.String(),
			fmt.Sprintf("%.2f", r.Recoveries),
			fmt.Sprintf("%.1f", r.MissLatency),
			fmt.Sprintf("%.0f", r.Invalidations),
			fmt.Sprintf("%.0f", r.InvBroadcasts),
			fmt.Sprintf("%.1f%%", 100*r.MeanLinkUtil))
	}
	out := t.String()
	for _, n := range notes {
		out += n + "\n"
	}
	return out
}

// ---- ablations ----

// DeflectionResult compares deadlock-recovery against deflection
// routing on identical (tiny-buffer) fabric pressure — the paper's
// footnote-3 alternative.
type DeflectionResult struct {
	Name        string
	Perf        Cell
	Recoveries  float64
	Deflections float64
}

// deflectionNets are the A4 ablation's fixed fabric pair.
var deflectionNets = []struct {
	name string
	net  func() network.Config
}{
	{"simplified-2buf", func() network.Config { return network.SimplifiedConfig(4, 4, BufferSweepBandwidth, 2) }},
	{"deflection", func() network.Config { return network.DeflectionConfig(4, 4, BufferSweepBandwidth) }},
}

// deflectionExp runs the speculative directory system on (a) the
// simplified waiting network at the deadlock-prone buffer size and (b)
// the deflection network, both guarded by the transaction timeout.
type deflectionExp struct{}

func (deflectionExp) Name() string { return "deflection" }
func (deflectionExp) Title(p Params) string {
	return "Ablation A4: deadlock-recovery vs deflection routing (" + p.AxisProfile("workload").Name + ")"
}
func (deflectionExp) Axes() []Axis { return []Axis{workloadAxis("oltp")} }

func (deflectionExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, c := range deflectionNets {
		cfg := system.DefaultConfig(system.DirectorySpec, wl)
		cfg.CheckpointInterval = p.CheckpointInterval
		cfg.TimeoutCycles = 3 * p.CheckpointInterval
		cfg.SlowStartWindow = 5 * p.CheckpointInterval
		cfg.Net = c.net()
		pts = repeats(pts, "deflection", cfg, p, map[string]string{"net": c.name})
	}
	return pts
}

func (deflectionExp) Aggregate(p Params, res []runner.Result) any {
	out := make([]DeflectionResult, len(deflectionNets))
	for ci, c := range deflectionNets {
		i := ci * p.Runs
		perf := sampleOf(res, i, p.Runs, "perf")
		out[ci] = DeflectionResult{
			Name:        c.name,
			Perf:        Cell{perf.Mean(), perf.StdDev()},
			Recoveries:  sampleOf(res, i, p.Runs, "recoveries").Mean(),
			Deflections: sampleOf(res, i, p.Runs, "deflections").Mean(),
		}
	}
	return out
}

func (deflectionExp) Table(v any) string { return DeflectionTable(v.([]DeflectionResult)) }

// DeflectionTable renders the A4 ablation.
func DeflectionTable(results []DeflectionResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "  %-16s perf %s, recoveries %.2f, deflections %.0f\n",
			r.Name, r.Perf, r.Recoveries, r.Deflections)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// SlowStartResult is one limit point of the A2 ablation.
type SlowStartResult struct {
	Limit      int
	Perf       Cell
	Recoveries float64
}

// SlowStartLimits are the default swept outstanding limits.
var SlowStartLimits = []int{1, 2, 4, 8}

// slowstartExp measures post-recovery throughput and recurrence as a
// function of the slow-start outstanding limit, on the deadlock-prone
// simplified network (2-entry shared pools, where deadlocks actually
// occur — see buffersExp).
type slowstartExp struct{}

func (slowstartExp) Name() string { return "slowstart" }
func (slowstartExp) Title(p Params) string {
	return "Ablation A2: slow-start outstanding limit (" + p.AxisProfile("workload").Name + ", 2-entry buffers)"
}
func (slowstartExp) Axes() []Axis {
	return []Axis{
		workloadAxis("oltp"),
		{Name: "limit", Kind: AxisInt, List: true, Min: 1,
			Default: intStrings(SlowStartLimits),
			Help:    "slow-start outstanding-transaction limits"},
	}
}

func (slowstartExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, limit := range p.AxisInts("limit") {
		cfg := system.DefaultConfig(system.DirectorySpec, wl)
		cfg.CheckpointInterval = p.CheckpointInterval
		cfg.TimeoutCycles = 3 * p.CheckpointInterval
		cfg.Net = network.SimplifiedConfig(4, 4, BufferSweepBandwidth, 2)
		cfg.SlowStartWindow = 10 * p.CheckpointInterval
		cfg.SlowStartLimit = limit
		pts = repeats(pts, "slowstart", cfg, p, map[string]string{"limit": strconv.Itoa(limit)})
	}
	return pts
}

func (slowstartExp) Aggregate(p Params, res []runner.Result) any {
	limits := p.AxisInts("limit")
	out := make([]SlowStartResult, len(limits))
	for li, limit := range limits {
		i := li * p.Runs
		perf := sampleOf(res, i, p.Runs, "perf")
		out[li] = SlowStartResult{
			Limit:      limit,
			Perf:       Cell{perf.Mean(), perf.StdDev()},
			Recoveries: sampleOf(res, i, p.Runs, "recoveries").Mean(),
		}
	}
	return out
}

func (slowstartExp) Table(v any) string { return SlowStartTable(v.([]SlowStartResult)) }

// SlowStartTable renders the A2 ablation.
func SlowStartTable(results []SlowStartResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "  limit %d: perf %s, recoveries %.2f\n", r.Limit, r.Perf, r.Recoveries)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// ReenableResult is one point of the A5 ablation: the paper §3.1 notes
// "the choice of when to re-enable adaptive routing provides an
// adjustable knob for setting the worst-case lower bound on
// performance". With reordering amplified so recoveries actually occur,
// the knob's effect becomes measurable: never re-enabling (the
// conservative extreme) forfeits adaptive routing's speedup after the
// first recovery; short windows recover it at the cost of repeated
// mis-speculations.
type ReenableResult struct {
	Window     sim.Time // 0 = never re-enable
	Perf       Cell
	Recoveries float64
}

// ReenableWindows are the default swept re-enable windows, scaled by
// the run's checkpoint interval (0 = never re-enable).
func ReenableWindows(p Params) []sim.Time {
	return []sim.Time{0, 2 * p.CheckpointInterval, 10 * p.CheckpointInterval, 50 * p.CheckpointInterval}
}

// reenableExp sweeps the adaptive-routing re-enable window under
// amplified reordering.
type reenableExp struct{}

func (reenableExp) Name() string { return "reenable" }
func (reenableExp) Title(p Params) string {
	return "Ablation A5: adaptive-routing re-enable window (" + p.AxisProfile("workload").Name + ", amplified reordering)"
}
func (reenableExp) Axes() []Axis {
	return []Axis{
		workloadAxis("oltp"),
		{Name: "window", Kind: AxisTime, List: true,
			DefaultOf: func(p Params) []string { return timeStrings(ReenableWindows(p)) },
			Help:      "re-enable windows in cycles (0 = never)"},
	}
}

func (reenableExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, w := range p.AxisTimes("window") {
		cfg := system.DefaultConfig(system.DirectorySpec, wl)
		cfg.CheckpointInterval = p.CheckpointInterval
		cfg.TimeoutCycles = 0
		cfg.Net = network.AdaptiveConfig(4, 4, BufferSweepBandwidth)
		cfg.AdaptiveDisableWindow = w
		cfg.SlowStartWindow = 5 * p.CheckpointInterval
		cfg.ReorderInjectProb = 0.3
		cfg.ReorderInjectDelay = 3_000
		// Tiny caches keep writebacks frequent enough to race.
		cfg.L2Bytes, cfg.L2Ways = 16*64, 2
		cfg.L1Bytes, cfg.L1Ways = 2*64, 1
		pts = repeats(pts, "reenable", cfg, p, map[string]string{"window": strconv.FormatUint(uint64(w), 10)})
	}
	return pts
}

func (reenableExp) Aggregate(p Params, res []runner.Result) any {
	windows := p.AxisTimes("window")
	out := make([]ReenableResult, len(windows))
	for wi, w := range windows {
		i := wi * p.Runs
		perf := sampleOf(res, i, p.Runs, "perf")
		out[wi] = ReenableResult{
			Window:     w,
			Perf:       Cell{perf.Mean(), perf.StdDev()},
			Recoveries: sampleOf(res, i, p.Runs, "recoveries").Mean(),
		}
	}
	return out
}

func (reenableExp) Table(v any) string { return ReenableTable(v.([]ReenableResult)) }

// ReenableTable renders the A5 ablation.
func ReenableTable(results []ReenableResult) string {
	var b strings.Builder
	for _, r := range results {
		name := fmt.Sprintf("%d cycles", r.Window)
		if r.Window == 0 {
			name = "never (conservative)"
		}
		fmt.Fprintf(&b, "  re-enable after %-22s perf %s, recoveries %.2f\n", name+":", r.Perf, r.Recoveries)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// CheckpointResult is one interval point of the A3 ablation.
type CheckpointResult struct {
	Interval        sim.Time
	Perf            Cell
	LogHighWater    float64
	CheckpointStall float64
}

// CheckpointIntervals are the default swept intervals.
var CheckpointIntervals = []sim.Time{2_000, 5_000, 20_000, 50_000}

// checkpointExp measures checkpoint-interval effects: log occupancy
// grows with the interval while checkpoint stalls shrink. It defaults
// to the uniform workload — the interval, not the sharing pattern, is
// the subject.
type checkpointExp struct{}

func (checkpointExp) Name() string { return "checkpoint" }
func (checkpointExp) Title(Params) string {
	return "Ablation A3: checkpoint interval vs log occupancy"
}
func (checkpointExp) Axes() []Axis {
	return []Axis{
		workloadAxis("uniform"),
		{Name: "interval", Kind: AxisTime, List: true, Min: 1,
			Default: timeStrings(CheckpointIntervals),
			Help:    "checkpoint intervals in cycles"},
	}
}

func (checkpointExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, ival := range p.AxisTimes("interval") {
		cfg := system.DefaultConfig(system.DirectoryFull, wl)
		cfg.CheckpointInterval = ival
		pts = repeats(pts, "checkpoint", cfg, p, map[string]string{"interval": strconv.FormatUint(uint64(ival), 10)})
	}
	return pts
}

func (checkpointExp) Aggregate(p Params, res []runner.Result) any {
	intervals := p.AxisTimes("interval")
	out := make([]CheckpointResult, len(intervals))
	for ii, ival := range intervals {
		i := ii * p.Runs
		perf := sampleOf(res, i, p.Runs, "perf")
		out[ii] = CheckpointResult{
			Interval:        ival,
			Perf:            Cell{perf.Mean(), perf.StdDev()},
			LogHighWater:    sampleOf(res, i, p.Runs, "log_high_water_bytes").Mean(),
			CheckpointStall: sampleOf(res, i, p.Runs, "checkpoint_stall").Mean(),
		}
	}
	return out
}

func (checkpointExp) Table(v any) string { return CheckpointTable(v.([]CheckpointResult)) }

// CheckpointTable renders the A3 ablation.
func CheckpointTable(results []CheckpointResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "  interval %6d: perf %s, log high water %.0f B, ckpt stall %.0f cyc\n",
			r.Interval, r.Perf, r.LogHighWater, r.CheckpointStall)
	}
	return strings.TrimSuffix(b.String(), "\n")
}
