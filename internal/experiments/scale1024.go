package experiments

// The 1024-node scaling study: the scale64 curve (§5.5) extended past
// its 256-node ceiling to the 32×32 machine the 2D tile substrate and
// the segmented snoop address network open up. One sweep, both kinds,
// every geometry tier from the paper's 4×4 up — with the per-point
// error column still exercised by the one machine model that genuinely
// cannot scale there (snooping at 1024 nodes).

import (
	"fmt"

	"specsimp/internal/directory"
	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/system"
)

// Scale1024Geometries are the 1024-node study's tiers: node count
// quadruples from the paper's target machine to the 32×32 torus.
var Scale1024Geometries = [][2]int{{4, 4}, {8, 8}, {16, 16}, {32, 32}}

// scale1024Variants lists one kind's design points for the 1024-node
// study. Directory systems ride the exact bitmap to its 64-node ceiling
// and the coarse vector beyond (the format whose per-entry state stays
// one flat word at 1024 nodes); the snooping system runs its segmented
// 16×16 point for real and keeps the 32×32 point in the grid even
// though it is past the segmented address network's ceiling — the sweep
// must report that through the error column, not die on it.
func scale1024Variants(kind system.Kind) []scaleVariant {
	if !kind.IsDirectory() {
		return []scaleVariant{
			{w: 16, h: 16, label: "-"},
			{w: 32, h: 32, label: "-"},
		}
	}
	return []scaleVariant{
		{4, 4, directory.FullBitmap, "bitmap"},
		{8, 8, directory.FullBitmap, "bitmap"},
		{16, 16, directory.CoarseVector, "coarse"},
		{32, 32, directory.CoarseVector, "coarse"},
	}
}

// scale1024Cycles holds per-point simulation work roughly constant
// across the curve: node count quadruples each tier, so simulated
// cycles shrink by the same factor, anchored at the 4×4 machine running
// the full p.Cycles. Without this the 32×32 point would cost 64× the
// 4×4 point and the CI determinism lane (which byte-diffs this sweep at
// five different tilings) would dominate the pipeline. A floor of four
// checkpoint intervals keeps every point long enough to checkpoint,
// validate and recover.
func scale1024Cycles(p Params, nodes int) sim.Time {
	c := p.Cycles * 16 / sim.Time(nodes)
	if min := 4 * p.CheckpointInterval; c < min {
		c = min
	}
	return c
}

// scale1024Exp runs the 1024-node scaling study, defaulting to the
// paper's primary workload (OLTP). Directory points run the windowed
// tile engine — auto-factored per geometry, or pinned via
// Params.ShardRows/ShardCols — so the CSV artifacts are byte-identical
// at every tile count and tile shape; snooping points run the classic
// serial path, with 16×16 a real run on the segmented address network
// and 32×32 a reported error row.
type scale1024Exp struct{}

func (scale1024Exp) Name() string { return "scale1024" }
func (scale1024Exp) Title(p Params) string {
	return "Scaling study: 4x4 -> 32x32 (1024 nodes) on 2D torus tiles (" +
		p.AxisProfile("workload").Name + ")"
}
func (scale1024Exp) Axes() []Axis { return []Axis{workloadAxis("oltp")} }

func (scale1024Exp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, kind := range scaleKinds {
		for _, v := range scale1024Variants(kind) {
			cfg := system.DefaultConfigSized(kind, wl, v.w, v.h)
			cfg.CheckpointInterval = p.CheckpointInterval
			cfg.CyclesPerSecond = p.CyclesPerSecond
			cfg.TimeoutCycles = 0
			if kind.IsDirectory() {
				cfg.Sharers = v.sharers
				cfg.Shards, cfg.ShardRows, cfg.ShardCols = effectiveTiles(p, v.w, v.h)
			}
			cycles := scale1024Cycles(p, v.w*v.h)
			params := map[string]string{
				"kind":    kind.String(),
				"geom":    fmt.Sprintf("%dx%d", v.w, v.h),
				"sharers": v.label,
			}
			for rep := 0; rep < p.Runs; rep++ {
				pts = append(pts, SysPoint("scale1024", cfg, cycles, params, rep))
			}
		}
	}
	return pts
}

func (scale1024Exp) Aggregate(p Params, res []runner.Result) any {
	wl := p.AxisProfile("workload")
	var out []ScaleResult
	i := 0
	for _, kind := range scaleKinds {
		var base float64
		for vi, v := range scale1024Variants(kind) {
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
	return out
}

func (scale1024Exp) Table(v any) string { return ScaleTable(v.([]ScaleResult)) }
