package experiments

import (
	"fmt"

	"specsimp/internal/runner"
	"specsimp/internal/stats"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// WorkloadsResult is one cell of the workload-realism study: a stream
// shape (base profile or sharing idiom × Zipf skew × phase length) on
// one speculative protocol.
type WorkloadsResult struct {
	Kind     string
	Workload string
	Idiom    string // "-" for the base profile stream
	Skew     float64
	Phase    uint64
	Err      string

	Perf          Cell
	Recoveries    float64
	MissLatency   float64
	MeanLinkUtil  float64
	Invalidations float64
	Transactions  float64
}

// wlVariant is one stream shape of the study grid.
type wlVariant struct {
	idiom string // "" = the base profile stream
	skew  float64
	phase uint64
}

// workloadsPhaseLen rotates the hot set every 384 references. A -quick
// point retires only ~1k references per node (Instructions counts
// think cycles, so refs ≈ instructions / (MeanThink+1)) — a longer
// phase would never fire at quick scale and the phase axis would be a
// no-op there.
const workloadsPhaseLen = 384

// workloadsGrid enumerates the stream shapes. The base profile and the
// object-choice idioms (migratory, broadcast) sweep Zipf skew across
// static and phase-shifting hot sets; ring and scan have no skew axis
// (their address sequences are structural) and sweep phases only. A
// trace replay has no knobs at all — it is a single shape.
func workloadsGrid(wl workload.Profile) []wlVariant {
	if wl.IsTrace() {
		return []wlVariant{{}}
	}
	var vs []wlVariant
	for _, idiom := range []string{"", workload.IdiomMigratory, workload.IdiomBroadcast} {
		skews := []float64{0, 0.8, 1.2}
		if idiom != "" {
			skews = []float64{0, 1.2}
		}
		for _, skew := range skews {
			for _, phase := range []uint64{0, workloadsPhaseLen} {
				vs = append(vs, wlVariant{idiom: idiom, skew: skew, phase: phase})
			}
		}
	}
	for _, idiom := range []string{workload.IdiomRing, workload.IdiomScan} {
		for _, phase := range []uint64{0, workloadsPhaseLen} {
			vs = append(vs, wlVariant{idiom: idiom, phase: phase})
		}
	}
	return vs
}

// profileFor materializes one variant's workload profile: the base
// stream or an idiom preset, with the variant's skew and phase applied.
func profileFor(wl workload.Profile, v wlVariant) workload.Profile {
	p := wl
	if v.idiom != "" {
		for _, ip := range workload.Idioms {
			if ip.Idiom == v.idiom {
				p = ip
				break
			}
		}
	}
	if !p.IsTrace() {
		p.ZipfSkew = v.skew
		p.PhaseLen = v.phase
	}
	return p
}

func (v wlVariant) idiomLabel() string {
	if v.idiom == "" {
		return "-"
	}
	return v.idiom
}

// workloadsExp runs the workload-realism study: every stream shape of
// workloadsGrid on both speculative protocols at the Table 2 geometry.
// The "workload" axis is the base profile (a trace replay collapses
// the grid to its single recorded stream). Directory points ride the
// windowed tile engine, so artifacts are byte-identical at every
// -shards value — CI diffs them, including a recorded-trace replay.
type workloadsExp struct{}

func (workloadsExp) Name() string { return "workloads" }
func (workloadsExp) Title(p Params) string {
	return "Workload realism: Zipf skew × phase length × sharing idiom, both Spec protocols (" +
		p.AxisProfile("workload").Name + " base)"
}
func (workloadsExp) Axes() []Axis { return []Axis{workloadAxis("oltp")} }

func (workloadsExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	grid := workloadsGrid(wl)
	var pts []runner.Point
	for _, kind := range scaleKinds {
		for _, v := range grid {
			cfg := system.DefaultConfigSized(kind, profileFor(wl, v), 4, 4)
			cfg.CheckpointInterval = p.CheckpointInterval
			cfg.CyclesPerSecond = p.CyclesPerSecond
			cfg.TimeoutCycles = 0
			if kind.IsDirectory() {
				cfg.Shards, cfg.ShardRows, cfg.ShardCols = effectiveTiles(p, 4, 4)
			}
			pts = repeats(pts, "workloads", cfg, p, map[string]string{
				"kind":  kind.String(),
				"idiom": v.idiomLabel(),
				"skew":  fmt.Sprintf("%g", v.skew),
				"phase": fmt.Sprintf("%d", v.phase),
			})
		}
	}
	return pts
}

func (workloadsExp) Aggregate(p Params, res []runner.Result) any {
	wl := p.AxisProfile("workload")
	grid := workloadsGrid(wl)
	var out []WorkloadsResult
	i := 0
	for _, kind := range scaleKinds {
		for _, v := range grid {
			r := WorkloadsResult{
				Kind:     kind.String(),
				Workload: profileFor(wl, v).Name,
				Idiom:    v.idiomLabel(),
				Skew:     v.skew,
				Phase:    v.phase,
			}
			if err := res[i].Err; err != nil {
				r.Err = err.Error()
				out = append(out, r)
				i += p.Runs
				continue
			}
			perf := sampleOf(res, i, p.Runs, "perf")
			r.Perf = Cell{perf.Mean(), perf.StdDev()}
			r.Recoveries = sampleOf(res, i, p.Runs, "recoveries").Mean()
			r.MissLatency = sampleOf(res, i, p.Runs, "miss_latency_mean").Mean()
			r.MeanLinkUtil = sampleOf(res, i, p.Runs, "mean_link_util").Mean()
			r.Invalidations = sampleOf(res, i, p.Runs, "invalidations").Mean()
			r.Transactions = sampleOf(res, i, p.Runs, "transactions").Mean()
			out = append(out, r)
			i += p.Runs
		}
	}
	return out
}

func (workloadsExp) Table(v any) string { return WorkloadsTable(v.([]WorkloadsResult)) }

// WorkloadsTable renders the workload-realism study.
func WorkloadsTable(results []WorkloadsResult) string {
	t := stats.NewTable("system", "stream", "idiom", "zipf s", "phase", "IPC", "recoveries", "miss latency", "invs", "txns", "link util")
	var notes []string
	seen := map[string]bool{}
	for _, r := range results {
		if r.Err != "" {
			t.AddRow(r.Kind, r.Workload, r.Idiom, fmt.Sprintf("%g", r.Skew), fmt.Sprintf("%d", r.Phase),
				"unsupported*", "-", "-", "-", "-", "-")
			if !seen[r.Err] {
				seen[r.Err] = true
				notes = append(notes, "* "+r.Err)
			}
			continue
		}
		t.AddRow(r.Kind, r.Workload, r.Idiom,
			fmt.Sprintf("%g", r.Skew), fmt.Sprintf("%d", r.Phase),
			r.Perf.String(),
			fmt.Sprintf("%.2f", r.Recoveries),
			fmt.Sprintf("%.1f", r.MissLatency),
			fmt.Sprintf("%.0f", r.Invalidations),
			fmt.Sprintf("%.0f", r.Transactions),
			fmt.Sprintf("%.1f%%", 100*r.MeanLinkUtil))
	}
	out := t.String()
	for _, n := range notes {
		out += n + "\n"
	}
	return out
}
