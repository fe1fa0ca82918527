package experiments

import (
	"fmt"
	"strconv"

	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
	"specsimp/internal/system"
)

// ---- availability: sustained fault load × checkpoint cadence ----

// AvailabilityRate is the aggregate fault arrival rate, in faults per
// second of the compressed clock, that every regime runs at — 40/s sits
// between Figure 4's 10/s and 100/s points, high enough that regimes
// overlap recoveries and the deferral path is exercised.
const AvailabilityRate = 40.0

// AvailabilityLogEntries shrinks the per-node checkpoint log to this
// many 72-byte entries so the sweep actually reaches the log-overflow
// backpressure path (Table 2's 512 KB ≈ 7281 entries would never fill
// at these run lengths). 32 entries sits between the base cadence's
// ~38-entry epoch peak and the fast cadence's ~17: the static base
// interval stalls on backpressure, the 4× cadence clears it, and the
// adaptive controller has a gradient to descend.
const AvailabilityLogEntries = 32

// AvailabilityResult is one regime × cadence point of the availability
// sweep.
type AvailabilityResult struct {
	Regime  string
	Cadence string

	Perf       Cell
	Recoveries float64
	// OutagePct and DegradedPct are the run fraction spent fully parked
	// in recovery and inside recovery+slow-start windows; DegradedIPC is
	// throughput inside the degraded windows (vs Perf overall).
	OutagePct   float64
	DegradedPct float64
	DegradedIPC float64
	// RecoveryLatMean/Max are the detection-to-resume latency moments
	// (deferral behind in-progress recoveries included); RollbackMean is
	// the mean rollback distance.
	RecoveryLatMean float64
	RecoveryLatMax  float64
	RollbackMean    float64
	// LogStallPct is the run fraction the overflow backpressure held the
	// machine; Overflows counts appends past capacity. FinalInterval is
	// the cadence controller's terminal interval.
	LogStallPct   float64
	Overflows     float64
	FinalInterval float64
}

type availabilityCadence struct {
	name     string
	interval sim.Time
	adaptive bool
}

// availabilityCadences returns the swept cadences: the base static
// interval, a 4× faster static interval, and the adaptive controller
// starting from the base.
func availabilityCadences(p Params) []availabilityCadence {
	base := p.CheckpointInterval
	fast := base / 4
	if fast < 1 {
		fast = 1
	}
	return []availabilityCadence{
		{"static", base, false},
		{"fast", fast, false},
		{"adaptive", base, true},
	}
}

// availabilityRegimes pairs the legacy periodic injector with the three
// sustained-fault regimes, all at AvailabilityRate.
var availabilityRegimes = []struct {
	name   string
	regime system.FaultRegime
}{
	{"periodic", system.FaultNone},
	{"storm", system.FaultStorm},
	{"regional", system.FaultRegional},
	{"repeat", system.FaultRepeat},
}

// availabilityExp sweeps fault regime × checkpoint cadence on the
// speculative directory system and reports degraded-mode throughput,
// recovery-latency and rollback-distance distributions, and the cost of
// log-overflow backpressure. One workload (OLTP by default) keeps the
// grid small; the regimes, not the workload mix, are the experiment's
// subject.
type availabilityExp struct{}

func (availabilityExp) Name() string { return "availability" }
func (availabilityExp) Title(p Params) string {
	return "Availability: sustained fault regimes × checkpoint cadence (" +
		p.AxisProfile("workload").Name + ")"
}
func (availabilityExp) Axes() []Axis { return []Axis{workloadAxis("oltp")} }

func (availabilityExp) Grid(p Params) []runner.Point {
	wl := p.AxisProfile("workload")
	var pts []runner.Point
	for _, reg := range availabilityRegimes {
		for _, cad := range availabilityCadences(p) {
			cfg := system.DefaultConfig(system.DirectorySpec, wl)
			cfg.CheckpointInterval = cad.interval
			cfg.AdaptiveCheckpoint = cad.adaptive
			cfg.TimeoutCycles = 0 // full-buffering adaptive net cannot deadlock
			cfg.CyclesPerSecond = p.CyclesPerSecond
			cfg.SlowStartWindow = 5 * p.CheckpointInterval
			cfg.LogBytes = AvailabilityLogEntries * 72
			// Intra-run tiling (resolved against the 4×4 torus): the
			// whole sweep must be byte-identical for every -shards value
			// and tile shape — the CI determinism lane diffs the CSVs.
			cfg.Shards, cfg.ShardRows, cfg.ShardCols = effectiveTiles(p, 4, 4)
			if reg.regime == system.FaultNone {
				cfg.InjectRecoveryEvery = sim.Time(p.CyclesPerSecond / AvailabilityRate)
			} else {
				cfg.FaultRegime = reg.regime
				cfg.FaultRate = AvailabilityRate
			}
			pts = repeats(pts, "availability", cfg, p, map[string]string{
				"regime":  reg.name,
				"cadence": cad.name,
			})
		}
	}
	return pts
}

func (availabilityExp) Aggregate(p Params, res []runner.Result) any {
	var out []AvailabilityResult
	i := 0
	for _, reg := range availabilityRegimes {
		for _, cad := range availabilityCadences(p) {
			perf := sampleOf(res, i, p.Runs, "perf")
			cycles := sampleOf(res, i, p.Runs, "cycles").Mean()
			r := AvailabilityResult{
				Regime:         reg.name,
				Cadence:        cad.name,
				Perf:           Cell{perf.Mean(), perf.StdDev()},
				Recoveries:     sampleOf(res, i, p.Runs, "recoveries").Mean(),
				RollbackMean:   ratio(sampleOf(res, i, p.Runs, "rollback_sum").Mean(), sampleOf(res, i, p.Runs, "rollback_n").Mean()),
				Overflows:      sampleOf(res, i, p.Runs, "log_overflows").Mean(),
				FinalInterval:  sampleOf(res, i, p.Runs, "checkpoint_interval_final").Mean(),
				RecoveryLatMax: sampleOf(res, i, p.Runs, "recovery_lat_max").Mean(),
			}
			r.RecoveryLatMean = ratio(sampleOf(res, i, p.Runs, "recovery_lat_sum").Mean(), sampleOf(res, i, p.Runs, "recovery_lat_n").Mean())
			r.DegradedIPC = ratio(sampleOf(res, i, p.Runs, "degraded_instructions").Mean(), sampleOf(res, i, p.Runs, "degraded_cycles").Mean())
			if cycles > 0 {
				r.OutagePct = sampleOf(res, i, p.Runs, "outage_cycles").Mean() / cycles
				r.DegradedPct = sampleOf(res, i, p.Runs, "degraded_cycles").Mean() / cycles
				r.LogStallPct = sampleOf(res, i, p.Runs, "log_stall_cycles").Mean() / cycles
			}
			out = append(out, r)
			i += p.Runs
		}
	}
	return out
}

func (availabilityExp) Table(v any) string { return AvailabilityTable(v.([]AvailabilityResult)) }

// ratio is a/b, or 0 when b is 0 (no observations).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AvailabilityTable renders the availability sweep.
func AvailabilityTable(results []AvailabilityResult) string {
	t := stats.NewTable("regime", "cadence", "IPC", "degr IPC", "outage", "degraded", "log stall",
		"recoveries", "rec lat", "rollback", "overflows", "final ival")
	for _, r := range results {
		t.AddRow(r.Regime, r.Cadence,
			r.Perf.String(),
			fmt.Sprintf("%.3f", r.DegradedIPC),
			fmt.Sprintf("%.1f%%", 100*r.OutagePct),
			fmt.Sprintf("%.1f%%", 100*r.DegradedPct),
			fmt.Sprintf("%.1f%%", 100*r.LogStallPct),
			fmt.Sprintf("%.1f", r.Recoveries),
			fmt.Sprintf("%.0f", r.RecoveryLatMean),
			fmt.Sprintf("%.0f", r.RollbackMean),
			fmt.Sprintf("%.0f", r.Overflows),
			strconv.FormatFloat(r.FinalInterval, 'f', 0, 64))
	}
	return t.String()
}
