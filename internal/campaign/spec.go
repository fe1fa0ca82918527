// Package campaign turns a declarative JSON spec — experiments × axis
// overrides × repeats × shards × run-id — into a validated plan of
// design points and executes it through the sweep engine with
// per-point resume: the run directory's progress ledger records every
// completed point under a canonical digest, so a killed campaign
// re-invoked with the same spec and run id skips finished points and
// still produces an artifact tree byte-identical to an uninterrupted
// run. The package also hosts the analysis stage (Analyze), which
// regenerates summaries and tables from a completed run directory
// without re-simulating.
//
// The package is inside the walltime determinism contract
// (internal/lint): nothing here may read the wall clock — campaigns
// are named by their run id and every artifact byte is a function of
// spec + code.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/sim"
)

// AxisValues is an axis override value list. In the JSON spec values
// may be written as strings or as bare numbers (and a single scalar
// stands for a one-element list); they normalize to strings here and
// are validated against the axis's declared kind by
// experiments.Normalize.
type AxisValues []string

// UnmarshalJSON accepts ["a", 2, 0.4], "a", or 2.
func (a *AxisValues) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	vals, err := axisValueList(raw)
	if err != nil {
		return err
	}
	*a = vals
	return nil
}

func axisValueList(raw any) ([]string, error) {
	if list, ok := raw.([]any); ok {
		out := make([]string, 0, len(list))
		for _, e := range list {
			s, err := axisScalar(e)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	s, err := axisScalar(raw)
	if err != nil {
		return nil, err
	}
	return []string{s}, nil
}

func axisScalar(raw any) (string, error) {
	switch v := raw.(type) {
	case string:
		return v, nil
	case json.Number:
		return v.String(), nil
	case []any:
		return "", fmt.Errorf("axis values must not nest lists")
	default:
		return "", fmt.Errorf("axis value %v must be a string or number", raw)
	}
}

// ExperimentSpec selects one registered experiment and its overrides.
type ExperimentSpec struct {
	// Name is a registered experiment name (experiments.Names).
	Name string `json:"name"`
	// Axes overrides declared axis values ({"workloads": ["oltp"],
	// "bw": [0.1, 0.4]}); omitted axes keep their registry defaults.
	Axes map[string]AxisValues `json:"axes,omitempty"`
	// Repeats and Cycles override the campaign-level settings for this
	// experiment only (0 = inherit).
	Repeats int    `json:"repeats,omitempty"`
	Cycles  uint64 `json:"cycles,omitempty"`
}

// Spec is a declarative campaign: global parameters plus the ordered
// experiment list. Zero-valued fields inherit the standard (or, with
// Quick, the bench-sized) parameter set.
type Spec struct {
	// RunID names the run directory (sweep-runs/run-<id>) and keys
	// resume; the -run-id flag overrides it. A campaign must have a
	// run id from one of the two — wall-clock-named campaigns would
	// be neither resumable nor byte-reproducible.
	RunID string `json:"run_id,omitempty"`
	// Quick selects the bench-sized base parameters.
	Quick bool `json:"quick,omitempty"`
	// Repeats is the perturbed-run count per design point.
	Repeats int `json:"repeats,omitempty"`
	// Cycles, CyclesPerSecond, CheckpointInterval override the base
	// parameter set (see experiments.Params).
	Cycles             uint64  `json:"cycles,omitempty"`
	CyclesPerSecond    float64 `json:"cycles_per_second,omitempty"`
	CheckpointInterval uint64  `json:"checkpoint_interval,omitempty"`
	// Parallel is the across-run worker bound (0 = GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// Shards is the intra-run tiling request, "N" or "RxC".
	Shards string `json:"shards,omitempty"`

	Experiments []ExperimentSpec `json:"experiments"`
}

// ParseSpec decodes and validates a campaign spec. Unknown fields are
// errors — a typoed key must not silently become a default.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign spec: %v", err)
	}
	return s, nil
}

// LoadSpec reads and parses a campaign spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign spec: %v", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// Canonical returns the spec's canonical JSON encoding — the bytes
// written to the run directory's campaign.json and compared on resume,
// so formatting differences in the source file never read as spec
// drift.
func (s Spec) Canonical() []byte {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Spec is plain data; marshaling it cannot fail.
		panic("campaign: marshal spec: " + err.Error())
	}
	return append(data, '\n')
}

// ParseShards parses the -shards request's two forms: "N" requests N
// tiles auto-factored per design point, "RxC" pins the tile grid to
// R rows by C columns and requests R*C tiles. Shared by campaign specs,
// cmd/sweep (via sweepcli) and cmd/specsim.
func ParseShards(s string) (shards, rows, cols int, err error) {
	if r, c, ok := strings.Cut(strings.ToLower(s), "x"); ok {
		rows, rerr := strconv.Atoi(r)
		cols, cerr := strconv.Atoi(c)
		if rerr != nil || cerr != nil || rows < 1 || cols < 1 {
			return 0, 0, 0, fmt.Errorf("-shards %q: a tile-grid shape is RxC with positive rows and columns, e.g. 4x2", s)
		}
		return rows * cols, rows, cols, nil
	}
	n, nerr := strconv.Atoi(s)
	if nerr != nil || n < 1 {
		return 0, 0, 0, fmt.Errorf("-shards %q: want a tile count >= 1 or a tile-grid shape RxC (1 means serial)", s)
	}
	return n, 0, 0, nil
}

// PlanExperiment is one experiment of a validated plan: the registered
// driver, its normalized parameters, and its full design-point grid.
type PlanExperiment struct {
	Exp    experiments.Experiment
	Params experiments.Params
	Points []runner.Point
}

// Plan is a validated campaign: the spec it came from (canonicalized)
// plus every experiment resolved against the registry.
type Plan struct {
	Spec        Spec
	RunID       string
	Parallel    int
	Experiments []PlanExperiment
}

// Points returns the total design-point count across the plan.
func (p Plan) Points() int {
	n := 0
	for _, pe := range p.Experiments {
		n += len(pe.Points)
	}
	return n
}

// BuildPlan validates a spec against the experiment registry and
// materializes every grid. All failures are descriptive errors — an
// unknown experiment, a duplicate experiment (its artifacts would
// share one CSV), a malformed axis value, a shard shape that can never
// tile a machine — never panics.
func BuildPlan(spec Spec) (Plan, error) {
	if len(spec.Experiments) == 0 {
		return Plan{}, fmt.Errorf("campaign spec lists no experiments (registered: %s)",
			strings.Join(experiments.Names(), ", "))
	}
	if spec.RunID == "" {
		return Plan{}, fmt.Errorf("campaign needs a run id (spec run_id or -run-id): resume and byte-reproducibility key on it")
	}
	if spec.Repeats < 0 {
		return Plan{}, fmt.Errorf("campaign spec: repeats must be >= 1 (got %d)", spec.Repeats)
	}
	base := experiments.Standard()
	if spec.Quick {
		base = experiments.Quick()
	}
	if spec.Repeats > 0 {
		base.Runs = spec.Repeats
	}
	if spec.Cycles > 0 {
		base.Cycles = sim.Time(spec.Cycles)
	}
	if spec.CyclesPerSecond > 0 {
		base.CyclesPerSecond = spec.CyclesPerSecond
	}
	if spec.CheckpointInterval > 0 {
		base.CheckpointInterval = sim.Time(spec.CheckpointInterval)
	}
	if spec.Shards != "" {
		n, rows, cols, err := ParseShards(spec.Shards)
		if err != nil {
			return Plan{}, fmt.Errorf("campaign spec: %v", err)
		}
		if rows > 0 && (32%rows != 0 || 32%cols != 0) {
			// Every machine in the registry is a 4/8/16/32-wide torus, so
			// a pinned dimension that does not divide 32 can never tile
			// any design point — reject it instead of silently degrading
			// every point to auto-factoring.
			return Plan{}, fmt.Errorf("campaign spec: shards %s does not divide any machine torus (dimensions are 4, 8, 16, or 32)", spec.Shards)
		}
		base.Shards, base.ShardRows, base.ShardCols = n, rows, cols
	}

	plan := Plan{Spec: spec, RunID: spec.RunID, Parallel: spec.Parallel}
	seen := map[string]bool{}
	for _, es := range spec.Experiments {
		if es.Name == "" {
			return Plan{}, fmt.Errorf("campaign spec: experiment entry without a name")
		}
		e, ok := experiments.ByName(es.Name)
		if !ok {
			return Plan{}, fmt.Errorf("campaign spec: unknown experiment %q (registered: %s)",
				es.Name, strings.Join(experiments.Names(), ", "))
		}
		if seen[es.Name] {
			return Plan{}, fmt.Errorf("campaign spec: experiment %q listed twice — each experiment owns one CSV artifact per run directory", es.Name)
		}
		seen[es.Name] = true
		if es.Repeats < 0 {
			return Plan{}, fmt.Errorf("campaign spec: experiment %q: repeats must be >= 1", es.Name)
		}
		p := base
		if es.Repeats > 0 {
			p.Runs = es.Repeats
		}
		if es.Cycles > 0 {
			p.Cycles = sim.Time(es.Cycles)
		}
		if len(es.Axes) > 0 {
			ax := make(map[string][]string, len(es.Axes))
			for k, v := range es.Axes {
				ax[k] = v
			}
			p.Axes = ax
		}
		np, err := experiments.Normalize(e, p)
		if err != nil {
			return Plan{}, fmt.Errorf("campaign spec: %v", err)
		}
		plan.Experiments = append(plan.Experiments, PlanExperiment{Exp: e, Params: np, Points: e.Grid(np)})
	}
	return plan, nil
}
