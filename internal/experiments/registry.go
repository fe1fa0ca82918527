package experiments

// The registered-experiment API. Every driver is an Experiment: a
// named, axis-declaring pair of Grid (design points) and Aggregate
// (positional reduction of the grid's results into the paper's
// structured rows), plus a Table renderer. The sorted package-level
// registry mirrors the workload registry (internal/workload): cmd/sweep
// generates its -exp usage string, its "all" ordering, and its
// unknown-experiment error from Names(), and internal/campaign builds
// declarative multi-experiment plans from ByName — neither can drift
// from the compiled-in experiment set again.
//
// Axis values travel as strings (the CLI/spec surface) and are resolved
// once, by Normalize, into typed values on Params: the single place
// defaults apply, overrides win, and bad values become descriptive
// errors instead of panics deep in a grid builder.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/workload"
)

// AxisKind types an experiment axis's values.
type AxisKind int

const (
	// AxisInt values are decimal integers (buffer sizes, limits), at
	// least the axis's Min.
	AxisInt AxisKind = iota
	// AxisTime values are simulated-cycle counts (sim.Time), at least
	// the axis's Min.
	AxisTime
	// AxisFloat values are finite, positive decimal floats (link
	// bandwidths).
	AxisFloat
	// AxisWorkload values are registered workload names or
	// "trace:<path>" replays (workload.Resolve).
	AxisWorkload
)

// String names the kind for usage text and error messages.
func (k AxisKind) String() string {
	switch k {
	case AxisInt:
		return "int"
	case AxisTime:
		return "cycles"
	case AxisFloat:
		return "float"
	case AxisWorkload:
		return "workload"
	}
	return "?"
}

// Axis declares one experiment knob: its name, value type, arity, and
// registry-level default. Defaults are declared here — not at call
// sites — so the CLI, campaign specs and tests all resolve through one
// normalization path.
type Axis struct {
	Name string
	Kind AxisKind
	// List permits multiple values (a sweep dimension); single-valued
	// axes demand exactly one.
	List bool
	// Min is the smallest value an AxisInt or AxisTime axis accepts:
	// the range its model can simulate as labelled.
	Min int
	// Default is the declared default value set; DefaultOf computes it
	// from the run parameters instead (e.g. re-enable windows scaled by
	// the checkpoint interval). At most one of the two is set.
	Default   []string
	DefaultOf func(Params) []string
	// Help is one line for generated usage text.
	Help string
}

// defaults resolves the axis's default value set against p.
func (a Axis) defaults(p Params) []string {
	if a.DefaultOf != nil {
		return a.DefaultOf(p)
	}
	return a.Default
}

// Experiment is one registered driver: a named design-point grid and
// its aggregation. Grid and Aggregate take normalized Params (see
// Normalize) and pair positionally — Aggregate indexes the result
// slice by the same iteration order Grid emitted, p.Runs repeats per
// design point. Table renders the value Aggregate returned.
type Experiment interface {
	Name() string
	// Title is the human heading printed above the table (may read
	// normalized axis values, e.g. the workload name).
	Title(p Params) string
	Axes() []Axis
	Grid(p Params) []runner.Point
	Aggregate(p Params, res []runner.Result) any
	Table(v any) string
}

// Preambler experiments print an extra note above their table (e.g.
// fig4's compressed-clock line).
type Preambler interface {
	Preamble(p Params) string
}

// registry is the sorted experiment table. Registration happens in
// this package's init, so the slice is immutable afterwards — ByName
// binary-searches it.
var registry []Experiment

// Register adds an experiment, keeping the registry sorted by name.
// Duplicate names are a programming error.
func Register(e Experiment) {
	name := e.Name()
	i := sort.Search(len(registry), func(i int) bool { return registry[i].Name() >= name })
	if i < len(registry) && registry[i].Name() == name {
		panic("experiments: duplicate registration of " + name)
	}
	registry = append(registry, nil)
	copy(registry[i+1:], registry[i:])
	registry[i] = e
}

// Names returns every registered experiment name in sorted order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name()
	}
	return names
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, bool) {
	i := sort.Search(len(registry), func(i int) bool { return registry[i].Name() >= name })
	if i < len(registry) && registry[i].Name() == name {
		return registry[i], true
	}
	return nil, false
}

// All returns the registered experiments in name order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

func init() {
	for _, e := range []Experiment{
		fig4Exp{}, fig5Exp{}, reorderExp{}, snoopExp{}, buffersExp{},
		scale64Exp{}, scale1024Exp{}, slowstartExp{}, deflectionExp{},
		reenableExp{}, checkpointExp{}, workloadsExp{}, availabilityExp{},
	} {
		Register(e)
	}
}

// ---- normalization ----

// Normalize resolves every axis the experiment declares into typed
// values on the returned Params — the single defaulting path. For each
// axis, precedence is: an explicit p.Axes override (strings, as from
// the CLI or a campaign spec), then the legacy profile fields
// (p.Workload for single-valued workload axes, p.Workloads for
// list-valued ones — already-resolved profiles, so trace replays and
// test-constructed profiles pass through untouched), then the axis's
// declared default. Values are validated and re-encoded canonically;
// any problem is a descriptive error naming the experiment and axis.
// Normalizing already-normalized Params is the identity.
func Normalize(e Experiment, p Params) (Params, error) {
	if p.normalized {
		return p, nil
	}
	axes := e.Axes()
	values := make(map[string][]string, len(axes))
	profiles := map[string][]workload.Profile{}
	for _, a := range axes {
		raw := p.Axes[a.Name]
		var prof []workload.Profile
		if len(raw) == 0 && a.Kind == AxisWorkload {
			if a.List && len(p.Workloads) > 0 {
				prof = append(prof, p.Workloads...)
			} else if !a.List && p.Workload.Name != "" {
				prof = []workload.Profile{p.Workload}
			}
		}
		if len(raw) == 0 && len(prof) == 0 {
			raw = a.defaults(p)
		}
		if len(prof) == 0 {
			canon := make([]string, len(raw))
			for i, v := range raw {
				cv, pr, err := parseAxisValue(a, v)
				if err != nil {
					return p, fmt.Errorf("experiment %s, axis %s: %v", e.Name(), a.Name, err)
				}
				canon[i] = cv
				if a.Kind == AxisWorkload {
					prof = append(prof, pr)
				}
			}
			raw = canon
		} else {
			names := make([]string, len(prof))
			for i, w := range prof {
				names[i] = w.Name
			}
			raw = names
		}
		if len(raw) == 0 {
			return p, fmt.Errorf("experiment %s, axis %s: no values (no default declared and none supplied)", e.Name(), a.Name)
		}
		if !a.List && len(raw) != 1 {
			return p, fmt.Errorf("experiment %s, axis %s: takes exactly one value, got %d (%s)",
				e.Name(), a.Name, len(raw), strings.Join(raw, ", "))
		}
		values[a.Name] = raw
		if a.Kind == AxisWorkload {
			profiles[a.Name] = prof
		}
	}
	for _, name := range sortedOverrideKeys(p.Axes) {
		if _, ok := values[name]; !ok {
			return p, fmt.Errorf("experiment %s has no axis %q (declared: %s)",
				e.Name(), name, strings.Join(axisNames(axes), ", "))
		}
	}
	p.axisValues = values
	p.axisProfiles = profiles
	p.normalized = true
	return p, nil
}

// parseAxisValue validates one raw value against the axis's kind and
// returns its canonical string form (plus the resolved profile for
// workload axes).
func parseAxisValue(a Axis, v string) (canon string, prof workload.Profile, err error) {
	v = strings.TrimSpace(v)
	switch a.Kind {
	case AxisInt:
		n, err := strconv.Atoi(v)
		if err != nil {
			return "", prof, fmt.Errorf("value %q is not an integer", v)
		}
		if n < a.Min {
			return "", prof, fmt.Errorf("value %q is below the minimum %d", v, a.Min)
		}
		return strconv.Itoa(n), prof, nil
	case AxisTime:
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			return "", prof, fmt.Errorf("value %q is not a cycle count (non-negative integer)", v)
		}
		if n < uint64(a.Min) {
			return "", prof, fmt.Errorf("value %q is below the minimum %d cycles", v, a.Min)
		}
		return strconv.FormatUint(n, 10), prof, nil
	case AxisFloat:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return "", prof, fmt.Errorf("value %q is not a number", v)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return "", prof, fmt.Errorf("value %q is not a finite positive number", v)
		}
		return strconv.FormatFloat(f, 'g', -1, 64), prof, nil
	case AxisWorkload:
		w, err := workload.Resolve(v)
		if err != nil {
			return "", prof, err
		}
		return w.Name, w, nil
	}
	panic("experiments: unknown axis kind")
}

func sortedOverrideKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func axisNames(axes []Axis) []string {
	names := make([]string, len(axes))
	for i, a := range axes {
		names[i] = a.Name
	}
	return names
}

// ---- typed axis accessors (post-Normalize) ----

// axis returns the normalized value set; calling before Normalize or
// with an undeclared name is a programming error.
func (p Params) axis(name string) []string {
	if !p.normalized {
		panic("experiments: axis " + name + " read before Normalize")
	}
	vs, ok := p.axisValues[name]
	if !ok {
		panic("experiments: read of undeclared axis " + name)
	}
	return vs
}

// AxisInts returns an integer axis's normalized values.
func (p Params) AxisInts(name string) []int {
	vs := p.axis(name)
	out := make([]int, len(vs))
	for i, v := range vs {
		n, err := strconv.Atoi(v)
		if err != nil {
			panic("experiments: axis " + name + ": " + err.Error())
		}
		out[i] = n
	}
	return out
}

// AxisTimes returns a cycle-count axis's normalized values.
func (p Params) AxisTimes(name string) []sim.Time {
	vs := p.axis(name)
	out := make([]sim.Time, len(vs))
	for i, v := range vs {
		n, err := strconv.ParseUint(v, 10, 63)
		if err != nil {
			panic("experiments: axis " + name + ": " + err.Error())
		}
		out[i] = sim.Time(n)
	}
	return out
}

// AxisFloats returns a float axis's normalized values.
func (p Params) AxisFloats(name string) []float64 {
	vs := p.axis(name)
	out := make([]float64, len(vs))
	for i, v := range vs {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			panic("experiments: axis " + name + ": " + err.Error())
		}
		out[i] = f
	}
	return out
}

// AxisProfiles returns a workload axis's resolved profiles.
func (p Params) AxisProfiles(name string) []workload.Profile {
	if !p.normalized {
		panic("experiments: axis " + name + " read before Normalize")
	}
	ws, ok := p.axisProfiles[name]
	if !ok {
		panic("experiments: read of undeclared workload axis " + name)
	}
	return ws
}

// AxisProfile returns a single-valued workload axis's profile.
func (p Params) AxisProfile(name string) workload.Profile {
	ws := p.AxisProfiles(name)
	if len(ws) != 1 {
		panic("experiments: axis " + name + " is not single-valued")
	}
	return ws[0]
}

// ---- execution ----

// ErrInterrupted reports that an experiment's grid was interrupted
// before completion (see runner.Runner.Interrupt): no aggregate exists
// and no artifacts were written for it.
var ErrInterrupted = errors.New("experiment interrupted before grid completion")

// RunExperiment is the registry-path driver: normalize, build the
// grid, execute it on p's engine, aggregate, and persist the JSON
// summary. The returned value is what e.Table renders. An interrupted
// grid returns ErrInterrupted — its partial results are never
// aggregated or persisted (points already cached remain durable for
// resume).
func RunExperiment(e Experiment, p Params) (any, error) {
	p, err := Normalize(e, p)
	if err != nil {
		return nil, err
	}
	ex := p.exec()
	res := ex.Run(e.Grid(p))
	if ex.Interrupted() {
		return nil, ErrInterrupted
	}
	out := e.Aggregate(p, res)
	ex.Summarize(e.Name(), out)
	return out, nil
}

// ---- shared axis constructors and encoders ----

// workloadsAxis is the five-workload suite sweep dimension shared by
// the figure-style experiments.
func workloadsAxis() Axis {
	return Axis{
		Name: "workloads", Kind: AxisWorkload, List: true,
		Default: workloadSuiteNames(),
		Help:    "workload profiles to evaluate",
	}
}

// workloadAxis is a single-profile axis with the given default.
func workloadAxis(def string) Axis {
	return Axis{
		Name: "workload", Kind: AxisWorkload,
		Default: []string{def},
		Help:    "workload profile",
	}
}

func workloadSuiteNames() []string {
	names := make([]string, len(workload.Suite))
	for i, w := range workload.Suite {
		names[i] = w.Name
	}
	return names
}

func intStrings(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

func timeStrings(vs []sim.Time) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatUint(uint64(v), 10)
	}
	return out
}

func floatStrings(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return out
}
