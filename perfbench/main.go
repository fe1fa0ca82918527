// Command perfbench is the simulator's benchmark. One invocation runs
// one named workload for a fixed host-time budget, checks every
// simulation's outputs, and prints the workload's metrics as one JSON
// object on the last line of standard output:
//
//	perfbench --workload dir-4x4 --seed 3 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run that measures the per-layer metrics:
// spans around the calls into each layer's public functions, exact
// counters read from the public stats structs, and a CPU profile
// aggregated by package. spec.json documents every workload and metric;
// run.sh builds this binary inside the checkout and runs it.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"specsimp/internal/system"
	"specsimp/internal/workload"
)

const (
	minUnits        = 3   // untraced units per run, however short the budget
	minTracedUnits  = 2   // profiled units per traced run
	tracedChunks    = 50  // Run calls per profiled unit (system.chunk_ms_*)
	minPointSamples = 100 // replayed points for runner.point_s_p90
	setupReps       = 24  // extra campaign set-ups timed per unit
	profileHz       = 1000
)

// workloadDef is one named benchmark workload.
type workloadDef interface {
	Name() string
	Procs() int   // GOMAXPROCS for the run
	Size() string // the simulated size, for provenance
	measure(b *bench) error
	trace(b *bench) error
	digest(b *bench) (string, error) // one untraced unit's Results digest
}

// workloads is the benchmark's workload set; spec.json says why each
// exists and which layers it loads.
var workloads = []workloadDef{
	sysWorkload{
		name: "dir-4x4", procs: 1, cycles: 2_000_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfig(system.DirectorySpec, workload.OLTP)
			cfg.Seed = seed
			return cfg
		},
	},
	sysWorkload{
		// 252,000 cycles: a whole number of 18-cycle lookahead windows.
		// One proc, so the engine runs its four tiles in one loop: a
		// two-proc barrier on a shared two-core host waits whenever the
		// host takes either core away, and times the host, not the code.
		// The traced run adds a GOMAXPROCS=2 twin for the barrier.
		name: "dir-16x16-tiled", procs: 1, cycles: 252_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfigSized(system.DirectorySpec, workload.OLTP, 16, 16)
			cfg.Shards = 4
			cfg.Seed = seed
			return cfg
		},
	},
	sysWorkload{
		// A recovery every 37,500 cycles, with checkpoints every 300
		// ordered requests validated after 3×5,000 cycles, so each
		// rollback loses one short epoch and the machine keeps retiring
		// instructions (the default 300,000-cycle validation window
		// would roll every recovery back to the start).
		name: "snoop-4x4-recovery", procs: 1, cycles: 3_000_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfig(system.SnoopSpec, workload.OLTP)
			cfg.InjectRecoveryEvery = 37_500
			cfg.CheckpointInterval = 5_000
			cfg.SnoopCheckpointRequests = 300
			cfg.SlowStartWindow = 10_000
			cfg.Seed = seed
			return cfg
		},
	},
	// Points a third of the quick length, so a run holds enough
	// campaigns for a steady median.
	campaignWorkload{name: "campaign-quick", procs: 1, cycles: 200_000},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name() == name {
			return w, true
		}
	}
	return nil, false
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs; BENCHMARK.json lists the
// same names (the self-test keeps the two in step).
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"sim_cycles_per_s", "cycles/s"},
	{"peak_rss_mb", "MB"}, {"sim_ipc", "instr/cycle"}, {"ops_ok_frac", "frac"},
}

// profiledLayers are the layers whose self time the traced run reports,
// named after their internal/ packages; "perfbench" is the benchmark's
// own code.
var profiledLayers = []string{
	"sim", "network", "directory", "snoop", "cache", "mem", "processor", "safetynet", "core",
	"workload", "system", "coherence", "pool", "stats", "runner", "campaign", "experiments", "perfbench",
}

// perLayer are the metrics of traced runs. A metric that does not apply
// to a workload (spec.json lists which) prints as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"system.build_s", "s"}, {"system.start_s", "s"}, {"system.run_s", "s"},
		{"cache.new_s", "s"}, {"workload.ns_per_ref", "ns"},
		{"campaign.plan_s", "s"}, {"campaign.analyze_s", "s"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"},
		{"network.msgs_sent", "count"}, {"network.link_util", "frac"},
		{"directory.transactions", "count"}, {"directory.invalidations", "count"}, {"directory.inv_broadcasts", "count"},
		{"snoop.bus_ordered", "count"}, {"snoop.transactions", "count"},
		{"processor.instructions", "count"},
		{"safetynet.checkpoints", "count"}, {"safetynet.log_high_water_bytes", "bytes"},
		{"core.recoveries", "count"}, {"core.lost_work_frac", "frac"},
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".self_frac", "frac"})
	}
	return append(defs,
		metricDef{"runtime.gc_frac", "frac"}, metricDef{"runtime.sched_frac", "frac"},
		metricDef{"runtime.maps_frac", "frac"}, metricDef{"runtime.malloc_frac", "frac"},
		metricDef{"sim.window_frac", "frac"}, metricDef{"sim.barrier_frac", "frac"},
		metricDef{"sim.drain_frac", "frac"}, metricDef{"sim.edge_frac", "frac"},
		metricDef{"sim.parallel_speedup", "x"},
		metricDef{"core.recovery_ms", "ms"}, metricDef{"safetynet.checkpoint_ms", "ms"},
		metricDef{"runner.point_s_p50", "s"}, metricDef{"runner.point_s_p90", "s"},
		metricDef{"runner.busy_frac", "frac"}, metricDef{"campaign.ledger_s", "s"},
		metricDef{"system.chunk_ms_p50", "ms"}, metricDef{"system.chunk_ms_p90", "ms"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// floors are a workload's work floors (spec.json): a unit that misses
// one counts as a failed op.
type floors struct {
	Instructions uint64 `json:"instructions"`
	Recoveries   uint64 `json:"recoveries"`
	Tiles        int    `json:"tiles"`
	Points       int    `json:"points"`
}

//go:embed spec.json
var specJSON []byte

//go:embed refs.json
var refsJSON []byte

// specFloors reads the work floors from spec.json.
func specFloors(name string) (floors, error) {
	var spec struct {
		Workloads map[string]struct {
			Floors floors `json:"floors"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return floors{}, fmt.Errorf("spec.json: %w", err)
	}
	w, ok := spec.Workloads[name]
	if !ok {
		return floors{}, fmt.Errorf("spec.json: no workload %q", name)
	}
	return w.Floors, nil
}

// references returns the reference digests shipped for a workload,
// keyed by seed.
func references(name string) (map[string]string, error) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs[name], nil
}

// bench is one benchmark process: its options, the spans it records,
// and the ops and metrics it accumulates.
type bench struct {
	seed     uint64
	deadline time.Time
	out      string // spans, profile tables and campaign trees go here
	floors   floors
	ref      string // reference digest for this seed, "" if none shipped
	tr       *tracer
	log      io.Writer

	digest            string // the run's first digest
	chunkedDigest     string // the first chunked tiled unit's digest
	attempted, failed int
	metrics           map[string]float64
	profile           *profileTable
	parallelProfile   *profileTable // the tiled workload's GOMAXPROCS=2 twin

	refs []float64          // reference-kernel seconds, one per untraced unit
	raw  map[string]float64 // the end-to-end timings as measured, before hostScale
}

// more reports whether the run's time budget has time left.
func (b *bench) more() bool { return time.Now().Before(b.deadline) }

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// op records one checked operation; any problem fails it.
func (b *bench) op(what string, problems []string) {
	b.attempted++
	if len(problems) > 0 {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s failed: %s\n", what, strings.Join(problems, "; "))
	}
}

// checkDigest compares a unit's digest with the run's first one and
// with the shipped reference for the seed.
func (b *bench) checkDigest(d string) []string {
	var problems []string
	if b.digest == "" {
		b.digest = d
	}
	if d != b.digest {
		problems = append(problems, fmt.Sprintf("digest %s differs from the run's first, %s", d, b.digest))
	}
	if b.ref != "" && d != b.ref {
		problems = append(problems, fmt.Sprintf("digest %s differs from the reference %s", d, b.ref))
	}
	return problems
}

// setProfile records the traced run's profile table and its metrics.
func (b *bench) setProfile(t profileTable) {
	b.profile = &t
	for _, l := range profiledLayers {
		b.set(l+".self_frac", t.Self[l])
	}
	for _, l := range t.layers() {
		if !strings.HasPrefix(l, "runtime.") && !slices.Contains(profiledLayers, l) {
			// A repo package outside the named layers: the benchmark's own.
			b.metrics["perfbench.self_frac"] += t.Self[l]
		}
	}
	b.set("runtime.gc_frac", t.Self["runtime.gc"])
	b.set("runtime.sched_frac", t.Self["runtime.sched"])
	b.set("runtime.maps_frac", t.Leaf["runtime.maps"])
	b.set("runtime.malloc_frac", t.Leaf["runtime.malloc"])
	b.setPhases(t)
}

// setPhases records the windowed engine's phase shares from a profile
// table.
func (b *bench) setPhases(t profileTable) {
	b.set("sim.window_frac", t.share("sim.window"))
	b.set("sim.barrier_frac", t.share("sim.barrier"))
	b.set("sim.drain_frac", t.share("sim.drain"))
	b.set("sim.edge_frac", t.share("sim.edge"))
}

// startProfile starts a profileHz CPU profile into buf; stop it with
// pprof.StopCPUProfile.
func startProfile(buf *bytes.Buffer) error {
	// Raise the rate before StartCPUProfile, which would set 100 Hz; it
	// keeps the rate already set (and says so on stderr).
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(buf)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profile tables and campaign runs")
	refSeeds := fs.String("write-refs", "", "instead of measuring, print refs.json for these seeds (e.g. 0-20) of every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refSeeds != "" {
		if err := writeRefs(stdout, *refSeeds, *out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out}
	var err error
	if rc.floors, err = specFloors(w.Name()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	refs, err := references(w.Name())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rc.ref = refs[fmt.Sprint(*seed)]
	res, prov, err := measure(w, rc, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name())
	}
	return names
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64 // host seconds to measure for
	traced  bool
	out     string // spans, profile tables and campaign trees go here
	floors  floors
	ref     string // reference digest for the seed, "" if none shipped
}

// measure runs one workload for the configured budget and returns its
// result record. Spans, the provenance and (traced) the profile table
// are written under rc.out.
func measure(w workloadDef, rc runConfig, log io.Writer) (result, provenance, error) {
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return result{}, provenance{}, err
	}
	prev := runtime.GOMAXPROCS(w.Procs())
	defer runtime.GOMAXPROCS(prev)

	b := &bench{
		seed:     rc.seed,
		deadline: time.Now().Add(time.Duration(rc.seconds * float64(time.Second))),
		out:      rc.out,
		floors:   rc.floors,
		ref:      rc.ref,
		tr:       newTracer(),
		log:      log,
		metrics:  map[string]float64{},
	}
	prov := hostProvenance()
	prov.Workload, prov.Seed, prov.Seconds, prov.SimSize = w.Name(), rc.seed, int(rc.seconds), w.Size()
	defs := endToEnd
	var err error
	if rc.traced {
		prov.Trace = 1
		defs = perLayer
		err = w.trace(b)
	} else {
		err = w.measure(b)
	}
	if err != nil {
		return result{}, prov, err
	}
	if b.attempted > 0 {
		b.set("ops_ok_frac", float64(b.attempted-b.failed)/float64(b.attempted))
	}
	if len(b.refs) > 0 {
		prov.ReferenceS, prov.MeasuredTimings = median(b.refs), b.raw
	}

	res := result{
		Correct:   b.attempted > 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := b.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, prov, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	stem := filepath.Join(rc.out, fmt.Sprintf("%s-seed%d-trace%d", w.Name(), rc.seed, prov.Trace))
	dump := map[string]any{"provenance": prov, "spans": b.tr.spans, "span_totals": b.tr.totals()}
	if err := writeJSON(stem+".spans.json", dump); err != nil {
		return result{}, prov, err
	}
	if b.profile != nil {
		dump := map[string]any{"provenance": prov, "profile": b.profile}
		if b.parallelProfile != nil {
			dump["profile_gomaxprocs2"] = b.parallelProfile
		}
		if err := writeJSON(stem+".profile.json", dump); err != nil {
			return result{}, prov, err
		}
	}
	return res, prov, nil
}

// writeRefs measures one untraced unit per workload and seed and prints
// the reference digests as refs.json.
func writeRefs(stdout io.Writer, seeds, out string) error {
	var lo, hi uint64
	if _, err := fmt.Sscanf(seeds, "%d-%d", &lo, &hi); err != nil {
		return fmt.Errorf("--write-refs %q: want a seed range such as 0-20", seeds)
	}
	refs := map[string]map[string]string{}
	for _, w := range workloads {
		refs[w.Name()] = map[string]string{}
		for s := lo; s <= hi; s++ {
			b := &bench{seed: s, out: out, tr: newTracer(), log: io.Discard, metrics: map[string]float64{}}
			prev := runtime.GOMAXPROCS(w.Procs())
			d, err := w.digest(b)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return err
			}
			refs[w.Name()][fmt.Sprint(s)] = d
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", data)
	return err
}
