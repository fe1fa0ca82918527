package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"

	"specsimp/internal/campaign"
	"specsimp/internal/runner"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// campaignWorkload runs a quick campaign owned by the benchmark through
// campaign.LoadSpec → BuildPlan → Execute, then campaign.Analyze. One
// unit is one campaign from spec file to finished artifact tree.
type campaignWorkload struct {
	name   string
	procs  int
	cycles uint64 // per-point cycle override (0 = the quick default)
}

func (w campaignWorkload) Name() string { return w.name }
func (w campaignWorkload) Procs() int   { return w.procs }

func (w campaignWorkload) Size() string {
	return fmt.Sprintf("quick campaign of 4x4 machines on 1 worker: fig4 over %d traced workloads, "+
		"availability and buffers over the first; %d cycles per point, %d references per node per trace",
		len(tracedProfiles), w.cycles, traceRefs)
}

// The drivers fix every point's seed, so the benchmark seed reaches the
// simulations through the workload axes instead: prepare records each
// traced profile's per-node reference streams from the seed, and every
// experiment replays them. The mix of profiles stays the same for every
// seed, so the amount of work does too.
var tracedProfiles = []workload.Profile{workload.OLTP, workload.JBB}

const (
	traceNodes    = 16    // the campaign's 4x4 machines
	traceRefs     = 8_000 // per node; a -quick point consumes about a thousand
	replayWorkers = 2     // the runner replay's pool (runner.* metrics)
)

// spec is the campaign over the recorded traces: fig4 replays all of
// them, availability and buffers the first. It runs one worker: on the
// workload's one proc a second worker would only take turns with the
// first, and the timer-driven turns would make peak RSS a matter of
// timing.
func (w campaignWorkload) spec(traces []string) campaign.Spec {
	axis := make(campaign.AxisValues, len(traces))
	for i, t := range traces {
		axis[i] = "trace:" + t
	}
	return campaign.Spec{
		RunID:    "perfbench",
		Quick:    true,
		Parallel: 1,
		Shards:   "1",
		Cycles:   w.cycles,
		Experiments: []campaign.ExperimentSpec{
			{Name: "fig4", Axes: map[string]campaign.AxisValues{"workloads": axis}},
			{Name: "availability", Axes: map[string]campaign.AxisValues{"workload": axis[:1]}},
			{Name: "buffers", Axes: map[string]campaign.AxisValues{"workload": axis[:1]}},
		},
	}
}

// campaignUnit is one measured campaign.
type campaignUnit struct {
	wall, setup, plan, analyze float64 // host seconds
	rows                       []map[string]string
	digest                     string
	mem                        memDelta
}

// paths returns the spec file and the run-directory root of the
// benchmark's campaign.
func (w campaignWorkload) paths(b *bench) (spec, root string) {
	dir := filepath.Join(b.out, w.name)
	return filepath.Join(dir, "spec.json"), filepath.Join(dir, "runs")
}

// prepare records the seed's traces, writes the spec file, and clears
// earlier campaign runs, so every unit simulates every point (no
// resume).
func (w campaignWorkload) prepare(b *bench) error {
	specPath, root := w.paths(b)
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	dir := filepath.Dir(specPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var traces []string
	for _, p := range tracedProfiles {
		rec := workload.NewTraceRecorder(p.Name, traceNodes)
		for n := 0; n < traceNodes; n++ {
			g := rec.Wrap(n, workload.New(p, n, traceNodes, b.seed))
			for i := 0; i < traceRefs; i++ {
				g.Peek()
				g.Advance()
			}
		}
		path := filepath.Join(dir, p.Name+".spwt")
		if err := rec.Trace().WriteFile(path); err != nil {
			return err
		}
		traces = append(traces, path)
	}
	return os.WriteFile(specPath, w.spec(traces).Canonical(), 0o644)
}

// setupOnce times the campaign's set-up: spec load, BuildPlan and
// creating the run directory.
func (w campaignWorkload) setupOnce(b *bench, parent int) (campaign.Plan, float64, float64, error) {
	specPath, root := w.paths(b)
	if err := os.RemoveAll(root); err != nil {
		return campaign.Plan{}, 0, 0, err
	}
	sp := b.tr.open("campaign.setup", parent)
	s := b.tr.open("campaign.LoadSpec", sp)
	spec, err := campaign.LoadSpec(specPath)
	b.tr.close(s)
	if err != nil {
		return campaign.Plan{}, 0, 0, err
	}
	s = b.tr.open("campaign.BuildPlan", sp)
	plan, err := campaign.BuildPlan(spec)
	planS := b.tr.close(s)
	if err != nil {
		return campaign.Plan{}, 0, 0, err
	}
	s = b.tr.open("runner.NewSink", sp)
	_, err = runner.NewSink(runner.RunDir(root, plan.RunID))
	b.tr.close(s)
	return plan, b.tr.close(sp), planS, err
}

// unit runs one campaign; prof, when non-nil, receives a CPU profile of
// it. The set-up is timed setupReps extra times first (a single set-up
// takes ~100µs, too little to repeat within a tenth on its own).
func (w campaignWorkload) unit(b *bench, prof *bytes.Buffer) (campaignUnit, error) {
	var u campaignUnit
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, s, _, err := w.setupOnce(b, -1)
		if err != nil {
			return u, err
		}
		setups = append(setups, s)
	}
	runtime.GC()
	if prof != nil {
		if err := startProfile(prof); err != nil {
			return u, err
		}
		defer pprof.StopCPUProfile()
	}
	b.tr.nextUnit()
	m0 := memSnapshot()
	top := b.tr.open("unit", -1)
	plan, setup, planS, err := w.setupOnce(b, top)
	if err != nil {
		return u, err
	}
	sp := b.tr.open("campaign.Execute", top)
	_, root := w.paths(b)
	rep, err := campaign.Execute(plan, campaign.Options{Root: root})
	b.tr.close(sp)
	u.wall = b.tr.close(top)
	u.mem = memSince(m0)
	if err != nil {
		return u, err
	}
	u.setup = median(append(setups, setup))
	u.plan = planS

	// The spec echo names the trace files by path; everything else in
	// the tree is a pure function of the traces.
	if u.digest, err = treeDigest(rep.Dir, "campaign.json"); err != nil {
		return u, err
	}
	sp = b.tr.open("campaign.Analyze", -1)
	_, aerr := campaign.Analyze(rep.Dir)
	u.analyze = b.tr.close(sp)

	// Every point row is one op; the artifact tree and its analysis one
	// more.
	for _, pe := range plan.Experiments {
		rows, err := readCSV(filepath.Join(rep.Dir, pe.Exp.Name()+".csv"))
		if err != nil {
			return u, err
		}
		if len(rows) != len(pe.Points) {
			b.op(pe.Exp.Name(), []string{fmt.Sprintf("%d rows for %d points", len(rows), len(pe.Points))})
		}
		for _, row := range rows {
			b.op(pe.Exp.Name()+" point", w.checkRow(row))
		}
		u.rows = append(u.rows, rows...)
	}
	problems := b.checkDigest(u.digest)
	if plan.Points() < b.floors.Points {
		problems = append(problems, fmt.Sprintf("%d points, floor %d", plan.Points(), b.floors.Points))
	}
	if aerr != nil {
		problems = append(problems, "analyze: "+aerr.Error())
	}
	for _, pe := range plan.Experiments {
		name := pe.Exp.Name() + ".json"
		run, err1 := os.ReadFile(filepath.Join(rep.Dir, name))
		again, err2 := os.ReadFile(filepath.Join(rep.Dir, "analysis", name))
		if err1 != nil || err2 != nil || !bytes.Equal(run, again) {
			problems = append(problems, "analysis/"+name+" differs from the run's "+name)
		}
	}
	b.op(w.name+" artifact tree", problems)
	return u, nil
}

// checkRow checks one point row: no error, and work retired.
func (w campaignWorkload) checkRow(row map[string]string) []string {
	var problems []string
	if e := row["error"]; e != "" {
		problems = append(problems, "point error: "+e)
	}
	if instr, _ := strconv.ParseFloat(row["instructions"], 64); instr < 1 {
		problems = append(problems, "point retired no instructions")
	}
	return problems
}

// readCSV loads a run's per-point CSV as header-keyed rows.
func readCSV(path string) ([]map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: empty", path)
	}
	rows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		row := make(map[string]string, len(rec))
		for i, col := range recs[0] {
			row[col] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// total sums one metric column over rows.
func total(rows []map[string]string, col string) float64 {
	var t float64
	for _, r := range rows {
		v, _ := strconv.ParseFloat(r[col], 64)
		t += v
	}
	return t
}

func (w campaignWorkload) digest(b *bench) (string, error) {
	if err := w.prepare(b); err != nil {
		return "", err
	}
	u, err := w.unit(b, nil)
	return u.digest, err
}

func (w campaignWorkload) measure(b *bench) error {
	if err := w.prepare(b); err != nil {
		return err
	}
	var walls, setups, rates []float64
	var last campaignUnit
	for i := 0; i < minUnits || b.more(); i++ {
		b.reference()
		u, err := w.unit(b, nil)
		if err != nil {
			return err
		}
		walls = append(walls, u.wall)
		setups = append(setups, u.setup)
		rates = append(rates, total(u.rows, "cycles")/u.wall)
		last = u
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.setTimings(median(walls), median(setups), median(rates))
	b.set("peak_rss_mb", rss)
	b.set("sim_ipc", total(last.rows, "instructions")/total(last.rows, "cycles"))
	return nil
}

// trace alternates untraced and profiled campaigns, replays the plan
// through runner.Runner with every point timed, and reports the
// per-layer metrics.
func (w campaignWorkload) trace(b *bench) error {
	if err := w.prepare(b); err != nil {
		return err
	}
	var (
		plain                  []campaignUnit
		tracedWalls, pointSecs []float64
		busy, ledger, cacheNew []float64
		samples                []stackSample
	)
	for i := 0; i < minTracedUnits || b.more() || len(pointSecs) < minPointSamples; i++ {
		if i < minTracedUnits || b.more() {
			u, err := w.unit(b, nil)
			if err != nil {
				return err
			}
			plain = append(plain, u)

			var prof bytes.Buffer
			t, err := w.unit(b, &prof)
			if err != nil {
				return err
			}
			ss, err := decodeProfile(prof.Bytes())
			if err != nil {
				return err
			}
			samples = append(samples, ss...)
			tracedWalls = append(tracedWalls, t.wall)
			cacheNew = append(cacheNew, cacheNewSeconds(b, system.DefaultConfig(system.DirectorySpec, workload.OLTP)))
		}
		secs, bf, led, err := w.replay(b)
		if err != nil {
			return err
		}
		pointSecs = append(pointSecs, secs...)
		busy = append(busy, bf)
		ledger = append(ledger, led)
	}

	pick := func(f func(u campaignUnit) float64) float64 {
		xs := make([]float64, len(plain))
		for i, u := range plain {
			xs[i] = f(u)
		}
		return median(xs)
	}
	rows := plain[len(plain)-1].rows
	b.set("campaign.plan_s", pick(func(u campaignUnit) float64 { return u.plan }))
	b.set("campaign.analyze_s", pick(func(u campaignUnit) float64 { return u.analyze }))
	b.set("cache.new_s", median(cacheNew))
	b.set("runtime.alloc_mb", pick(func(u campaignUnit) float64 { return u.mem.allocMB }))
	b.set("runtime.gc_cycles", pick(func(u campaignUnit) float64 { return u.mem.gcCycles }))
	b.set("runtime.gc_pause_ms", pick(func(u campaignUnit) float64 { return u.mem.pauseMS }))
	b.set("network.link_util", total(rows, "mean_link_util")/float64(len(rows)))
	b.set("directory.transactions", total(rows, "transactions"))
	b.set("directory.invalidations", total(rows, "invalidations"))
	b.set("directory.inv_broadcasts", total(rows, "inv_broadcasts"))
	b.set("processor.instructions", total(rows, "instructions"))
	b.set("safetynet.checkpoints", total(rows, "checkpoints"))
	b.set("safetynet.log_high_water_bytes", maxCol(rows, "log_high_water_bytes"))
	b.set("core.recoveries", total(rows, "recoveries"))
	b.set("core.lost_work_frac", total(rows, "rollback_sum")/total(rows, "cycles"))

	table := aggregate(samples)
	b.setProfile(table)
	b.set("runner.point_s_p50", quantile(pointSecs, 0.5))
	b.set("runner.point_s_p90", quantile(pointSecs, 0.9))
	b.set("runner.busy_frac", median(busy))
	b.set("campaign.ledger_s", median(ledger))
	b.set("trace.overhead_frac", median(tracedWalls)/pick(func(u campaignUnit) float64 { return u.wall })-1)
	return nil
}

func maxCol(rows []map[string]string, col string) float64 {
	var m float64
	for _, r := range rows {
		if v, _ := strconv.ParseFloat(r[col], 64); v > m {
			m = v
		}
	}
	return m
}

// replay runs the plan's points through runner.Runner with every
// Point.Run wrapped in a span, then times the ledger storing and
// canonicalizing the results. It returns each point's seconds, the
// pool's busy fraction (Σ point seconds ÷ (workers × wall)) and the
// ledger seconds. The pool has replayWorkers workers and a proc each,
// so the last long point sets its finish time (on fewer procs a point's
// span would also time the other workers' turns).
func (w campaignWorkload) replay(b *bench) ([]float64, float64, float64, error) {
	plan, _, _, err := w.setupOnce(b, -1)
	if err != nil {
		return nil, 0, 0, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(replayWorkers))
	var pts []runner.Point
	for _, pe := range plan.Experiments {
		pts = append(pts, pe.Points...)
	}
	secs := make([]float64, len(pts))
	b.tr.nextUnit()
	top := b.tr.open("runner.Run", -1)
	for i := range pts {
		run := pts[i].Run
		pts[i].Run = func(seed uint64) (runner.Metrics, error) {
			sp := b.tr.open("runner.Point.Run", top)
			m, err := run(seed)
			secs[i] = b.tr.close(sp)
			return m, err
		}
	}
	r := &runner.Runner{Workers: replayWorkers}
	res := r.Run(pts)
	wall := b.tr.close(top)
	for _, rr := range res {
		var problems []string
		if rr.Err != nil {
			problems = append(problems, "point error: "+rr.Err.Error())
		}
		if rr.Metrics.Instructions < 1 {
			problems = append(problems, "point retired no instructions")
		}
		b.op("replayed point", problems)
	}

	_, root := w.paths(b)
	led, err := campaign.OpenLedger(runner.RunDir(root, plan.RunID))
	if err != nil {
		return nil, 0, 0, err
	}
	sp := b.tr.open("campaign.Ledger", -1)
	for _, rr := range res {
		errText := ""
		if rr.Err != nil {
			errText = rr.Err.Error()
		}
		led.Store(rr.Point, rr.Metrics, errText)
	}
	err = led.Canonicalize(plan)
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	ledgerS := b.tr.close(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	return secs, sum(secs) / (float64(r.WorkerBound()) * wall), ledgerS, nil
}
