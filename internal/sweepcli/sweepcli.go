// Package sweepcli is the body of the sweep command, factored out of
// package main so tests can drive full artifact-producing invocations
// in-process (the -run-id byte-reproducibility regression test runs
// the CLI twice and diffs the trees, and the campaign resume test
// kills and resumes a campaign the same way).
//
// The package deliberately sits outside the walltime contract scope
// (internal/lint): wall-clock use here is confined to progress timing
// on stdout and the manifest's StartedAt for unnamed runs — never to
// simulation or artifact content.
package sweepcli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"specsimp/internal/campaign"
	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/workload"
)

// ExpUsage is the -exp flag's help text, generated from the experiment
// registry so the usage string can never drift from the registered set.
func ExpUsage() string {
	return "experiment: " + strings.Join(append(experiments.Names(), "all"), ", ")
}

// Run executes one sweep invocation with the given command-line
// arguments (without the program name), writing tables or JSON
// summaries to w. It is cmd/sweep's entire body; see that command's
// doc comment for the flag reference.
func Run(args []string, w io.Writer) error {
	startedAt := time.Now().UTC()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", ExpUsage())
		quick    = fs.Bool("quick", false, "bench-sized parameters (faster, noisier)")
		wlName   = fs.String("workload", "oltp", "workload override for experiments with a workload axis — any registered name or trace:<path>; when unset each experiment keeps its registry-declared default")
		parallel = fs.Int("parallel", 0, "ACROSS-run parallelism: the worker-pool bound for grid execution — up to N design points simulate concurrently, one kernel each (0 = GOMAXPROCS). Orthogonal to -shards.")
		shards   = fs.String("shards", "1", "INTRA-run parallelism for shard-capable design points (the scale64/scale1024 directory machines): each single run partitions its torus into tiles advancing in conservative lockstep windows. 'N' requests N tiles (auto-factored into a near-square RxC grid per point); 'RxC' pins the tile-grid shape, e.g. 4x2 = 4 rows of 2 columns. Results and artifacts are byte-identical for every count and shape; per point an unfit request is clamped to the largest legal tiling, and snooping points always simulate serially (ordered bus).")
		out      = fs.String("out", "", "artifact directory for CSV+JSON results ('auto' = run dir under sweep-runs/, empty = none)")
		runID    = fs.String("run-id", "", "name for this run: with -out auto the artifacts land in sweep-runs/run-<id>, and the manifest records the id instead of a wall-clock start time, making the whole artifact tree byte-reproducible (empty = timestamped dir and started_at in the manifest). With -campaign it overrides the spec's run_id.")
		asJSON   = fs.Bool("json", false, "print JSON summaries to stdout instead of tables")

		campaignPath = fs.String("campaign", "", "run a declarative campaign from this JSON spec (see EXPERIMENTS.md \"Campaigns\"); resumable — re-invoking with the same spec and run id skips completed points")
		analyzeDir   = fs.String("analyze", "", "regenerate summaries, paper tables, and LaTeX tables from a completed run directory without re-simulating")
		abortAfter   = fs.Int("campaign-abort-after", 0, "interrupt the campaign after N freshly executed points (the simulated-kill hook resume tests and CI use; 0 = run to completion)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: want 0 (GOMAXPROCS) or more", *parallel)
	}
	if *abortAfter < 0 {
		return fmt.Errorf("-campaign-abort-after %d: want 0 (run to completion) or more", *abortAfter)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkModeFlags(explicit, *analyzeDir != "", *campaignPath != ""); err != nil {
		return err
	}

	if *analyzeDir != "" {
		rep, err := campaign.Analyze(*analyzeDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "analyzed %d experiments (%d result rows): %s\n",
			len(rep.Experiments), rep.Rows, strings.Join(rep.Experiments, ", "))
		fmt.Fprintf(os.Stderr, "sweep: analysis written to %s\n", rep.Dir+"/analysis")
		return nil
	}
	if *campaignPath != "" {
		return runCampaign(*campaignPath, *runID, *parallel, *abortAfter, explicit, w)
	}

	p := experiments.Standard()
	if *quick {
		p = experiments.Quick()
	}
	n, rows, cols, err := campaign.ParseShards(*shards)
	if err != nil {
		return err
	}
	p.Shards, p.ShardRows, p.ShardCols = n, rows, cols
	if explicit["workload"] {
		// An explicit -workload overrides every selected experiment's
		// workload axis; left unset, each experiment keeps its declared
		// default (checkpoint runs uniform, the rest oltp).
		wl, err := workload.Resolve(*wlName)
		if err != nil {
			return err
		}
		p.Workload = wl
	}

	ex := &runner.Runner{Workers: *parallel}
	if *out != "" {
		dir := *out
		if dir == "auto" {
			if *runID != "" {
				dir = runner.RunDir("sweep-runs", *runID)
			} else {
				dir = runner.TimestampedDir("sweep-runs")
			}
		}
		sink, err := runner.NewSink(dir)
		if err != nil {
			return err
		}
		ex.Sink = sink
	}
	p.Exec = ex

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.ByName(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (registered: %s, or all)",
				*exp, strings.Join(experiments.Names(), ", "))
		}
		selected = []experiments.Experiment{e}
	}

	var ran []string
	for _, e := range selected {
		np, err := experiments.Normalize(e, p)
		if err != nil {
			return err
		}
		ran = append(ran, e.Name())
		start := time.Now()
		if *asJSON {
			res, err := experiments.RunExperiment(e, np)
			if err != nil {
				return err
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]interface{}{"experiment": e.Name(), "results": res}); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "==== %s ====\n", e.Title(np))
		if pre, ok := e.(experiments.Preambler); ok {
			fmt.Fprintln(w, pre.Preamble(np))
		}
		res, err := experiments.RunExperiment(e, np)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, e.Table(res))
		fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if s := ex.Sink; s != nil {
		m := runner.Manifest{
			// The recorded command uses the canonical program name and
			// the caller's argument list, not os.Args: invoking the
			// binary through different paths must not change manifest
			// bytes.
			Command:     strings.TrimSpace("sweep " + strings.Join(args, " ")),
			Experiments: ran,
			Workers:     ex.WorkerBound(),
			Quick:       *quick,
		}
		if *runID != "" {
			m.RunID = *runID
		} else {
			m.StartedAt = startedAt
		}
		s.WriteJSON("manifest", m)
		if err := s.Err(); err != nil {
			return fmt.Errorf("artifact write failed: %v", err)
		}
		fmt.Fprintf(os.Stderr, "sweep: artifacts written to %s\n", s.Dir())
	}
	return nil
}

// checkModeFlags rejects a flag the chosen mode would silently ignore:
// -campaign reads only -run-id, -parallel and -campaign-abort-after
// besides its spec, and -analyze reads nothing but its directory.
func checkModeFlags(explicit map[string]bool, analyzeMode, campaignMode bool) error {
	sweepOnly := []string{"exp", "workload", "quick", "shards", "out", "json"}
	mode, unused := "a plain -exp sweep", []string{"campaign-abort-after"}
	switch {
	case analyzeMode:
		mode, unused = "-analyze", append(sweepOnly, "campaign", "run-id", "parallel", "campaign-abort-after")
	case campaignMode:
		mode, unused = "-campaign", sweepOnly
	}
	for _, name := range unused {
		if explicit[name] {
			return fmt.Errorf("-%s cannot be used with %s, which would ignore it", name, mode)
		}
	}
	return nil
}

// runCampaign executes -campaign: load and validate the spec, apply the
// CLI's overrides, run the plan with per-point resume, and print each
// completed experiment's table as it lands.
func runCampaign(path, runID string, parallel, abortAfter int, explicit map[string]bool, w io.Writer) error {
	spec, err := campaign.LoadSpec(path)
	if err != nil {
		return err
	}
	if runID != "" {
		spec.RunID = runID
	}
	if explicit["parallel"] {
		spec.Parallel = parallel
	}
	plan, err := campaign.BuildPlan(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign %s: %d experiments, %d design points\n",
		plan.RunID, len(plan.Experiments), plan.Points())

	last := time.Now()
	rep, err := campaign.Execute(plan, campaign.Options{
		AbortAfter: abortAfter,
		OnResult: func(pe campaign.PlanExperiment, res any) {
			fmt.Fprintf(w, "==== %s ====\n", pe.Exp.Title(pe.Params))
			if pre, ok := pe.Exp.(experiments.Preambler); ok {
				fmt.Fprintln(w, pre.Preamble(pe.Params))
			}
			fmt.Fprintln(w, pe.Exp.Table(res))
			fmt.Fprintf(w, "(%.1fs)\n\n", time.Since(last).Seconds())
			last = time.Now()
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "campaign %s: %d points executed, %d reused\n", plan.RunID, rep.Executed, rep.Reused)
	if rep.Interrupted {
		return fmt.Errorf("campaign %s interrupted after %d freshly executed points; re-run with the same spec and run id to resume", plan.RunID, rep.Executed)
	}
	fmt.Fprintf(os.Stderr, "sweep: artifacts written to %s\n", rep.Dir)
	return nil
}
