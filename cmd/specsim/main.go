// Command specsim runs one simulated system and reports its results.
//
// Usage:
//
//	specsim -kind directory-spec -workload oltp -cycles 2000000
//	specsim -kind snoop-spec -workload apache -runs 5
//	specsim -kind directory-spec -net simplified -buffers 2 -bw 0.2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"specsimp/internal/campaign"
	"specsimp/internal/experiments"
	"specsimp/internal/network"
	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/stats"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams, returning the exit
// code: 0 after a report, 1 on an error, 2 on a flag that does not
// parse.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kindName = fs.String("kind", "directory-spec", "system kind: directory-full, directory-spec, snoop-full, snoop-spec")
		wlName   = fs.String("workload", "oltp", "workload: oltp, jbb, apache, slashcode, barnes, uniform, hotspot, the sharing idioms (migratory, ring, scan, broadcast), or trace:<path> to replay a recorded trace")
		cycles   = fs.Uint64("cycles", 2_000_000, "simulated cycles to run")
		runs     = fs.Int("runs", 1, "perturbed runs (paper §5.2 methodology)")
		seed     = fs.Uint64("seed", 1, "base random seed")
		netKind  = fs.String("net", "", "network override: static, adaptive, simplified")
		bw       = fs.Float64("bw", 0.8, "link bandwidth in bytes/cycle for -net (0.1 = 400 MB/s at 4 GHz)")
		buffers  = fs.Int("buffers", 8, "buffer size for -net simplified, at least 1 (sweep -exp buffers runs the unbounded-buffer baseline)")
		inject   = fs.Uint64("inject", 0, "inject a recovery every N cycles (0 = off)")
		interval = fs.Uint64("interval", 0, "checkpoint interval override in cycles")
		shards   = fs.String("shards", "0", "INTRA-run parallelism: partition this run's torus into tiles advancing in conservative lockstep windows (directory kinds on unlimited-buffer networks only). 'N' requests N tiles auto-factored into a near-square RxC grid; 'RxC' (e.g. 2x2) pins the grid shape — rows must divide the torus height, columns its width. Results are bit-identical for every count and shape >= 1 tile. 0 = classic serial path. Note -runs parallelizes ACROSS perturbed runs instead, one kernel each.")
		recTrace = fs.String("record-trace", "", "record the streams this run consumes to the given trace file (single run only; replay with -workload trace:<path>)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	fail := func(err error) int {
		fmt.Fprintf(stderr, "specsim: %v\n", err)
		return 1
	}
	if err := checkFlags(explicit, *runs, *cycles, *netKind, *buffers); err != nil {
		return fail(err)
	}

	kind, err := parseKind(*kindName)
	if err != nil {
		return fail(err)
	}
	wl, err := workload.Resolve(*wlName)
	if err != nil {
		return fail(err)
	}
	cfg := system.DefaultConfig(kind, wl)
	cfg.Seed = *seed
	switch *netKind {
	case "":
	case "static":
		cfg.Net = network.SafeStaticConfig(4, 4, *bw)
	case "adaptive":
		cfg.Net = network.AdaptiveConfig(4, 4, *bw)
	case "simplified":
		cfg.Net = network.SimplifiedConfig(4, 4, *bw, *buffers)
		if cfg.TimeoutCycles == 0 {
			cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		}
	default:
		return fail(fmt.Errorf("unknown network %q", *netKind))
	}
	if *interval > 0 {
		cfg.CheckpointInterval = sim.Time(*interval)
		if cfg.TimeoutCycles > 0 {
			cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		}
	}
	cfg.InjectRecoveryEvery = sim.Time(*inject)
	if *shards != "0" {
		n, rows, cols, err := campaign.ParseShards(*shards)
		if err != nil {
			return fail(err)
		}
		cfg.Shards, cfg.ShardRows, cfg.ShardCols = n, rows, cols
	}
	if err := system.ValidateConfig(cfg); err != nil {
		return fail(err)
	}

	if *recTrace != "" {
		if *runs > 1 {
			return fail(errors.New("-record-trace records a single run; drop -runs"))
		}
		cfg.Recorder = workload.NewTraceRecorder(wl.Name, cfg.Nodes)
	}
	if *runs == 1 {
		r := system.RunOne(cfg, sim.Time(*cycles))
		if cfg.Recorder != nil {
			if err := cfg.Recorder.Trace().WriteFile(*recTrace); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "trace:         recorded to %s\n", *recTrace)
		}
		report(stdout, r)
		return 0
	}
	// The §5.2 repeats are a one-point grid on the sweep engine: the
	// same seeds (base + i·7919) and worker pool as every experiment.
	pts := make([]runner.Point, *runs)
	for i := range pts {
		pts[i] = experiments.SysPoint("specsim", cfg, sim.Time(*cycles), nil, i)
	}
	res := (&runner.Runner{}).Run(pts)
	var perf, recoveries stats.Sample
	for _, r := range res {
		if r.Err != nil {
			return fail(r.Err)
		}
		perf.Observe(r.Metrics.Perf)
		recoveries.Observe(r.Metrics.Recoveries)
	}
	fmt.Fprintf(stdout, "%d perturbed runs of %s / %s:\n", *runs, kind, wl.Name)
	fmt.Fprintf(stdout, "  performance: %s\n", perf.String())
	fmt.Fprintf(stdout, "  recoveries:  %s\n", recoveries.String())
	for i, r := range res {
		fmt.Fprintf(stdout, "  run %d: perf=%.4f recoveries=%.0f reorder=%.5f\n",
			i, r.Metrics.Perf, r.Metrics.Recoveries, r.Metrics.ReorderTotal)
	}
	return 0
}

// checkFlags rejects a flag value the run would ignore or cannot honor.
// The network package reads a buffer size of 0 as unbounded buffering,
// which -net simplified, a finite-buffer network, never means.
func checkFlags(explicit map[string]bool, runs int, cycles uint64, net string, buffers int) error {
	switch {
	case runs < 1:
		return fmt.Errorf("-runs %d: want at least 1", runs)
	case cycles == 0:
		return errors.New("-cycles 0: want at least 1")
	case explicit["bw"] && net == "":
		return errors.New("-bw sets the bandwidth of a -net override: add -net static, adaptive or simplified")
	case explicit["buffers"] && net != "simplified":
		return errors.New("-buffers sizes the buffers of -net simplified only")
	case net == "simplified" && buffers < 1:
		return fmt.Errorf("-buffers %d: -net simplified needs at least 1 buffer; its unbounded-buffer baseline is bufsize 0 of sweep -exp buffers", buffers)
	}
	return nil
}

func parseKind(s string) (system.Kind, error) {
	for _, k := range []system.Kind{
		system.DirectoryFull, system.DirectorySpec,
		system.SnoopFull, system.SnoopSpec,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func report(w io.Writer, r system.Results) {
	fmt.Fprintf(w, "system:        %s\n", r.Kind)
	fmt.Fprintf(w, "workload:      %s\n", r.Workload)
	fmt.Fprintf(w, "cycles:        %d\n", r.Cycles)
	fmt.Fprintf(w, "instructions:  %d\n", r.Instructions)
	fmt.Fprintf(w, "performance:   %.4f IPC aggregate\n", r.Perf)
	fmt.Fprintf(w, "transactions:  %d (%d writebacks, %d racing forwards)\n", r.Transactions, r.Writebacks, r.WBRaces)
	fmt.Fprintf(w, "miss latency:  %.0f cycles mean\n", r.MissLatencyMean)
	fmt.Fprintf(w, "checkpoints:   %d (stall %d cycles, log high water %d bytes)\n",
		r.Checkpoints, r.CheckpointStall, r.LogHighWaterBytes)
	fmt.Fprintf(w, "link util:     %.1f%%\n", 100*r.MeanLinkUtil)
	fmt.Fprintf(w, "reorder rate:  %.5f total", r.TotalReorderRate)
	for v, rr := range r.ReorderRatePerVNet {
		fmt.Fprintf(w, "  vnet%d=%.5f", v, rr)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "recoveries:    %d", r.Recoveries)
	if len(r.RecoveryReasons) > 0 {
		reasons := make([]string, 0, len(r.RecoveryReasons))
		for k := range r.RecoveryReasons {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		fmt.Fprint(w, "  (")
		for i, k := range reasons {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s: %d", k, r.RecoveryReasons[k])
		}
		fmt.Fprint(w, ")")
	}
	fmt.Fprintln(w)
	if r.Recoveries > 0 {
		fmt.Fprintf(w, "lost work:     %.0f cycles mean per recovery\n", r.MeanLostWork)
	}
}
