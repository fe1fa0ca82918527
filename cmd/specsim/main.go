// Command specsim runs one simulated system and reports its results.
//
// Usage:
//
//	specsim -kind directory-spec -workload oltp -cycles 2000000
//	specsim -kind snoop-spec -workload apache -runs 5
//	specsim -kind directory-spec -net simplified -buffers 2 -bw 0.2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"specsimp"
	"specsimp/internal/campaign"
	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specsim: ")

	var (
		kindName = flag.String("kind", "directory-spec", "system kind: directory-full, directory-spec, snoop-full, snoop-spec")
		wlName   = flag.String("workload", "oltp", "workload: oltp, jbb, apache, slashcode, barnes, uniform, hotspot, the sharing idioms (migratory, ring, scan, broadcast), or trace:<path> to replay a recorded trace")
		cycles   = flag.Uint64("cycles", 2_000_000, "simulated cycles to run")
		runs     = flag.Int("runs", 1, "perturbed runs (paper §5.2 methodology)")
		seed     = flag.Uint64("seed", 1, "base random seed")
		netKind  = flag.String("net", "", "network override: static, adaptive, simplified")
		bw       = flag.Float64("bw", 0.8, "link bandwidth in bytes/cycle (0.1 = 400 MB/s at 4 GHz)")
		buffers  = flag.Int("buffers", 8, "buffer size for -net simplified")
		inject   = flag.Uint64("inject", 0, "inject a recovery every N cycles (0 = off)")
		interval = flag.Uint64("interval", 0, "checkpoint interval override in cycles")
		shards   = flag.String("shards", "0", "INTRA-run parallelism: partition this run's torus into tiles advancing in conservative lockstep windows (directory kinds on unlimited-buffer networks only). 'N' requests N tiles auto-factored into a near-square RxC grid; 'RxC' (e.g. 2x2) pins the grid shape — rows must divide the torus height, columns its width. Results are bit-identical for every count and shape >= 1 tile. 0 = classic serial path. Note -runs parallelizes ACROSS perturbed runs instead, one kernel each.")
		recTrace = flag.String("record-trace", "", "record the streams this run consumes to the given trace file (single run only; replay with -workload trace:<path>)")
	)
	flag.Parse()

	kind, err := parseKind(*kindName)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := specsimp.ResolveWorkload(*wlName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := specsimp.DefaultConfig(kind, wl)
	cfg.Seed = *seed
	switch *netKind {
	case "":
	case "static":
		cfg.Net = specsimp.SafeStaticConfig(4, 4, *bw)
	case "adaptive":
		cfg.Net = specsimp.AdaptiveNetConfig(4, 4, *bw)
	case "simplified":
		cfg.Net = specsimp.SimplifiedNetConfig(4, 4, *bw, *buffers)
		if cfg.TimeoutCycles == 0 {
			cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		}
	default:
		log.Fatalf("unknown network %q", *netKind)
	}
	if *interval > 0 {
		cfg.CheckpointInterval = specsimp.Time(*interval)
		if cfg.TimeoutCycles > 0 {
			cfg.TimeoutCycles = 3 * cfg.CheckpointInterval
		}
	}
	cfg.InjectRecoveryEvery = specsimp.Time(*inject)
	if *shards != "0" {
		n, rows, cols, err := campaign.ParseShards(*shards)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Shards, cfg.ShardRows, cfg.ShardCols = n, rows, cols
	}
	if err := specsimp.ValidateConfig(cfg); err != nil {
		log.Fatal(err)
	}

	if *recTrace != "" {
		if *runs > 1 {
			log.Fatal("-record-trace records a single run; drop -runs")
		}
		cfg.Recorder = specsimp.NewTraceRecorder(wl.Name, cfg.Nodes)
	}
	if *runs <= 1 {
		r := specsimp.RunOne(cfg, specsimp.Time(*cycles))
		if cfg.Recorder != nil {
			if err := cfg.Recorder.Trace().WriteFile(*recTrace); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("trace:         recorded to %s\n", *recTrace)
		}
		report(r)
		return
	}
	// The §5.2 repeats are a one-point grid on the sweep engine: the
	// same seeds (base + i·7919) and worker pool as every experiment.
	pts := make([]runner.Point, *runs)
	for i := range pts {
		pts[i] = experiments.SysPoint("specsim", cfg, specsimp.Time(*cycles), nil, i)
	}
	res := (&runner.Runner{}).Run(pts)
	var perf, recoveries stats.Sample
	for _, r := range res {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		perf.Observe(r.Metrics.Perf)
		recoveries.Observe(r.Metrics.Recoveries)
	}
	fmt.Printf("%d perturbed runs of %s / %s:\n", *runs, kind, wl.Name)
	fmt.Printf("  performance: %s\n", perf.String())
	fmt.Printf("  recoveries:  %s\n", recoveries.String())
	for i, r := range res {
		fmt.Printf("  run %d: perf=%.4f recoveries=%.0f reorder=%.5f\n",
			i, r.Metrics.Perf, r.Metrics.Recoveries, r.Metrics.ReorderTotal)
	}
}

func parseKind(s string) (specsimp.Kind, error) {
	for _, k := range []specsimp.Kind{
		specsimp.DirectoryFull, specsimp.DirectorySpec,
		specsimp.SnoopFull, specsimp.SnoopSpec,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func report(r specsimp.Results) {
	fmt.Printf("system:        %s\n", r.Kind)
	fmt.Printf("workload:      %s\n", r.Workload)
	fmt.Printf("cycles:        %d\n", r.Cycles)
	fmt.Printf("instructions:  %d\n", r.Instructions)
	fmt.Printf("performance:   %.4f IPC aggregate\n", r.Perf)
	fmt.Printf("transactions:  %d (%d writebacks, %d racing forwards)\n", r.Transactions, r.Writebacks, r.WBRaces)
	fmt.Printf("miss latency:  %.0f cycles mean\n", r.MissLatencyMean)
	fmt.Printf("checkpoints:   %d (stall %d cycles, log high water %d bytes)\n",
		r.Checkpoints, r.CheckpointStall, r.LogHighWaterBytes)
	fmt.Printf("link util:     %.1f%%\n", 100*r.MeanLinkUtil)
	fmt.Printf("reorder rate:  %.5f total", r.TotalReorderRate)
	for v, rr := range r.ReorderRatePerVNet {
		fmt.Printf("  vnet%d=%.5f", v, rr)
	}
	fmt.Println()
	fmt.Printf("recoveries:    %d", r.Recoveries)
	if len(r.RecoveryReasons) > 0 {
		reasons := make([]string, 0, len(r.RecoveryReasons))
		for k := range r.RecoveryReasons {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		fmt.Print("  (")
		for i, k := range reasons {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s: %d", k, r.RecoveryReasons[k])
		}
		fmt.Print(")")
	}
	fmt.Println()
	if r.Recoveries > 0 {
		fmt.Printf("lost work:     %.0f cycles mean per recovery\n", r.MeanLostWork)
	}
	os.Exit(0)
}
