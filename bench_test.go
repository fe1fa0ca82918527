// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment
// driver at bench scale and reports the headline numbers as custom
// metrics; `go test -bench . -benchmem` therefore reproduces the whole
// evaluation. cmd/sweep prints the same results as full tables at
// EXPERIMENTS.md scale.
package specsimp

import (
	"strconv"
	"testing"

	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/sim"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// runExperiment runs the named registered experiment the way sweep
// does, RunExperiment on its ByName entry, and returns the typed
// aggregate. List-valued knobs travel as p.Axes overrides.
func runExperiment[T any](tb testing.TB, name string, p experiments.Params) T {
	tb.Helper()
	e, ok := experiments.ByName(name)
	if !ok {
		tb.Fatalf("no registered experiment %q", name)
	}
	v, err := experiments.RunExperiment(e, p)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	out, ok := v.(T)
	if !ok {
		tb.Fatalf("%s aggregates to %T, not %T", name, v, out)
	}
	return out
}

func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Runs = 1
	return p
}

// BenchmarkTable1Characterize covers Table 1: rendering the framework
// characterization of the three speculative designs.
func BenchmarkTable1Characterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2System covers Table 2: building the full target system
// from its parameter table.
func BenchmarkTable2System(b *testing.B) {
	cfg := DefaultConfig(DirectorySpec, OLTP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Build(cfg)
		if s == nil {
			b.Fatal("build failed")
		}
	}
}

// BenchmarkTable3Workloads covers Table 3: generating each workload's
// reference stream.
func BenchmarkTable3Workloads(b *testing.B) {
	for _, wl := range WorkloadSuite() {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			g := workload.New(wl, 0, 16, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Peek()
				g.Advance()
			}
		})
	}
}

// BenchmarkZipfStream measures the workload-realism hot path: one
// reference of a Zipf-skewed, phase-shifting stream (Hörmann
// rejection-inversion sample + Feistel block permutation + phase
// offset). Tracked in BENCH_kernel.json; must stay allocation-free.
func BenchmarkZipfStream(b *testing.B) {
	wl := OLTP
	wl.ZipfSkew = 1.1
	wl.PhaseLen = 2048
	g := workload.New(wl, 0, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Peek()
		g.Advance()
	}
}

// BenchmarkFig1Reorder covers Figure 1: the adaptive network reordering
// two same-source messages under congestion.
func BenchmarkFig1Reorder(b *testing.B) {
	reorders := 0
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		net := NewNetwork(k, AdaptiveNetConfig(4, 4, 1.0))
		net.AttachClient(5, NetClientFunc(func(m *NetMessage) bool { return true }))
		net.Send(&NetMessage{Src: 0, Dst: 5, VNet: 1, Size: 2000})
		k.At(1, func() { net.Send(&NetMessage{Src: 0, Dst: 5, VNet: 1, Size: 8}) })
		k.Drain(1_000_000)
		reorders += int(net.Stats().Reordered[1].Value())
	}
	b.ReportMetric(float64(reorders)/float64(b.N), "reorders/op")
	if reorders != b.N {
		b.Fatalf("Figure 1 scenario reordered %d/%d times", reorders, b.N)
	}
}

// BenchmarkFig23Deadlock covers Figures 2 and 3: driving the simplified
// (no-VC) network into deadlock.
func BenchmarkFig23Deadlock(b *testing.B) {
	stuck := 0
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		net := NewNetwork(k, SimplifiedNetConfig(4, 4, 1.0, 1))
		for n := 0; n < 16; n++ {
			net.AttachClient(NetNodeID(n), NetClientFunc(func(m *NetMessage) bool { return true }))
		}
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s != d {
					net.Send(&NetMessage{Src: NetNodeID(s), Dst: NetNodeID(d), VNet: 0, Size: 72})
				}
			}
		}
		k.Drain(10_000_000)
		stuck += net.InFlight()
	}
	b.ReportMetric(float64(stuck)/float64(b.N), "stuck-msgs/op")
}

// BenchmarkFig4 covers Figure 4: normalized performance vs injected
// mis-speculation rate on the non-speculative directory system.
func BenchmarkFig4(b *testing.B) {
	p := benchParams()
	p.Workloads = []workload.Profile{workload.OLTP}
	for i := 0; i < b.N; i++ {
		r := runExperiment[[]experiments.Fig4Result](b, "fig4", p)[0]
		b.ReportMetric(r.PerfByRate[1].Mean, "perf@1/s")
		b.ReportMetric(r.PerfByRate[10].Mean, "perf@10/s")
		b.ReportMetric(r.PerfByRate[100].Mean, "perf@100/s")
		b.ReportMetric(r.MeanLostWork, "lost-cycles/recovery")
	}
}

// BenchmarkFig5 covers Figure 5: static vs adaptive routing at 400 MB/s
// links under the speculative directory protocol.
func BenchmarkFig5(b *testing.B) {
	p := benchParams()
	for _, wl := range WorkloadSuite() {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			pw := p
			pw.Workloads = []workload.Profile{wl}
			for i := 0; i < b.N; i++ {
				r := runExperiment[[]experiments.Fig5Result](b, "fig5", pw)[0]
				b.ReportMetric(r.AdaptivePerf.Mean, "adaptive-vs-static")
				b.ReportMetric(r.Recoveries, "recoveries")
				b.ReportMetric(100*r.MeanLinkUtil, "static-link-util-%")
			}
		})
	}
}

// BenchmarkReorderRates covers the §5.3 reorder-rate study across the
// paper's 400 MB/s – 3.2 GB/s link bandwidth range.
func BenchmarkReorderRates(b *testing.B) {
	p := benchParams()
	p.Workload = workload.OLTP
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.ReorderResult](b, "reorder", p)
		lo, hi := res[0], res[len(res)-1]
		b.ReportMetric(lo.PerVNet[1], "fwd-reorder@400MB/s")
		b.ReportMetric(hi.PerVNet[1], "fwd-reorder@3.2GB/s")
		b.ReportMetric(lo.Recoveries, "recoveries@400MB/s")
	}
}

// BenchmarkSnoopRecoveries covers the §5.3 snooping result: the
// speculative snooping protocol across all workloads, counting corner-
// case recoveries (the paper observed none).
func BenchmarkSnoopRecoveries(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.SnoopResult](b, "snoop", p)
		var detected, perf float64
		for _, r := range res {
			detected += r.CornerDetected
			perf += r.Perf.Mean
		}
		b.ReportMetric(detected, "corner-recoveries")
		b.ReportMetric(perf/float64(len(res)), "spec-vs-full-perf")
	}
}

// BenchmarkBufferSweep covers the §5.3 interconnect result: performance
// across shared-pool buffer sizes on the no-VC network, with the
// deadlock cliff at tiny buffers.
func BenchmarkBufferSweep(b *testing.B) {
	p := benchParams()
	p.Workload = workload.OLTP
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.BufferResult](b, "buffers", p)
		for _, r := range res {
			if r.BufferSize == 8 {
				b.ReportMetric(r.Perf.Mean, "perf@8")
			}
			if r.BufferSize == 2 {
				b.ReportMetric(r.Perf.Mean, "perf@2")
				b.ReportMetric(r.Recoveries, "recoveries@2")
			}
		}
	}
}

// BenchmarkSlowStartAblation covers ablation A2: post-recovery
// outstanding-transaction limits on the deadlock-prone network.
func BenchmarkSlowStartAblation(b *testing.B) {
	p := benchParams()
	p.Workload = workload.Hotspot
	p.Axes = map[string][]string{"limit": {"1", "8"}}
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.SlowStartResult](b, "slowstart", p)
		b.ReportMetric(res[0].Perf.Mean, "perf@limit1")
		b.ReportMetric(res[1].Perf.Mean, "perf@limit8")
	}
}

// BenchmarkDeflectionAblation covers extension A4: deadlock-recovery
// vs deflection routing at the deadlock-prone operating point.
func BenchmarkDeflectionAblation(b *testing.B) {
	p := benchParams()
	p.Workload = workload.OLTP
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.DeflectionResult](b, "deflection", p)
		b.ReportMetric(res[0].Recoveries, "recoveries-simplified")
		b.ReportMetric(res[1].Recoveries, "recoveries-deflection")
		b.ReportMetric(res[1].Deflections, "deflections")
	}
}

// BenchmarkCheckpointAblation covers ablation A3: checkpoint interval
// vs log occupancy and checkpoint stall.
func BenchmarkCheckpointAblation(b *testing.B) {
	p := benchParams()
	p.Workload = workload.Uniform
	p.Axes = map[string][]string{"interval": {"2000", "20000"}}
	for i := 0; i < b.N; i++ {
		res := runExperiment[[]experiments.CheckpointResult](b, "checkpoint", p)
		b.ReportMetric(res[0].LogHighWater, "logbytes@2k")
		b.ReportMetric(res[1].LogHighWater, "logbytes@20k")
	}
}

// BenchmarkRunnerGrid measures the sweep engine's scheduling overhead:
// dispatching a 256-point grid of trivial points through the bounded
// worker pool, i.e. the harness cost on top of the simulations.
func BenchmarkRunnerGrid(b *testing.B) {
	pts := make([]runner.Point, 256)
	for i := range pts {
		pts[i] = runner.Point{
			Experiment: "bench",
			Workload:   "none",
			Params:     map[string]string{"i": strconv.Itoa(i)},
			Seed:       runner.PerturbSeed(1, i),
			Run: func(seed uint64) (runner.Metrics, error) {
				return runner.Metrics{Perf: float64(seed)}, nil
			},
		}
	}
	r := &runner.Runner{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := r.Run(pts); len(res) != len(pts) {
			b.Fatal("dropped results")
		}
	}
	b.ReportMetric(float64(len(pts)), "points/op")
}

// BenchmarkRunOne measures the sweeps' unit of work end to end: build,
// start and run the default speculative system for 100k cycles through
// the facade's RunOne. BENCH_kernel.json tracks its ns/op and allocs/op
// across PRs; CI runs it at short benchtime as a regression smoke.
func BenchmarkRunOne(b *testing.B) {
	cfg := DefaultConfig(DirectorySpec, OLTP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunOne(cfg, 100_000)
		if res.Instructions == 0 {
			b.Fatal("no forward progress")
		}
	}
	b.ReportMetric(100_000, "sim-cycles/op")
}

// BenchmarkRunOne8x8 is the serial baseline for the intra-run sharding
// benchmark below: the classic single-kernel path at the 64-node
// geometry that dominates scale64 wall-clock.
func BenchmarkRunOne8x8(b *testing.B) {
	cfg := DefaultConfigSized(DirectorySpec, OLTP, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunOne(cfg, 100_000)
		if res.Instructions == 0 {
			b.Fatal("no forward progress")
		}
	}
	b.ReportMetric(100_000, "sim-cycles/op")
}

// BenchmarkRunOneSharded measures the conservative-window parallel
// intra-run path: the same 8×8 run split into 2 column-strip shards
// (bit-identical results — the equivalence tests enforce it). Tracked
// in BENCH_kernel.json against BenchmarkRunOne8x8; the win over the
// serial baseline comes from the leaner windowed hot path (no spurious
// credit wake-ups, occupancy-bitmap time advance) plus, on hosts with
// cores to spare, actual parallel window execution.
func BenchmarkRunOneSharded(b *testing.B) {
	cfg := DefaultConfigSized(DirectorySpec, OLTP, 8, 8)
	cfg.Shards = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunOne(cfg, 100_000)
		if res.Instructions == 0 {
			b.Fatal("no forward progress")
		}
	}
	b.ReportMetric(100_000, "sim-cycles/op")
	b.ReportMetric(2, "shards/op")
}

// BenchmarkRunOne16x16 is the serial baseline at the 256-node geometry
// the 2D tile substrate targets: the classic single-kernel path on the
// largest machine the scale64 study runs.
func BenchmarkRunOne16x16(b *testing.B) {
	cfg := DefaultConfigSized(DirectorySpec, OLTP, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunOne(cfg, 100_000)
		if res.Instructions == 0 {
			b.Fatal("no forward progress")
		}
	}
	b.ReportMetric(100_000, "sim-cycles/op")
}

// BenchmarkRunOne16x16Tiled measures the 2D-tile intra-run path: the
// same 16×16 run split into a 2×2 tile grid (bit-identical results —
// the equivalence tests enforce it). Tracked in BENCH_kernel.json
// against BenchmarkRunOne16x16; the win over the serial baseline comes
// from the leaner windowed hot path plus the lookahead-pruned O(5N)
// boundary drains, plus actual parallel window execution on hosts with
// cores to spare.
func BenchmarkRunOne16x16Tiled(b *testing.B) {
	cfg := DefaultConfigSized(DirectorySpec, OLTP, 16, 16)
	cfg.Shards = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := RunOne(cfg, 100_000)
		if res.Instructions == 0 {
			b.Fatal("no forward progress")
		}
	}
	b.ReportMetric(100_000, "sim-cycles/op")
	b.ReportMetric(4, "tiles/op")
}

// BenchmarkSystemThroughput measures raw simulator speed: simulated
// cycles per host second for the default speculative system.
func BenchmarkSystemThroughput(b *testing.B) {
	cfg := DefaultConfig(DirectorySpec, OLTP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := Build(cfg)
		s.Start()
		s.Run(100_000)
	}
	b.ReportMetric(100_000, "sim-cycles/op")
}

// BenchmarkRecoveryCost measures one full SafetyNet recovery
// (rollback + reset + restore) on a warmed-up system.
func BenchmarkRecoveryCost(b *testing.B) {
	cfg := DefaultConfig(DirectoryFull, workload.Uniform)
	cfg.CheckpointInterval = 5_000
	s := Build(cfg)
	s.Start()
	s.Run(100_000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Coord.TriggerMisSpeculation("bench")
		s.Run(sim.Time(20_000))
	}
	b.ReportMetric(s.Coord.MeanLostWork(), "lost-cycles")
}

// BenchmarkSnoopBusThroughput measures cycles 10k to 20k of a 4×4
// SnoopFull machine on the Uniform workload: the ordered address
// network and the protocol's delivery of each request to the
// controllers it concerns. Each op builds, starts and warms its own
// machine outside the timer, so every op simulates the same interval
// and allocs/op does not move with b.N.
func BenchmarkSnoopBusThroughput(b *testing.B) {
	cfg := system.DefaultConfig(system.SnoopFull, workload.Uniform)
	var ordered uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := system.Build(cfg)
		s.Start()
		s.Run(10_000)
		warm := s.Bus.Ordered()
		b.StartTimer()
		s.Run(10_000)
		ordered += s.Bus.Ordered() - warm
	}
	b.ReportMetric(float64(ordered)/float64(b.N), "ordered-reqs/op")
}
