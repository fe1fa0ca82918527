package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"specsimp/internal/cache"
	"specsimp/internal/directory"
	"specsimp/internal/sim"
	"specsimp/internal/snoop"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

// sysWorkload is a single-simulation workload: every unit builds,
// starts and runs one machine from empty caches, then checks its
// Results.
type sysWorkload struct {
	name   string
	procs  int      // GOMAXPROCS for the run
	cycles sim.Time // simulated cycles per unit
	config func(seed uint64) system.Config
}

func (w sysWorkload) Name() string { return w.name }
func (w sysWorkload) Procs() int   { return w.procs }

func (w sysWorkload) Size() string {
	cfg := w.config(0)
	tiles := "classic kernel"
	if cfg.Shards > 0 {
		tiles = fmt.Sprintf("%d tiles", cfg.Shards)
	}
	return fmt.Sprintf("%s %dx%d (%d nodes, %s), %s, %d cycles per unit",
		cfg.Kind, cfg.Net.Width, cfg.Net.Height, cfg.Nodes, tiles, cfg.Workload.Name, w.cycles)
}

// sysUnit is one measured simulation.
type sysUnit struct {
	wall, setup, build, start, run float64 // host seconds
	chunks                         []float64
	res                            system.Results
	digest                         string
	events                         uint64 // Kernel.Executed; classic path only
	sent                           uint64 // network messages sent
	ordered                        uint64 // snoop bus ordered requests
	refs                           uint64 // memory references issued
	tiles                          int
	mem                            memDelta
}

// unit builds, starts and runs one machine; with chunks > 1 the Run is
// split into that many calls. prof, when non-nil, receives a CPU
// profile of the unit.
func (w sysWorkload) unit(b *bench, chunks int, prof *bytes.Buffer) (sysUnit, error) {
	cfg := w.config(b.seed)
	var u sysUnit
	runtime.GC() // every unit starts from the same heap
	if prof != nil {
		if err := startProfile(prof); err != nil {
			return u, err
		}
		defer pprof.StopCPUProfile()
	}
	b.tr.nextUnit()
	m0 := memSnapshot()
	top := b.tr.open("unit", -1)
	sp := b.tr.open("system.BuildChecked", top)
	s, err := system.BuildChecked(cfg)
	u.build = b.tr.close(sp)
	if err != nil {
		return u, fmt.Errorf("%s: %w", w.name, err)
	}
	sp = b.tr.open("system.Start", top)
	s.Start()
	u.start = b.tr.close(sp)
	sp = b.tr.open("system.Run", top)
	if chunks <= 1 {
		u.res = s.Run(w.cycles)
	} else {
		step, err := w.chunkLen(chunks)
		if err != nil {
			return u, err
		}
		for done := sim.Time(0); done < w.cycles; done += step {
			c := b.tr.open("system.Run.chunk", sp)
			u.res = s.Run(min(step, w.cycles-done))
			u.chunks = append(u.chunks, b.tr.close(c))
		}
	}
	u.run = b.tr.close(sp)
	u.wall = b.tr.close(top)
	u.mem = memSince(m0)
	u.setup = u.build + u.start

	u.digest = resultsDigest(u.res)
	if cfg.Shards == 0 {
		u.events = s.K.Executed
	}
	u.sent = s.Net.Stats().Sent.Value()
	u.tiles = s.Shards()
	if s.Dir != nil {
		st := s.Dir.Stats()
		u.refs = st.Loads.Value() + st.Stores.Value()
	} else {
		st := s.Snoop.Stats()
		u.refs = st.Loads.Value() + st.Stores.Value()
		u.ordered = s.Bus.Ordered()
	}
	return u, nil
}

// chunkLen is the Run chunk length for a chunked unit. On the tiled
// engine it must be a multiple of the lookahead window (the network's
// minimum hop latency): a chunk that ends mid-window moves control
// actions to a different edge and changes the results.
func (w sysWorkload) chunkLen(chunks int) (sim.Time, error) {
	step := w.cycles / sim.Time(chunks)
	cfg := w.config(0)
	if cfg.Shards == 0 {
		return max(step, 1), nil
	}
	win := cfg.Net.MinHopLatency()
	if w.cycles%win != 0 {
		return 0, fmt.Errorf("%s: %d cycles is not a multiple of the %d-cycle window", w.name, w.cycles, win)
	}
	return max(step/win, 1) * win, nil
}

// check records one unit as an op against the workload's floors and the
// run's digests.
func (w sysWorkload) check(b *bench, u sysUnit) {
	var problems []string
	if u.res.Instructions < b.floors.Instructions {
		problems = append(problems, fmt.Sprintf("retired %d instructions, floor %d", u.res.Instructions, b.floors.Instructions))
	}
	if u.res.Recoveries < b.floors.Recoveries {
		problems = append(problems, fmt.Sprintf("%d recoveries, floor %d", u.res.Recoveries, b.floors.Recoveries))
	}
	if b.floors.Tiles > 0 && u.tiles != b.floors.Tiles {
		problems = append(problems, fmt.Sprintf("%d tiles, want %d", u.tiles, b.floors.Tiles))
	}
	if u.res.Cycles != uint64(w.cycles) {
		problems = append(problems, fmt.Sprintf("simulated %d cycles, want %d", u.res.Cycles, w.cycles))
	}
	if len(u.chunks) > 0 && w.config(0).Shards > 0 {
		// Whole-window chunks are necessary for a chunked Run on the
		// tiled engine to reproduce the one-shot Results, but not
		// sufficient (spec.json, "findings"); chunked units are held to
		// each other.
		if b.chunkedDigest == "" {
			b.chunkedDigest = u.digest
		}
		if u.digest != b.chunkedDigest {
			problems = append(problems, fmt.Sprintf("chunked digest %s differs from the run's first, %s", u.digest, b.chunkedDigest))
		}
	} else {
		problems = append(problems, b.checkDigest(u.digest)...)
	}
	b.op(w.name+" unit", problems)
}

func (w sysWorkload) digest(b *bench) (string, error) {
	u, err := w.unit(b, 1, nil)
	return u.digest, err
}

// measure runs untraced units until the deadline and reports the
// end-to-end metrics.
func (w sysWorkload) measure(b *bench) error {
	var walls, setups, rates []float64
	var last sysUnit
	for i := 0; i < minUnits || b.more(); i++ {
		b.reference()
		u, err := w.unit(b, 1, nil)
		if err != nil {
			return err
		}
		w.check(b, u)
		walls = append(walls, u.wall)
		setups = append(setups, u.setup)
		rates = append(rates, float64(w.cycles)/u.run)
		last = u
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.setTimings(median(walls), median(setups), median(rates))
	b.set("peak_rss_mb", rss)
	b.set("sim_ipc", last.res.Perf)
	return nil
}

// trace alternates untraced units (spans and stats) with profiled,
// chunked units, and reports the per-layer metrics. On the tiled engine
// every profiled unit has a twin at GOMAXPROCS=2, the only setting that
// enters the barrier: the phase shares and the parallel speedup come
// from the pair.
func (w sysWorkload) trace(b *bench) error {
	cfg := w.config(b.seed)
	var (
		plain                               []sysUnit
		tracedWalls, chunks                 []float64
		tracedRuns, parallelRuns            []float64
		cacheNew, perRef                    []float64
		samples, parallelSamples            []stackSample
		tracedRecoveries, tracedCheckpoints uint64
	)
	profiled := func(into *[]stackSample) (sysUnit, error) {
		var prof bytes.Buffer
		t, err := w.unit(b, tracedChunks, &prof)
		if err != nil {
			return t, err
		}
		w.check(b, t)
		ss, err := decodeProfile(prof.Bytes())
		*into = append(*into, ss...)
		return t, err
	}
	for i := 0; i < minTracedUnits || b.more(); i++ {
		u, err := w.unit(b, 1, nil)
		if err != nil {
			return err
		}
		w.check(b, u)
		plain = append(plain, u)

		t, err := profiled(&samples)
		if err != nil {
			return err
		}
		tracedWalls = append(tracedWalls, t.wall)
		tracedRuns = append(tracedRuns, t.run)
		for _, c := range t.chunks {
			chunks = append(chunks, c*1e3)
		}
		tracedRecoveries += t.res.Recoveries
		tracedCheckpoints += t.res.Checkpoints

		if cfg.Shards > 0 {
			prev := runtime.GOMAXPROCS(2)
			p, err := profiled(&parallelSamples)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return err
			}
			parallelRuns = append(parallelRuns, p.run)
		}

		cacheNew = append(cacheNew, cacheNewSeconds(b, cfg))
		perRef = append(perRef, nsPerRef(b, cfg, u.refs))
	}

	pick := func(f func(u sysUnit) float64) float64 {
		xs := make([]float64, len(plain))
		for i, u := range plain {
			xs[i] = f(u)
		}
		return median(xs)
	}
	last := plain[len(plain)-1]
	b.set("system.build_s", pick(func(u sysUnit) float64 { return u.build }))
	b.set("system.start_s", pick(func(u sysUnit) float64 { return u.start }))
	runS := pick(func(u sysUnit) float64 { return u.run })
	b.set("system.run_s", runS)
	b.set("cache.new_s", median(cacheNew))
	b.set("workload.ns_per_ref", median(perRef))
	b.set("runtime.alloc_mb", pick(func(u sysUnit) float64 { return u.mem.allocMB }))
	b.set("runtime.gc_cycles", pick(func(u sysUnit) float64 { return u.mem.gcCycles }))
	b.set("runtime.gc_pause_ms", pick(func(u sysUnit) float64 { return u.mem.pauseMS }))

	if last.events > 0 {
		b.set("sim.events", float64(last.events))
		b.set("sim.ns_per_event", runS*1e9/float64(last.events))
	}
	r := last.res
	b.set("network.msgs_sent", float64(last.sent))
	b.set("network.link_util", r.MeanLinkUtil)
	if cfg.Kind.IsDirectory() {
		b.set("directory.transactions", float64(r.Transactions))
		b.set("directory.invalidations", float64(r.Invalidations))
		b.set("directory.inv_broadcasts", float64(r.InvBroadcasts))
	} else {
		b.set("snoop.bus_ordered", float64(last.ordered))
		b.set("snoop.transactions", float64(r.Transactions))
	}
	b.set("processor.instructions", float64(r.Instructions))
	b.set("safetynet.checkpoints", float64(r.Checkpoints))
	b.set("safetynet.log_high_water_bytes", float64(r.LogHighWaterBytes))
	b.set("core.recoveries", float64(r.Recoveries))
	b.set("core.lost_work_frac", float64(r.RollbackDist.Sum)/float64(r.Cycles))

	table := aggregate(samples)
	b.setProfile(table)
	b.set("core.recovery_ms", perCount(table.Under["core.recovery"], tracedRecoveries))
	b.set("safetynet.checkpoint_ms", perCount(table.Under["safetynet.checkpoint"], tracedCheckpoints))
	if len(parallelRuns) > 0 {
		pt := aggregate(parallelSamples)
		b.parallelProfile = &pt
		b.setPhases(pt)
		b.set("sim.parallel_speedup", median(tracedRuns)/median(parallelRuns))
	}
	b.set("system.chunk_ms_p50", quantile(chunks, 0.5))
	b.set("system.chunk_ms_p90", quantile(chunks, 0.9))
	b.set("trace.overhead_frac", median(tracedWalls)/pick(func(u sysUnit) float64 { return u.wall })-1)
	return nil
}

// perCount divides profile nanoseconds among count events, in ms.
func perCount(nanos int64, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return float64(nanos) / 1e6 / float64(count)
}

// cacheNewSeconds times the cache arrays one machine allocates — an L1
// and an L2 per node at the run's geometry — apart from Build.
func cacheNewSeconds(b *bench, cfg system.Config) float64 {
	l1b, l1w, l2b, l2w := 0, 0, 0, 0
	if cfg.Kind.IsDirectory() {
		d := directory.DefaultConfig(cfg.Nodes, directory.Spec)
		l1b, l1w, l2b, l2w = d.L1Bytes, d.L1Ways, d.L2Bytes, d.L2Ways
	} else {
		s := snoop.DefaultConfig(cfg.Nodes, snoop.Spec)
		l1b, l1w, l2b, l2w = s.L1Bytes, s.L1Ways, s.L2Bytes, s.L2Ways
	}
	runtime.GC()
	caches := make([]*cache.Cache, 0, 2*cfg.Nodes)
	sp := b.tr.open("cache.New", -1)
	for i := 0; i < cfg.Nodes; i++ {
		caches = append(caches, cache.New(l1b, l1w), cache.New(l2b, l2w))
	}
	d := b.tr.close(sp)
	runtime.KeepAlive(caches)
	return d
}

// nsPerRef times Peek+Advance on the run's own streams — one generator
// per node with the run's profile, node count and seed — over the
// run's reference count.
func nsPerRef(b *bench, cfg system.Config, refs uint64) float64 {
	gens := make([]workload.Generator, cfg.Nodes)
	for i := range gens {
		gens[i] = workload.New(cfg.Workload, i, cfg.Nodes, cfg.Seed)
	}
	per := max(refs/uint64(cfg.Nodes), 1)
	sp := b.tr.open("workload.Generator", -1)
	for _, g := range gens {
		for j := uint64(0); j < per; j++ {
			g.Peek()
			g.Advance()
		}
	}
	return b.tr.close(sp) * 1e9 / float64(per*uint64(cfg.Nodes))
}
