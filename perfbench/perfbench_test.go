package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// ---- profile aggregation on a synthetic profile ----

// pbWriter encodes the protobuf subset a CPU profile uses.
type pbWriter struct{ b []byte }

func (p *pbWriter) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbWriter) bytes(num int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbWriter) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// syntheticProfile encodes stacks as a gzipped CPU profile the way
// runtime/pprof lays one out: one function and one location per frame
// (a frame of "a+b" is a location where a was inlined into b), sample
// types (samples, count) and (cpu, nanoseconds), string table last.
func syntheticProfile(stacks [][]string, nanos []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pbWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.varint(1, idx(vt[0]))
		m.varint(2, idx(vt[1]))
		prof.bytes(1, m.b)
	}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	var funcs, locs pbWriter
	for i, stack := range stacks {
		var ids []uint64
		for _, frame := range stack {
			if _, ok := locID[frame]; !ok {
				var loc pbWriter
				loc.varint(1, uint64(len(locID)+1))
				for _, name := range strings.Split(frame, "+") {
					if _, ok := funcID[name]; !ok {
						funcID[name] = uint64(len(funcID) + 1)
						var f pbWriter
						f.varint(1, funcID[name])
						f.varint(2, idx(name))
						funcs.bytes(5, f.b)
					}
					var line pbWriter
					line.varint(1, funcID[name])
					loc.bytes(4, line.b)
				}
				locID[frame] = uint64(len(locID) + 1)
				locs.bytes(4, loc.b)
			}
			ids = append(ids, locID[frame])
		}
		var s pbWriter
		if i%2 == 0 {
			s.packed(1, ids...)
		} else {
			for _, id := range ids { // unpacked, as pprof writes short lists
				s.varint(1, id)
			}
		}
		s.packed(2, 1, uint64(nanos[i]))
		prof.bytes(2, s.b)
	}
	prof.b = append(prof.b, locs.b...)
	prof.b = append(prof.b, funcs.b...)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()
	return gz.Bytes()
}

func TestAggregateSyntheticProfile(t *testing.T) {
	const sim, net = "specsimp/internal/sim.", "specsimp/internal/network."
	stacks := [][]string{
		{"runtime.mapaccess2_fast64", net + "(*swch).arb", sim + "(*Kernel).Run", "main.main"},
		{"runtime.mallocgc", "specsimp/internal/cache.New", "specsimp/internal/system.BuildChecked", "main.main"},
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		{"runtime.schedule", "runtime.mcall"},
		{"runtime.Gosched", sim + "(*Shards).await+" + sim + "(*Shards).worker"},
		{"specsimp/internal/core.(*Coordinator).TriggerMisSpeculationAt", "main.main"},
	}
	nanos := []int64{300, 200, 100, 50, 150, 200}
	samples, err := decodeProfile(syntheticProfile(stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	tab := aggregate(samples)
	if tab.TotalNanos != 1000 {
		t.Fatalf("total %d ns, want 1000", tab.TotalNanos)
	}
	wantSelf := map[string]float64{
		"network": 0.3, "cache": 0.2, "runtime.gc": 0.1, "runtime.sched": 0.05, "sim": 0.15, "core": 0.2,
	}
	var total float64
	for _, l := range tab.layers() {
		total += tab.Self[l]
		if math.Abs(tab.Self[l]-wantSelf[l]) > 1e-12 {
			t.Errorf("self %s = %v, want %v", l, tab.Self[l], wantSelf[l])
		}
	}
	if len(tab.Self) != len(wantSelf) {
		t.Errorf("self layers %v, want %v", tab.layers(), wantSelf)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("layer shares + runtime.gc + runtime.sched sum to %v, want 1", total)
	}
	for leaf, want := range map[string]float64{"runtime.maps": 0.3, "runtime.malloc": 0.2} {
		if got := tab.Leaf[leaf]; math.Abs(got-want) > 1e-12 {
			t.Errorf("leaf %s = %v, want %v", leaf, got, want)
		}
	}
	for phase, want := range map[string]float64{"sim.window": 0.3, "sim.barrier": 0.15, "sim.drain": 0, "core.recovery": 0.2} {
		if got := tab.share(phase); math.Abs(got-want) > 1e-12 {
			t.Errorf("phase %s = %v, want %v", phase, got, want)
		}
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a, 0x05, 0x01}, {0xff}, {0x1f, 0x8b, 0x00}} {
		if _, err := decodeProfile(data); err == nil {
			t.Errorf("decodeProfile(%x) succeeded", data)
		}
	}
}

// ---- the benchmark on tiny inputs ----

// tiny shrinks a workload to a test-sized unit; tiled runs stay a whole
// number of lookahead windows.
func tiny(w workloadDef) workloadDef {
	switch w := w.(type) {
	case sysWorkload:
		cfg := w.config(0)
		w.cycles = 150_000
		if cfg.Shards > 0 {
			win := cfg.Net.MinHopLatency()
			w.cycles = 1_000 * win
		}
		return w
	case campaignWorkload:
		w.cycles = 20_000
		return w
	}
	panic("unknown workload type")
}

// tinyFloors keeps the structural floors and relaxes the work floors to
// what a tiny unit retires.
func tinyFloors(t *testing.T, name string) floors {
	f, err := specFloors(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Instructions = min(f.Instructions, 1)
	f.Recoveries = min(f.Recoveries, 1)
	return f
}

func testBench(t *testing.T, name string) *bench {
	return &bench{seed: 5, out: t.TempDir(), floors: tinyFloors(t, name), tr: newTracer(), log: os.Stderr, metrics: map[string]float64{}}
}

// On the classic kernel a chunked Run must reproduce the one-shot
// Results exactly, whatever the chunk length. On the tiled engine a
// chunk must be a whole number of lookahead windows, and even that is
// not enough: Shards.Run's inclusive final window fires the events at
// the chunk's end before the next Run's edge, so small whole-window
// chunks change the Results (at seed 5, 54,000 cycles: 360-, 1,800- and
// 2,556-cycle chunks diverge, 18,000- and 19,998-cycle chunks match).
// There the benchmark only holds chunked runs to each other.
func TestChunkedRunMatchesOneShot(t *testing.T) {
	for _, w := range workloads {
		sw, ok := tiny(w).(sysWorkload)
		if !ok {
			continue
		}
		t.Run(sw.name, func(t *testing.T) {
			b := testBench(t, sw.name)
			one, err := sw.unit(b, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sw.config(0)
			for _, n := range []int{7, tracedChunks} {
				chunked, err := sw.unit(b, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(chunked.chunks) < n {
					t.Errorf("%d chunks, want at least %d", len(chunked.chunks), n)
				}
				if cfg.Shards == 0 {
					if chunked.digest != one.digest {
						t.Errorf("%d chunks: digest %s, one-shot %s", n, chunked.digest, one.digest)
					}
					continue
				}
				step, err := sw.chunkLen(n)
				if err != nil {
					t.Fatal(err)
				}
				if win := cfg.Net.MinHopLatency(); step%win != 0 {
					t.Errorf("tiled chunk %d is not a multiple of the %d-cycle window", step, win)
				}
				again, err := sw.unit(b, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if again.digest != chunked.digest {
					t.Errorf("%d chunks: digest %s, then %s", n, chunked.digest, again.digest)
				}
			}
		})
	}
}

func TestResultsDigestSeesEveryField(t *testing.T) {
	sw := tiny(workloads[0]).(sysWorkload)
	u, err := sw.unit(testBench(t, sw.name), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := u.res
	r.RecoveryReasons = map[string]uint64{"x": 1}
	if resultsDigest(r) == u.digest {
		t.Error("digest ignores RecoveryReasons")
	}
	r = u.res
	r.Perf = math.Nextafter(r.Perf, 1)
	if resultsDigest(r) == u.digest {
		t.Error("digest ignores the last bit of Perf")
	}
}

// A run whose reference kernel took twice its nominal time ran on a
// host at half speed: its timings are reported halved, its rate doubled,
// and the measured values kept.
func TestSetTimingsScalesToNominalHost(t *testing.T) {
	b := &bench{metrics: map[string]float64{}}
	b.refs = []float64{3 * referenceNominal, 2 * referenceNominal, 1.5 * referenceNominal}
	b.setTimings(4, 0.2, 1000)
	want := map[string]float64{"wall_s": 2, "setup_s": 0.1, "sim_cycles_per_s": 2000}
	for name, v := range want {
		if got := b.metrics[name]; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if b.raw["wall_s"] != 4 || b.raw["setup_s"] != 0.2 || b.raw["sim_cycles_per_s"] != 1000 {
		t.Errorf("measured timings %v, want wall_s 4, setup_s 0.2, sim_cycles_per_s 1000", b.raw)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSelfTest runs every workload on tiny inputs, untraced and traced,
// and checks the printed record against BENCHMARK.json: every metric
// named there is printed with its unit, every name is well formed, and
// every op checks out.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(workloadNames(), " "); got != strings.Join(names, " ") {
		t.Errorf("workloads %s, BENCHMARK.json lists %s", got, strings.Join(names, " "))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rc := runConfig{seed: 5, traced: traced, out: t.TempDir(), floors: tinyFloors(t, w.Name())}
			res, _, err := measure(tiny(w), rc, os.Stderr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name(), traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed", w.Name(), traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name(), traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !valid.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: %s not printed", w.Name(), traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %s, BENCHMARK.json says %s", w.Name(), traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced && res.Metrics["ops_ok_frac"].Value != 1 {
				t.Errorf("%s: ops_ok_frac %v, want 1", w.Name(), res.Metrics["ops_ok_frac"].Value)
			}
			if traced {
				total := res.Metrics["runtime.gc_frac"].Value + res.Metrics["runtime.sched_frac"].Value
				for _, l := range profiledLayers {
					total += res.Metrics[l+".self_frac"].Value
				}
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("%s: self shares sum to %v, want 1", w.Name(), total)
				}
			}
		}
	}
}
