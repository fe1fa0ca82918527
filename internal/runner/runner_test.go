package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// grid builds n points whose metrics are a pure function of the seed,
// mimicking a deterministic simulation.
func grid(exp string, n, repeats int, gauge func()) []Point {
	var pts []Point
	for d := 0; d < n; d++ {
		for rep := 0; rep < repeats; rep++ {
			d := d
			pts = append(pts, Point{
				Experiment: exp,
				Workload:   fmt.Sprintf("wl%d", d%3),
				Params:     map[string]string{"axis": fmt.Sprintf("%d", d), "beta": "x"},
				Repeat:     rep,
				Seed:       PerturbSeed(uint64(d+1), rep),
				Run: func(seed uint64) (Metrics, error) {
					if gauge != nil {
						gauge()
					}
					return Metrics{
						Perf:         float64(seed%97) / 97,
						Transactions: float64(d),
					}, nil
				},
			})
		}
	}
	return pts
}

func TestRunPreservesPointOrder(t *testing.T) {
	r := &Runner{Workers: 4}
	pts := grid("order", 8, 3, nil)
	res := r.Run(pts)
	if len(res) != len(pts) {
		t.Fatalf("got %d results for %d points", len(res), len(pts))
	}
	for i, rr := range res {
		if rr.Seed != pts[i].Seed || rr.Repeat != pts[i].Repeat {
			t.Fatalf("result %d out of order: seed %d vs %d", i, rr.Seed, pts[i].Seed)
		}
		want := float64(pts[i].Seed%97) / 97
		if rr.Metrics.Perf != want {
			t.Fatalf("result %d: perf %v, want %v", i, rr.Metrics.Perf, want)
		}
	}
}

func TestPerturbSeedMatchesHistoricalScheme(t *testing.T) {
	// The §5.2 scheme: base + i*7919. Grids and specsim -runs must
	// reproduce the same per-run seeds so historical results carry over.
	if got := PerturbSeed(1, 0); got != 1 {
		t.Fatalf("repeat 0: %d", got)
	}
	if got := PerturbSeed(1, 2); got != 1+2*7919 {
		t.Fatalf("repeat 2: %d", got)
	}
}

// TestWorkerPoolBound verifies the satellite requirement: grid execution
// never runs more than the configured number of points at once, and the
// default bound is GOMAXPROCS rather than one goroutine per point.
func TestWorkerPoolBound(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var inFlight, maxSeen atomic.Int64
		var mu sync.Mutex
		gauge := func() {
			cur := inFlight.Add(1)
			mu.Lock()
			if cur > maxSeen.Load() {
				maxSeen.Store(cur)
			}
			mu.Unlock()
			runtime.Gosched() // widen the race window
			inFlight.Add(-1)
		}
		r := &Runner{Workers: workers}
		r.Run(grid("bound", 16, 2, gauge))
		if got := maxSeen.Load(); got > int64(workers) {
			t.Fatalf("workers=%d: observed %d concurrent points", workers, got)
		}
	}
	if def := (&Runner{}).WorkerBound(); def != runtime.GOMAXPROCS(0) {
		t.Fatalf("default bound %d, want GOMAXPROCS=%d", def, runtime.GOMAXPROCS(0))
	}
}

// TestDeterministicCSV verifies the tentpole reproducibility contract:
// the same grid executed twice — even with different worker counts —
// produces byte-identical CSV artifacts.
func TestDeterministicCSV(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, workers := range []int{1, 7} {
		sink, err := NewSink(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Workers: workers, Sink: sink}
		r.Run(grid("det", 6, 3, nil))
		r.Summarize("det", map[string]string{"n": "18"})
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"det.csv", "det.json"} {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between identical runs:\n%s\n----\n%s", name, a, b)
		}
	}
}

func TestCSVLayout(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Workers: 2, Sink: sink}
	pts := grid("layout", 2, 2, nil)
	r.Run(pts)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "layout.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1+len(pts) {
		t.Fatalf("got %d lines, want header + %d rows:\n%s", len(lines), len(pts), data)
	}
	// Fixed columns, then sorted params, then the full metric schema in
	// sorted order (identical for every experiment by construction),
	// then the per-point error column.
	want := "experiment,workload,repeat,seed,axis,beta," + strings.Join(MetricKeys(), ",") + ",error"
	if lines[0] != want {
		t.Fatalf("header %q, want %q", lines[0], want)
	}
	cells := 7 + len(MetricKeys())
	for i, line := range lines[1:] {
		if !strings.HasPrefix(line, "layout,") {
			t.Fatalf("row %d: %q", i, line)
		}
		if got := len(strings.Split(line, ",")); got != cells {
			t.Fatalf("row %d has %d cells: %q", i, got, line)
		}
	}
}

// TestFailedPointReporting covers the per-point error path: a point
// whose Run returns an error does not abort the grid; its result
// carries the error and its CSV row records it (comma/newline-safe) in
// the error column with zero metrics.
func TestFailedPointReporting(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts := grid("mixed", 2, 1, nil)
	pts[1].Run = func(seed uint64) (Metrics, error) {
		return Metrics{}, fmt.Errorf("unsupported machine,\n256 nodes")
	}
	r := &Runner{Workers: 2, Sink: sink}
	res := r.Run(pts)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("healthy point reported error: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("failing point lost its error")
	}
	data, err := os.ReadFile(filepath.Join(dir, "mixed.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), data)
	}
	if !strings.HasSuffix(lines[1], ",") {
		t.Fatalf("healthy row should end with empty error cell: %q", lines[1])
	}
	if want := ",unsupported machine; 256 nodes"; !strings.HasSuffix(lines[2], want) {
		t.Fatalf("failed row %q missing sanitized error suffix %q", lines[2], want)
	}
	for i, cell := range strings.Split(lines[2], ",") {
		if i >= 6 && i < 6+len(MetricKeys()) && cell != "0" {
			t.Fatalf("failed row metric cell %d = %q, want 0", i, cell)
		}
	}
}

// TestSinkOverwritesPreviousRun checks that pointing -out at a previous
// run's directory reproduces it rather than appending to it.
func TestSinkOverwritesPreviousRun(t *testing.T) {
	dir := t.TempDir()
	var first []byte
	for i := 0; i < 2; i++ {
		sink, err := NewSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Sink: sink}
		r.Run(grid("redo", 3, 2, nil))
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "redo.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("second run into same dir did not reproduce the first:\n%s\n----\n%s", first, data)
		}
	}
}

func TestTimestampedDirShape(t *testing.T) {
	d := TimestampedDir("root")
	base := filepath.Base(d)
	if filepath.Dir(d) != "root" || !strings.HasPrefix(base, "run-") || len(base) != len("run-20060102-150405") {
		t.Fatalf("unexpected dir %q", d)
	}
}

// memCache is an in-memory PointCache for testing the resume hooks.
type memCache struct {
	mu      sync.Mutex
	entries map[string]struct {
		m   Metrics
		err string
	}
	lookups, stores int
}

func newMemCache() *memCache {
	return &memCache{entries: map[string]struct {
		m   Metrics
		err string
	}{}}
}

func cacheKey(p Point) string {
	return fmt.Sprintf("%s/%s/%d/%d/%v", p.Experiment, p.Workload, p.Repeat, p.Seed, p.Params)
}

func (c *memCache) Lookup(p Point) (Metrics, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	e, ok := c.entries[cacheKey(p)]
	return e.m, e.err, ok
}

func (c *memCache) Store(p Point, m Metrics, errText string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.entries[cacheKey(p)] = struct {
		m   Metrics
		err string
	}{m, errText}
}

// TestCacheSkipsExecution is the resume-cache contract: a second run of
// the same grid against a populated cache executes nothing and returns
// the same results, errors included.
func TestCacheSkipsExecution(t *testing.T) {
	cache := newMemCache()
	var executed atomic.Int64
	pts := grid("cached", 4, 2, func() { executed.Add(1) })
	pts[3].Run = func(seed uint64) (Metrics, error) {
		executed.Add(1)
		return Metrics{}, fmt.Errorf("illegal config")
	}
	first := (&Runner{Workers: 2, Cache: cache}).Run(pts)
	if got := executed.Load(); got != int64(len(pts)) {
		t.Fatalf("first run executed %d of %d points", got, len(pts))
	}
	if cache.stores != len(pts) {
		t.Fatalf("first run stored %d of %d points", cache.stores, len(pts))
	}
	executed.Store(0)
	second := (&Runner{Workers: 2, Cache: cache}).Run(pts)
	if got := executed.Load(); got != 0 {
		t.Fatalf("cached run executed %d points, want 0", got)
	}
	for i := range first {
		if first[i].Metrics != second[i].Metrics {
			t.Fatalf("point %d metrics differ across cache reuse", i)
		}
		a, b := first[i].Err, second[i].Err
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("point %d error differs across cache reuse: %v vs %v", i, a, b)
		}
	}
}

// TestInterruptSuppressesArtifacts models a campaign kill: once the
// interrupt fires, workers stop claiming, the sink receives no rows,
// Summarize writes nothing, and the interruption is sticky — but
// everything stored before the kill is durable in the cache.
func TestInterruptSuppressesArtifacts(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMemCache()
	r := &Runner{Workers: 1, Sink: sink, Cache: cache,
		Interrupt: func() bool { cache.mu.Lock(); defer cache.mu.Unlock(); return cache.stores >= 2 }}
	r.Run(grid("killed", 6, 1, nil))
	if !r.Interrupted() {
		t.Fatal("runner did not report the interruption")
	}
	if cache.stores != 2 {
		t.Fatalf("stored %d points before the interrupt, want 2", cache.stores)
	}
	r.Summarize("killed", []int{1, 2, 3})
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"killed.csv", "killed.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("interrupted run wrote artifact %s", name)
		}
	}
}

// TestCSVHeaderLiteral pins the CSV layout column by column. The
// expected header is written out in full, not derived from MetricKeys,
// so a renamed, dropped or reordered metric column fails here even if
// every other test agrees with the new schema.
func TestCSVHeaderLiteral(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	(&Runner{Workers: 1, Sink: sink}).Run(grid("literal", 1, 1, nil))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "literal.csv"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "experiment,workload,repeat,seed,axis,beta," +
		"checkpoint_interval_final,checkpoint_stall,checkpoints,corner_detected,corner_handled," +
		"cycles,deflections,degraded_cycles,degraded_instructions,instructions," +
		"inv_broadcasts,invalidations,limit_stalls,log_high_water_bytes,log_overflows," +
		"log_stall_cycles,mean_link_util,mean_lost_work,miss_latency_mean,order_violations," +
		"outage_cycles,perf,recoveries,recovery_lat_max,recovery_lat_min," +
		"recovery_lat_n,recovery_lat_sum,reorder_total,reorder_vnet0,reorder_vnet1," +
		"reorder_vnet2,reorder_vnet3,rollback_max,rollback_min,rollback_n," +
		"rollback_sum,sharer_overflows,timeouts,transactions,wb_races," +
		"writebacks,error"
	if got, _, _ := strings.Cut(string(data), "\n"); got != want {
		t.Fatalf("header\n got: %s\nwant: %s", got, want)
	}
}

// TestMetricSchemaBijection checks the metric names against the
// Metrics struct by reflection: every key's Set lands in exactly one
// float64 slot (the four ReorderVNet elements included), every slot is
// reached by exactly one key, Get returns what Set stored, keys are
// sorted and unique, and an unknown key panics in both directions.
func TestMetricSchemaBijection(t *testing.T) {
	keys := MetricKeys()
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("metric keys not sorted: %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatalf("metric key %q listed twice", keys[i])
		}
	}
	slots := func(m *Metrics) []float64 {
		var out []float64
		v := reflect.ValueOf(m).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Float64:
				out = append(out, f.Float())
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					out = append(out, f.Index(j).Float())
				}
			default:
				t.Fatalf("Metrics field %s has kind %s, want float64 or [N]float64", v.Type().Field(i).Name, f.Kind())
			}
		}
		return out
	}
	nslots := len(slots(&Metrics{}))
	if len(keys) != nslots {
		t.Fatalf("%d metric keys for %d float64 slots", len(keys), nslots)
	}
	owner := make([]string, nslots)
	for i, k := range keys {
		var m Metrics
		want := float64(i + 1)
		m.Set(k, want)
		hit := -1
		for s, v := range slots(&m) {
			if v == 0 {
				continue
			}
			if hit >= 0 || v != want {
				t.Fatalf("Set(%q, %v) changed more than one slot or stored %v", k, want, v)
			}
			hit = s
		}
		if hit < 0 {
			t.Fatalf("Set(%q) reached no slot", k)
		}
		if owner[hit] != "" {
			t.Fatalf("keys %q and %q share slot %d", owner[hit], k, hit)
		}
		owner[hit] = k
		if got := m.Get(k); got != want {
			t.Fatalf("Get(%q) = %v after Set(%v)", k, got, want)
		}
	}
	for s, k := range owner {
		if k == "" {
			t.Fatalf("slot %d is reached by no key", s)
		}
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"Get", func() { (&Metrics{}).Get("no_such_metric") }},
		{"Set", func() { (&Metrics{}).Set("no_such_metric", 1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an unknown key did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}
