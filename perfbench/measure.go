package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one unit of work share Unit; Parent is
// the enclosing span's index, or -1.
type span struct {
	Name   string  `json:"name"`
	Unit   int     `json:"unit"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write dumps them at exit. It is safe
// for concurrent use (the runner replay records points from every
// worker).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	unit  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextUnit starts a new unit of work; later spans carry its index.
func (t *tracer) nextUnit() {
	t.mu.Lock()
	t.unit++
	t.mu.Unlock()
}

// open starts a span and returns its index.
func (t *tracer) open(name string, parent int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Unit: t.unit, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// close ends span id and returns its duration in seconds.
func (t *tracer) close(id int) float64 {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// spanTotals is the per-name summary written beside the spans: call
// count, total time, and self time (duration minus the part of it that
// child spans cover).
type spanTotals struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) totals() map[string]spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] = append(child[s.Parent], i)
		}
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		tot := out[s.Name]
		tot.Count++
		tot.Total += dur
		tot.Self += dur - covered(t.spans, child[i])
		out[s.Name] = tot
	}
	return out
}

// covered returns the length of the union of the given spans'
// intervals (children of one parent may overlap when they ran on
// different workers).
func covered(spans []span, ids []int) float64 {
	iv := make([][2]float64, 0, len(ids))
	for _, i := range ids {
		iv = append(iv, [2]float64{spans[i].Start, spans[i].End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end float64
	end = math.Inf(-1)
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// memDelta is a unit's allocation and GC activity, from MemStats deltas.
type memDelta struct {
	allocMB, gcCycles, pauseMS float64
}

func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memSnapshot()
	return memDelta{
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcCycles: float64(m1.NumGC - m0.NumGC),
		pauseMS:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// provenance describes the host and settings a result was measured
// with.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	SimSize    string `json:"sim_size"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`

	// Untraced runs: the reference kernel's median seconds and the
	// end-to-end timings as measured, before scaling to the nominal
	// host speed.
	ReferenceS      float64            `json:"reference_s,omitempty"`
	MeasuredTimings map[string]float64 `json:"measured_timings,omitempty"`
}

func hostProvenance() provenance {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
