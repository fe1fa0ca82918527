// Package runner is the sweep engine behind the evaluation harness: it
// executes a declarative grid of design points (experiment × workload ×
// params × repeat) on a bounded worker pool with deterministic per-point
// RNG seeds, and optionally persists structured artifacts — one CSV row
// per run plus a JSON summary per experiment — through a Sink.
//
// The experiment drivers in internal/experiments build grids, hand them
// to a Runner, and aggregate the returned per-run metrics into the
// paper's tables; cmd/sweep wires the Runner's worker bound (-parallel)
// and Sink (-out) from the command line. Given identical grids and
// seeds, two runs produce byte-identical CSV artifacts regardless of
// worker count or scheduling order.
package runner

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Point is one design point instance: a single simulated run.
type Point struct {
	// Experiment names the owning experiment (e.g. "fig4"); it selects
	// the CSV file and JSON summary the point's row lands in.
	Experiment string
	// Workload is the workload profile name, or "" for workload-less
	// points.
	Workload string
	// Params are the experiment's axis settings for this point (e.g.
	// rate=100, bw=0.2), recorded as CSV columns in sorted-key order.
	Params map[string]string
	// Repeat is the perturbed-run index within the design point
	// (paper §5.2 methodology).
	Repeat int
	// Seed is the deterministic RNG seed for this run; use PerturbSeed
	// to derive it from a base seed and Repeat.
	Seed uint64
	// Run executes the point and returns its metrics. It must be a pure
	// function of seed so that re-running a grid reproduces artifacts
	// byte for byte. An error marks the design point as failed (e.g. an
	// illegal machine configuration): the grid keeps running and the
	// error is reported per point, in Result.Err and the CSV artifact's
	// error column. Error messages must also be pure functions of the
	// point for artifacts to stay reproducible.
	Run func(seed uint64) (Metrics, error)
}

// Result pairs a point with the metrics its run produced. Err is set
// when the point failed (Metrics is then zero).
type Result struct {
	Point
	Metrics Metrics
	Err     error
}

// PerturbSeed derives the deterministic seed for a repeat from a base
// seed (base + repeat·7919, the historical §5.2 perturbation scheme),
// so every experiment grid and specsim -runs reproduce the same
// per-run numbers.
func PerturbSeed(base uint64, repeat int) uint64 {
	return base + uint64(repeat)*7919
}

// PointCache is the resume hook consulted around every point
// execution (see internal/campaign). Lookup returning ok short-
// circuits the simulation with the recorded metrics — the point's
// result is indistinguishable from a fresh run because point
// execution is a pure function of the point — and Store records a
// freshly executed point. The error travels as text: reconstructing
// it must reproduce the same CSV error column and JSON summary bytes,
// and experiment errors are plain descriptive strings by contract.
// Implementations must be safe for concurrent use by all workers.
type PointCache interface {
	Lookup(p Point) (m Metrics, errText string, ok bool)
	Store(p Point, m Metrics, errText string)
}

// Runner executes grids on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent point executions; <= 0 means
	// GOMAXPROCS. Each point runs its own single-threaded simulation
	// kernel, so the bound is the whole concurrency story — grids never
	// oversubscribe the host no matter how many points they contain.
	Workers int
	// Sink, when non-nil, receives one CSV row per executed point.
	Sink *Sink
	// Cache, when non-nil, is consulted before each point runs and
	// notified after: completed points found in the cache skip
	// simulation entirely (campaign resume).
	Cache PointCache
	// Interrupt, when non-nil, is polled as workers claim points; once
	// it returns true the pool stops claiming, Run returns with the
	// grid incomplete, and no artifacts are written for it (nor by any
	// later Run or Summarize on this Runner — the interruption is
	// sticky, modeling a process kill). Cached results recorded before
	// the interruption remain durable in the Cache.
	Interrupt func() bool

	interrupted atomic.Bool
}

// Interrupted reports whether any Run on this Runner was interrupted.
func (r *Runner) Interrupted() bool { return r.interrupted.Load() }

// WorkerBound returns the effective pool size.
func (r *Runner) WorkerBound() int {
	if r.Workers > 0 {
		return r.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// Run executes every point on the bounded pool and returns results in
// point order (independent of scheduling). Exactly WorkerBound worker
// goroutines are spawned no matter how large the grid is; they claim
// points through one atomic cursor, so dispatch costs no channel
// round-trips and no allocation per point. If a Sink is configured the
// results are appended to the per-experiment CSVs, also in point
// order. Points found in the Cache reuse their recorded metrics
// without simulating; fresh executions are stored back. An Interrupt
// leaves the grid incomplete (unexecuted results zero) and suppresses
// the sink append — partial grids must never become artifact rows.
func (r *Runner) Run(points []Point) []Result {
	results := make([]Result, len(points))
	workers := r.WorkerBound()
	if workers > len(points) {
		workers = len(points)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if r.Interrupt != nil && r.Interrupt() {
					r.interrupted.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				if r.Cache != nil {
					if m, errText, ok := r.Cache.Lookup(points[i]); ok {
						results[i] = Result{Point: points[i], Metrics: m, Err: cachedErr(errText)}
						continue
					}
				}
				m, err := points[i].Run(points[i].Seed)
				results[i] = Result{Point: points[i], Metrics: m, Err: err}
				if r.Cache != nil {
					r.Cache.Store(points[i], m, errText(err))
				}
			}
		}()
	}
	wg.Wait()
	if r.Sink != nil && !r.interrupted.Load() {
		r.Sink.AppendRows(results)
	}
	return results
}

// cachedErr reconstructs a point error from its cached text. The
// round-trip is byte-exact for artifacts: the sink and the summaries
// only ever consume err.Error().
func cachedErr(text string) error {
	if text == "" {
		return nil
	}
	return errors.New(text)
}

// Summarize writes an experiment's aggregated results as its JSON
// summary artifact, if a Sink is configured and no Run on this Runner
// was interrupted (a partial grid's aggregate is meaningless and must
// not overwrite a durable artifact).
func (r *Runner) Summarize(experiment string, v interface{}) {
	if r.Sink != nil && !r.interrupted.Load() {
		r.Sink.WriteJSON(experiment, v)
	}
}
