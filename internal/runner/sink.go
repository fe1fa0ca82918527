// Artifact persistence for the sweep engine: CSV rows per run, JSON
// summaries per experiment, and a run manifest, all under one output
// directory (see EXPERIMENTS.md "Artifact layout").
package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sink writes sweep artifacts into a single output directory. All
// methods are safe for concurrent use; the first error encountered is
// retained and reported by Err, so drivers can emit unconditionally and
// callers check once at the end.
type Sink struct {
	dir string

	mu     sync.Mutex
	err    error
	params map[string][]string // experiment -> param columns, fixed at first write
}

// NewSink creates (if needed) the output directory and returns a sink
// writing into it.
func NewSink(dir string) (*Sink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: create output dir: %w", err)
	}
	return &Sink{dir: dir, params: map[string][]string{}}, nil
}

// RunDir returns "<root>/run-<id>": the deterministic run-directory
// naming used when the caller supplies an explicit run ID. Two
// invocations with the same ID land in the same directory and (by the
// sink's truncate-on-first-write rule) reproduce the same bytes.
func RunDir(root, id string) string {
	return filepath.Join(root, "run-"+id)
}

// TimestampedDir returns "<root>/run-YYYYMMDD-HHMMSS" for callers that
// want a fresh run directory under a stable root without naming it.
// Prefer RunDir with an explicit ID when artifacts must be
// reproducible; this fallback is inherently wall-clock-named.
func TimestampedDir(root string) string {
	//detlint:allow walltime sanctioned wall-clock fallback for unnamed runs; -run-id selects RunDir instead
	return filepath.Join(root, "run-"+time.Now().Format("20060102-150405"))
}

// Dir returns the output directory.
func (s *Sink) Dir() string { return s.dir }

// Err returns the first error any write encountered, or nil.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Sink) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// CSVHeader returns the per-run CSV header of an experiment whose
// first point has the given params: experiment, workload, repeat,
// seed, the sorted param keys, the metric keys in schema order, and
// error. The sink writes it and the analysis stage checks it, so the
// layout has one definition.
func CSVHeader(params map[string]string) []string {
	cols := append([]string{"experiment", "workload", "repeat", "seed"}, sortedKeys(params)...)
	cols = append(cols, MetricKeys()...)
	return append(cols, "error")
}

// AppendRows appends one CSV row per result to each result's
// per-experiment CSV file (<experiment>.csv), creating the file with a
// header on first use. Rows are written in slice order; the header
// (CSVHeader) is fixed by the experiment's first row. Values are
// formatted with the shortest round-trip representation, so identical
// grids reproduce identical bytes. Failed points (Result.Err) land as
// rows with zero metrics and the error message in the final column.
func (s *Sink) AppendRows(results []Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files := map[string]*os.File{}
	defer func() {
		// Close in experiment order so the retained first error (and any
		// flush-time failure it reports) is the same on every run.
		for _, name := range sortedKeys(files) {
			if err := files[name].Close(); err != nil {
				s.fail(err)
			}
		}
	}()
	for i := range results {
		r := &results[i]
		params, seen := s.params[r.Experiment]
		if !seen {
			params = sortedKeys(r.Params)
			s.params[r.Experiment] = params
		}
		f := files[r.Experiment]
		if f == nil {
			// The sink's first write to an experiment truncates any file
			// left by a previous run into the same directory, so a
			// repeated invocation reproduces artifacts byte for byte.
			mode := os.O_CREATE | os.O_WRONLY | os.O_APPEND
			if !seen {
				mode = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
			}
			var err error
			f, err = os.OpenFile(filepath.Join(s.dir, r.Experiment+".csv"), mode, 0o644)
			if err != nil {
				s.fail(err)
				return
			}
			files[r.Experiment] = f
			if !seen {
				if _, err := f.WriteString(strings.Join(CSVHeader(r.Params), ",") + "\n"); err != nil {
					s.fail(err)
					return
				}
			}
		}
		row := make([]string, 0, 5+len(params)+len(metricTable))
		row = append(row, r.Experiment, r.Workload, strconv.Itoa(r.Repeat), strconv.FormatUint(r.Seed, 10))
		for _, k := range params {
			row = append(row, r.Params[k])
		}
		for _, e := range metricTable {
			row = append(row, strconv.FormatFloat(*e.slot(&r.Metrics), 'g', -1, 64))
		}
		row = append(row, csvSafe(errText(r.Err)))
		if _, err := f.WriteString(strings.Join(row, ",") + "\n"); err != nil {
			s.fail(err)
			return
		}
	}
}

// WriteJSON writes <name>.json with the indented JSON encoding of v —
// the per-experiment summary artifact, or the run manifest.
func (s *Sink) WriteJSON(name string, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.fail(err)
		return
	}
	s.fail(os.WriteFile(filepath.Join(s.dir, name+".json"), append(data, '\n'), 0o644))
}

// Manifest records how a run was produced. It is the only artifact
// that may carry wall-clock state; CSVs and summaries stay
// byte-reproducible. Runs named by an explicit run ID set RunID and
// leave StartedAt zero (omitted), so their manifests are
// byte-reproducible too.
type Manifest struct {
	StartedAt   time.Time `json:"started_at,omitzero"`
	RunID       string    `json:"run_id,omitempty"`
	Command     string    `json:"command"`
	Experiments []string  `json:"experiments"`
	Workers     int       `json:"workers"`
	Quick       bool      `json:"quick"`
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// csvSafe strips the characters that would break the line-per-row,
// comma-separated artifact format out of free-form error text.
func csvSafe(s string) string {
	return strings.NewReplacer(",", ";", "\n", " ", "\r", " ").Replace(s)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
