package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"specsimp/internal/runner"
)

// Digest returns the canonical design-point digest: a sha256 over the
// point's complete identity — experiment, workload, repeat, seed, and
// sorted axis params. Metrics are a pure function of this identity
// (runner.Point.Run's contract), so a ledger entry under the digest
// substitutes for re-execution exactly.
func Digest(pt runner.Point) string {
	h := sha256.New()
	writeField := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	writeField(pt.Experiment)
	writeField(pt.Workload)
	writeField(strconv.Itoa(pt.Repeat))
	writeField(strconv.FormatUint(pt.Seed, 10))
	keys := make([]string, 0, len(pt.Params))
	for k := range pt.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeField(k + "=" + pt.Params[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ledgerEntry is one completed point: its digest and its outcome.
// Metrics travel as the same shortest-round-trip strings the CSV
// artifact uses (runner.MetricKeys order), so reloading reproduces the
// exact float64 values — and non-finite values, which encoding/json
// cannot represent as numbers, are no special case.
type ledgerEntry struct {
	Digest  string   `json:"digest"`
	Metrics []string `json:"m"`
	Err     string   `json:"err,omitempty"`
}

func entryOf(pt runner.Point, m runner.Metrics, errText string) ledgerEntry {
	keys := runner.MetricKeys()
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = strconv.FormatFloat(m.Get(k), 'g', -1, 64)
	}
	return ledgerEntry{Digest: Digest(pt), Metrics: vals, Err: errText}
}

func (e ledgerEntry) metrics() (runner.Metrics, error) {
	keys := runner.MetricKeys()
	var m runner.Metrics
	if len(e.Metrics) != len(keys) {
		return m, fmt.Errorf("ledger entry %s has %d metrics, want %d (run dir from a different schema?)",
			e.Digest, len(e.Metrics), len(keys))
	}
	for i, k := range keys {
		v, err := strconv.ParseFloat(e.Metrics[i], 64)
		if err != nil {
			return m, fmt.Errorf("ledger entry %s: metric %s: %v", e.Digest, k, err)
		}
		m.Set(k, v)
	}
	return m, nil
}

// Ledger is the campaign's per-point completion record and the sweep
// engine's resume cache (runner.PointCache). Completed points append
// to progress/points.jsonl as they finish — in completion order, which
// is scheduling-dependent — and Canonicalize rewrites the file in grid
// order once the campaign completes, so clean and resumed runs end
// with identical bytes. Loading tolerates a truncated final line (the
// footprint of a mid-write kill).
type Ledger struct {
	path string

	mu      sync.Mutex
	f       *os.File
	entries map[string]ledgerEntry
	reused  int
	fresh   int
	// abortAfter > 0 interrupts the campaign once that many fresh
	// points have been stored this invocation — the point-count kill
	// hook the resume tests and the CI campaign-smoke job use.
	abortAfter int
}

// OpenLedger loads (or creates) the run directory's progress ledger.
// Any valid prefix of an interrupted append survives; the file is
// rewritten to that prefix so subsequent appends start from a clean
// line boundary.
func OpenLedger(dir string) (*Ledger, error) {
	path := filepath.Join(dir, "progress", "points.jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: create progress dir: %v", err)
	}
	entries := map[string]ledgerEntry{}
	var valid []ledgerEntry
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e ledgerEntry
			if err := json.Unmarshal(line, &e); err != nil {
				// A torn tail from a killed append; everything before it
				// is intact and everything after it never happened.
				break
			}
			if _, err := e.metrics(); err != nil {
				return nil, err
			}
			// The first entry under a digest wins, as in Store, so the
			// rewritten file holds exactly the entries kept in memory.
			if _, dup := entries[e.Digest]; !dup {
				valid = append(valid, e)
				entries[e.Digest] = e
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("campaign: read ledger: %v", err)
	}
	if err := writeEntries(path, valid); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open ledger: %v", err)
	}
	return &Ledger{path: path, f: f, entries: entries}, nil
}

func writeEntries(path string, entries []ledgerEntry) error {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("campaign: encode ledger entry: %v", err)
		}
		w.Write(data)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("campaign: rewrite ledger: %v", err)
	}
	return nil
}

// Lookup implements runner.PointCache: a completed point's recorded
// outcome substitutes for re-execution.
func (l *Ledger) Lookup(pt runner.Point) (runner.Metrics, string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.entries[Digest(pt)]
	if !ok {
		return runner.Metrics{}, "", false
	}
	m, err := e.metrics()
	if err != nil {
		// Validated at load; unreachable afterwards.
		panic("campaign: " + err.Error())
	}
	l.reused++
	return m, e.Err, true
}

// Store implements runner.PointCache: a freshly executed point appends
// durably before the campaign moves on.
func (l *Ledger) Store(pt runner.Point, m runner.Metrics, errText string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := entryOf(pt, m, errText)
	if _, dup := l.entries[e.Digest]; dup {
		return
	}
	l.entries[e.Digest] = e
	l.fresh++
	if l.f != nil {
		data, err := json.Marshal(e)
		if err == nil {
			_, err = l.f.Write(append(data, '\n'))
		}
		if err != nil {
			// Losing an append costs re-execution on resume, not
			// correctness; the campaign's sink errors cover real disk
			// failure.
			return
		}
	}
}

// Interrupted reports whether the abort-after hook has fired; it is
// the campaign Runner's Interrupt poll.
func (l *Ledger) Interrupted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.abortAfter > 0 && l.fresh >= l.abortAfter
}

// Reused and Fresh report this invocation's cache-hit and executed
// point counts.
func (l *Ledger) Reused() int { l.mu.Lock(); defer l.mu.Unlock(); return l.reused }
func (l *Ledger) Fresh() int  { l.mu.Lock(); defer l.mu.Unlock(); return l.fresh }

// Canonicalize rewrites the ledger in the plan's grid order — the
// completion-order append log is scheduling-dependent, and a resumed
// campaign's log differs from a clean one; the canonical rewrite is
// what makes the final trees byte-identical. Every plan point must be
// present (the campaign completed).
func (l *Ledger) Canonicalize(plan Plan) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ordered []ledgerEntry
	for _, pe := range plan.Experiments {
		for _, pt := range pe.Points {
			e, ok := l.entries[Digest(pt)]
			if !ok {
				return fmt.Errorf("campaign: ledger is missing completed point %s/%s (internal error)",
					pt.Experiment, pt.Workload)
			}
			ordered = append(ordered, e)
		}
	}
	return writeEntries(l.path, ordered)
}

// Close releases the append handle (idempotent).
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
