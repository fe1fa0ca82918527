package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzPlan is the fixed plan FuzzLoadResults checks CSV bytes against:
// one experiment, two design points, nothing simulated.
func fuzzPlan(tb testing.TB) PlanExperiment {
	tb.Helper()
	spec, err := ParseSpec([]byte(`{"run_id": "fuzz", "quick": true, "repeats": 1,
  "experiments": [{"name": "slowstart", "axes": {"limit": [1, 2]}}]}`))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := BuildPlan(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return plan.Experiments[0]
}

// FuzzLoadResults feeds arbitrary <exp>.csv bytes to the -analyze
// reader: it must return results or a descriptive error, never panic,
// and whatever it accepts must aggregate and render.
func FuzzLoadResults(f *testing.F) {
	pe := fuzzPlan(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, params, err := parseResults("slowstart.csv", data, pe)
		if err != nil {
			return
		}
		if len(res) != len(pe.Points) || len(params) != len(pe.Points[0].Params) {
			t.Fatalf("accepted %d rows and %d param columns for a %d-point grid", len(res), len(params), len(pe.Points))
		}
		pe.Exp.Table(pe.Exp.Aggregate(pe.Params, res))
	})
}

// FuzzBuildPlan feeds arbitrary bytes to the campaign spec reader and
// BuildPlan: they must give a plan or a descriptive error, never panic,
// and a plan they accept stays within the point limit.
func FuzzBuildPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		plan, err := BuildPlan(spec)
		if err != nil {
			return
		}
		if n := plan.Points(); n > maxPlanPoints {
			t.Fatalf("accepted a %d-point plan", n)
		}
	})
}

// FuzzOpenLedger feeds arbitrary bytes to OpenLedger as a run's
// progress/points.jsonl: it must return a ledger or a descriptive
// error, never panic, and reopening the file it rewrote must give the
// same entries and the same bytes.
func FuzzOpenLedger(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "progress", "points.jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLedger(dir)
		if err != nil {
			return
		}
		first := l.entries
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		rewritten, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, err = OpenLedger(dir)
		if err != nil {
			t.Fatalf("reopening the rewritten ledger: %v", err)
		}
		defer l.Close()
		if !reflect.DeepEqual(first, l.entries) {
			t.Fatalf("reopened ledger holds different entries:\n%v\nvs\n%v", first, l.entries)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(rewritten) {
			t.Fatalf("second load rewrote the ledger:\n%q\nvs\n%q", rewritten, again)
		}
	})
}

// TestFuzzSeedsDecode keeps the checked-in seed corpora meaningful:
// the valid seeds must still decode, so a schema change that turns
// them into plain garbage fails here instead of silently weakening the
// fuzzers.
func TestFuzzSeedsDecode(t *testing.T) {
	spec, err := ParseSpec(readSeed(t, "FuzzBuildPlan", "seed-smoke"))
	if err != nil {
		t.Fatalf("smoke spec seed rejected: %v", err)
	}
	if _, err := BuildPlan(spec); err != nil {
		t.Fatalf("smoke spec seed does not plan: %v", err)
	}
	pe := fuzzPlan(t)
	if _, _, err := parseResults("slowstart.csv", readSeed(t, "FuzzLoadResults", "seed-valid"), pe); err != nil {
		t.Fatalf("valid CSV seed rejected: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "progress", "points.jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, readSeed(t, "FuzzOpenLedger", "seed-valid"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLedger(dir)
	if err != nil {
		t.Fatalf("valid ledger seed rejected: %v", err)
	}
	defer l.Close()
	for _, pt := range pe.Points {
		if _, _, ok := l.Lookup(pt); !ok {
			t.Fatalf("valid ledger seed lacks point %v", pt.Params)
		}
	}
}

// readSeed decodes one checked-in corpus file (go test fuzz v1, a
// single []byte value).
func readSeed(t *testing.T, fuzzer, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzer, name))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
	body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
	s, err := strconv.Unquote(body)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s/%s is not a one-[]byte corpus file", fuzzer, name)
	}
	return []byte(s)
}
