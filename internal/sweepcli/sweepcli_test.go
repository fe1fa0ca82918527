package sweepcli_test

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/sweepcli"
)

// TestRunIDArtifactsByteIdentical is the reproducibility pin for the
// -run-id contract: two complete sweeps with the same run id must
// produce byte-identical artifact trees — CSVs, JSON summaries, AND the
// manifest (which swaps its wall-clock start time for the run id). Each
// invocation runs from its own working directory with a relative -out,
// so the recorded command and every artifact path are
// position-independent. The sweep is availability: its 24 points
// outnumber the 4 workers, so completion order varies between runs, and
// its CSV schema is the widest. (Full scale64 sweeps are byte-diffed
// across -shards settings by CI's parallel-determinism lane.)
func TestRunIDArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two quick availability sweeps; skipped in -short")
	}
	args := []string{"-exp", "availability", "-quick", "-parallel", "4", "-run-id", "regress", "-out", "auto"}
	trees := make([]map[string][]byte, 2)
	for i := range trees {
		dir := t.TempDir()
		t.Chdir(dir)
		if err := sweepcli.Run(args, io.Discard); err != nil {
			t.Fatalf("sweep run %d: %v", i, err)
		}
		trees[i] = readTree(t, filepath.Join(dir, "sweep-runs", "run-regress"))
	}

	names := sortedNames(trees[0])
	if want := []string{"availability.csv", "availability.json", "manifest.json"}; !equalStrings(names, want) {
		t.Fatalf("artifact tree = %v, want %v", names, want)
	}
	if other := sortedNames(trees[1]); !equalStrings(names, other) {
		t.Fatalf("artifact trees differ in shape: %v vs %v", names, other)
	}
	for _, name := range names {
		if !bytes.Equal(trees[0][name], trees[1][name]) {
			t.Errorf("%s differs between identical -run-id runs:\n--- run 0 ---\n%s\n--- run 1 ---\n%s",
				name, trees[0][name], trees[1][name])
		}
	}
}

// TestRunDirNaming pins the deterministic directory scheme -run-id
// selects (and that the wall-clock fallback stays out of it).
func TestRunDirNaming(t *testing.T) {
	if got, want := runner.RunDir("sweep-runs", "x"), filepath.Join("sweep-runs", "run-x"); got != want {
		t.Fatalf("RunDir = %q, want %q", got, want)
	}
}

// readTree loads every file under root keyed by slash-relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tree[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatalf("read artifact tree %s: %v", root, err)
	}
	return tree
}

func sortedNames(tree map[string][]byte) []string {
	names := make([]string, 0, len(tree))
	for name := range tree {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExpUsageListsEveryExperiment is the usage-drift guard: the -exp
// help text is generated from the registry, so every registered
// experiment (and "all") must appear in it.
func TestExpUsageListsEveryExperiment(t *testing.T) {
	usage := sweepcli.ExpUsage()
	for _, name := range append(experiments.Names(), "all") {
		if !strings.Contains(usage, name) {
			t.Errorf("-exp usage %q is missing registered experiment %q", usage, name)
		}
	}
}

// TestUnknownExperimentError pins the -exp error path: the message
// names the bad value and lists the registered set.
func TestUnknownExperimentError(t *testing.T) {
	err := sweepcli.Run([]string{"-exp", "fig9"}, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range append([]string{"fig9"}, experiments.Names()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestCampaignCLIResume drives the CLI surface of the campaign engine:
// -campaign with the abort hook exits with a resumable error, a second
// invocation converges, and -analyze runs over the finished tree.
func TestCampaignCLIResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign twice; skipped in -short")
	}
	dir := t.TempDir()
	t.Chdir(dir)
	spec := []byte(`{
  "run_id": "cli1",
  "quick": true,
  "repeats": 1,
  "parallel": 1,
  "experiments": [{ "name": "slowstart", "axes": { "limit": [1, 2] } }]
}`)
	if err := os.WriteFile("spec.json", spec, 0o644); err != nil {
		t.Fatal(err)
	}
	err := sweepcli.Run([]string{"-campaign", "spec.json", "-campaign-abort-after", "1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("aborted campaign did not report interruption: %v", err)
	}
	var out bytes.Buffer
	if err := sweepcli.Run([]string{"-campaign", "spec.json"}, &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(out.String(), "1 reused") {
		t.Fatalf("resume did not reuse the pre-kill point:\n%s", out.String())
	}
	if err := sweepcli.Run([]string{"-analyze", filepath.Join("sweep-runs", "run-cli1")}, io.Discard); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if _, err := os.Stat(filepath.Join("sweep-runs", "run-cli1", "analysis", "slowstart-table.tex")); err != nil {
		t.Fatalf("analysis artifact missing: %v", err)
	}
}
