package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite cmd/verify/testdata/*.golden from the current output")

// timing matches the wall-clock bracket that ends each result line.
var timing = regexp.MustCompile(`(?m)  \[[0-9.]+s\]$`)

// verifyOutput runs the command once and returns its stdout, timings
// stripped, headed by the command line.
func verifyOutput(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("verify %s: exit %d\n%s%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	}
	return "$ verify " + strings.Join(args, " ") + "\n" + timing.ReplaceAllString(stdout.String(), "")
}

// scenarioNames lists every scenario name once, in table order
// (directory first); a name both protocols use runs under both.
func scenarioNames() []string {
	var names []string
	for _, c := range checks() {
		if !slices.Contains(names, c.Name) {
			names = append(names, c.Name)
		}
	}
	return names
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the checker's output:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestVerifyStatsGolden pins the model checker's results: the
// interleaving, cut, transition and replay counts of every scenario
// under both reductions. The default reduction runs every scenario but
// race-3x4, whose counts TestExploreThreeBlocksFourNodes pins;
// full enumeration runs every scenario on a small budget.
func TestVerifyStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden explorations run in the full test step")
	}
	var sleep strings.Builder
	for _, name := range scenarioNames() {
		if name == "race-3x4" {
			continue
		}
		sleep.WriteString(verifyOutput(t, "-stats", "-scenario", name))
	}
	checkGolden(t, "sleep.golden", sleep.String())
	checkGolden(t, "none.golden", verifyOutput(t, "-stats", "-reduce", "none", "-maxpaths", "3200"))
}

// TestVerifyRejectsBadFlags: a flag value the command cannot honor is
// an error that names the flag and its valid values, before anything
// is explored — never a run that ignores it and reports success.
func TestVerifyRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-protocol", "nonsense"}, []string{`-protocol "nonsense"`, "directory, snoop or all"}},
		{[]string{"-scenario", "bogus"}, []string{`-scenario "bogus"`, "race, race-3x4", "corner-gets or all"}},
		{[]string{"-protocol", "snoop", "-scenario", "race"}, []string{`-scenario "race"`, "-protocol snoop", "want corner, "}},
		{[]string{"-protocol", "directory", "-scenario", "corner"}, []string{`-scenario "corner"`, "-protocol directory", "sharer-overflow, ", " or all"}},
		{[]string{"-reduce", "fast"}, []string{`-reduce "fast"`, "sleep or none"}},
		{[]string{"-reduce", "dpor"}, []string{`-reduce "dpor"`, "sleep or none"}},
		{[]string{"-maxpaths", "-1"}, []string{"-maxpaths -1", "at least 1"}},
		{[]string{"-maxpaths", "0"}, []string{"-maxpaths 0", "at least 1"}},
		{[]string{"-depth", "-3"}, []string{"flag provided but not defined: -depth"}},
		{[]string{"-workers", "0"}, []string{"flag provided but not defined: -workers"}},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("verify %v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("verify %v explored before rejecting its flags:\n%s", tc.args, stdout.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("verify %v: error %q does not mention %q", tc.args, stderr.String(), w)
			}
		}
	}
}
