package campaign_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"specsimp/internal/campaign"
	"specsimp/internal/runner"
)

// smokeSpec is the test campaign: two experiments, three design
// points, bench-sized parameters — big enough to exercise resume
// across an experiment boundary, small enough to run three times in
// one test.
const smokeSpec = `{
  "run_id": "t1",
  "quick": true,
  "repeats": 1,
  "parallel": 1,
  "experiments": [
    { "name": "slowstart", "axes": { "limit": [1, 2] } },
    { "name": "reorder", "axes": { "bw": 0.1 } }
  ]
}`

func buildPlan(t *testing.T, specJSON string) campaign.Plan {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.BuildPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCampaignResumeByteIdentical is the resume contract's pin: a
// campaign killed mid-run (after one fresh point, via the abort hook)
// and then re-invoked with the same spec and run id must converge to an
// artifact tree byte-identical to an uninterrupted run's — ledger
// included.
func TestCampaignResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke campaign three times; skipped in -short")
	}
	plan := buildPlan(t, smokeSpec)
	if got := plan.Points(); got != 3 {
		t.Fatalf("smoke plan has %d points, want 3", got)
	}

	cleanRoot := t.TempDir()
	rep, err := campaign.Execute(plan, campaign.Options{Root: cleanRoot})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if rep.Interrupted || rep.Executed != 3 || rep.Reused != 0 {
		t.Fatalf("clean run report = %+v", rep)
	}

	resumeRoot := t.TempDir()
	rep, err = campaign.Execute(plan, campaign.Options{Root: resumeRoot, AbortAfter: 1})
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("abort hook did not interrupt the campaign")
	}
	if rep.Executed != 1 {
		t.Fatalf("interrupted run executed %d points, want 1", rep.Executed)
	}
	if _, err := os.Stat(filepath.Join(rep.Dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatal("interrupted run wrote a manifest — the tree must be visibly incomplete")
	}
	if _, err := os.Stat(filepath.Join(rep.Dir, "slowstart.csv")); !os.IsNotExist(err) {
		t.Fatal("interrupted run wrote CSV rows for an incomplete experiment")
	}

	rep, err = campaign.Execute(plan, campaign.Options{Root: resumeRoot})
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if rep.Interrupted || rep.Reused != 1 || rep.Executed != 2 {
		t.Fatalf("resume run report = %+v, want 1 reused + 2 executed", rep)
	}

	clean := readTree(t, filepath.Join(cleanRoot, "run-t1"))
	resumed := readTree(t, filepath.Join(resumeRoot, "run-t1"))
	if a, b := sortedNames(clean), sortedNames(resumed); !equalStrings(a, b) {
		t.Fatalf("trees differ in shape: %v vs %v", a, b)
	}
	for _, name := range sortedNames(clean) {
		if !bytes.Equal(clean[name], resumed[name]) {
			t.Errorf("%s differs between clean and resumed campaigns:\n--- clean ---\n%s\n--- resumed ---\n%s",
				name, clean[name], resumed[name])
		}
	}

	// A third invocation over the completed tree reuses everything.
	rep, err = campaign.Execute(plan, campaign.Options{Root: resumeRoot})
	if err != nil {
		t.Fatalf("rerun over completed tree: %v", err)
	}
	if rep.Executed != 0 || rep.Reused != 3 {
		t.Fatalf("rerun report = %+v, want all 3 points reused", rep)
	}
}

// TestCampaignSpecDriftRefused pins the run-directory ownership check:
// the same run id with a different spec is an error, not a silent
// partial re-simulation.
func TestCampaignSpecDriftRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke campaign; skipped in -short")
	}
	root := t.TempDir()
	if _, err := campaign.Execute(buildPlan(t, smokeSpec), campaign.Options{Root: root}); err != nil {
		t.Fatal(err)
	}
	drifted := buildPlan(t, strings.Replace(smokeSpec, `[1, 2]`, `[1, 4]`, 1))
	_, err := campaign.Execute(drifted, campaign.Options{Root: root})
	if err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("drifted spec not refused: %v", err)
	}
}

// TestAnalyzeRegeneratesSummaries runs -analyze over a completed
// campaign directory: the regenerated JSON summary must byte-match the
// one the run itself wrote, and every analysis artifact must exist.
func TestAnalyzeRegeneratesSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the smoke campaign; skipped in -short")
	}
	root := t.TempDir()
	rep, err := campaign.Execute(buildPlan(t, smokeSpec), campaign.Options{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	arep, err := campaign.Analyze(rep.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"slowstart", "reorder"}; !equalStrings(arep.Experiments, want) {
		t.Fatalf("analyzed %v, want %v", arep.Experiments, want)
	}
	if arep.Rows != 3 {
		t.Fatalf("analysis consumed %d rows, want 3", arep.Rows)
	}
	for _, name := range arep.Experiments {
		orig, err := os.ReadFile(filepath.Join(rep.Dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		regen, err := os.ReadFile(filepath.Join(rep.Dir, "analysis", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, regen) {
			t.Errorf("%s.json: analysis regeneration differs from the run's own summary", name)
		}
		for _, suffix := range []string{"-summary.csv", "-table.txt", "-table.tex"} {
			if _, err := os.Stat(filepath.Join(rep.Dir, "analysis", name+suffix)); err != nil {
				t.Errorf("missing analysis artifact %s%s: %v", name, suffix, err)
			}
		}
	}
	// Tampering with a CSV row's identity must be detected, not
	// silently aggregated.
	path := filepath.Join(rep.Dir, "reorder.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte("reorder,oltp"), []byte("reorder,jbb"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Analyze(rep.Dir); err == nil || !strings.Contains(err.Error(), "does not match the plan's grid") {
		t.Fatalf("tampered CSV not detected: %v", err)
	}
}

// stubRunDir writes a completed-looking run directory for plan
// without simulating: the spec echo plus the CSV rows the sink writes
// when every point returns fixed metrics.
func stubRunDir(t *testing.T, plan campaign.Plan) string {
	t.Helper()
	dir := t.TempDir()
	sink, err := runner.NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range plan.Experiments {
		pts := append([]runner.Point(nil), pe.Points...)
		for i := range pts {
			pts[i].Run = func(seed uint64) (runner.Metrics, error) {
				return runner.Metrics{Perf: 0.5, Cycles: 1000, Recoveries: 1}, nil
			}
		}
		(&runner.Runner{Workers: 1, Sink: sink}).Run(pts)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign.json"), plan.Spec.Canonical(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestAnalyzeRejectsMismatchedHeader: a CSV whose header lacks a metric
// column, carries an unknown one, or has two columns swapped is an
// error naming the column, never a table aggregated from zeros.
func TestAnalyzeRejectsMismatchedHeader(t *testing.T) {
	dir := stubRunDir(t, buildPlan(t, smokeSpec))
	if _, err := campaign.Analyze(dir); err != nil {
		t.Fatalf("untouched stub run: %v", err)
	}
	path := filepath.Join(dir, "slowstart.csv")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.Split(strings.SplitN(string(orig), "\n", 2)[0], ",")
	perf := -1
	for i, c := range header {
		if c == "perf" {
			perf = i
		}
	}
	if perf < 0 || header[perf+1] != "recoveries" {
		t.Fatalf("unexpected stub header %v", header)
	}
	for _, tc := range []struct {
		name string
		edit func(cells []string, isHeader bool) []string
		want string
	}{
		{"missing", func(c []string, _ bool) []string {
			return append(c[:perf:perf], c[perf+1:]...)
		}, `missing column(s) "perf"`},
		{"extra", func(c []string, isHeader bool) []string {
			if isHeader {
				return append(c, "bogus")
			}
			return append(c, "1")
		}, `unexpected column(s) "bogus"`},
		{"misplaced", func(c []string, _ bool) []string {
			c[perf], c[perf+1] = c[perf+1], c[perf]
			return c
		}, fmt.Sprintf(`column %d is "recoveries", want "perf"`, perf+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimSuffix(string(orig), "\n"), "\n")
			for i, line := range lines {
				lines[i] = strings.Join(tc.edit(strings.Split(line, ","), i == 0), ",")
			}
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := campaign.Analyze(dir)
			if err == nil || !strings.Contains(err.Error(), "slowstart.csv") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("edited header: got error %v, want one naming slowstart.csv and %s", err, tc.want)
			}
		})
	}
}

// TestBuildPlanValidation pins the spec validation surface: every bad
// spec is a descriptive error, never a panic.
func TestBuildPlanValidation(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"no experiments", `{"run_id": "x", "experiments": []}`, "lists no experiments"},
		{"no run id", `{"experiments": [{"name": "fig5"}]}`, "needs a run id"},
		{"unknown experiment", `{"run_id": "x", "experiments": [{"name": "fig9"}]}`, `unknown experiment "fig9"`},
		{"nameless experiment", `{"run_id": "x", "experiments": [{}]}`, "without a name"},
		{"duplicate experiment", `{"run_id": "x", "experiments": [{"name": "fig5"}, {"name": "fig5"}]}`, "listed twice"},
		{"unknown axis", `{"run_id": "x", "experiments": [{"name": "reorder", "axes": {"bandwidth": [1]}}]}`, "bandwidth"},
		{"bad axis value", `{"run_id": "x", "experiments": [{"name": "slowstart", "axes": {"limit": ["two"]}}]}`, "limit"},
		{"bad shard count", `{"run_id": "x", "shards": "zero", "experiments": [{"name": "fig5"}]}`, "-shards"},
		{"non-dividing shards", `{"run_id": "x", "shards": "3x5", "experiments": [{"name": "fig5"}]}`, "does not divide"},
		{"negative repeats", `{"run_id": "x", "repeats": -1, "experiments": [{"name": "fig5"}]}`, "repeats"},
		{"negative parallel", `{"run_id": "x", "parallel": -3, "experiments": [{"name": "fig5"}]}`, "parallel must be 0 (GOMAXPROCS) or more (got -3)"},
		{"negative clock", `{"run_id": "x", "cycles_per_second": -7, "experiments": [{"name": "fig4"}]}`, "cycles_per_second must be 0 (the base clock) or a positive whole multiple of 100 (got -7)"},
		// 50 cycles per second would run fig4's 100/s column with no
		// injection at all (50/100 rounds to 0) under the 100/s label.
		{"clock off the rate step", `{"run_id": "x", "cycles_per_second": 50, "experiments": [{"name": "fig4"}]}`, "cycles_per_second must be 0 (the base clock) or a positive whole multiple of 100 (got 50)"},
		// 20 design points × 10,000 repeats is twice the plan limit.
		{"too many points", `{"run_id": "x", "repeats": 10000, "experiments": [{"name": "fig4"}]}`, `experiment "fig4": 20 design points × 10000 repeats`},
		// Each numeric axis accepts only the range its model simulates
		// as labelled, and the error names experiment, axis and value.
		{"NaN bandwidth", `{"run_id": "x", "experiments": [{"name": "reorder", "axes": {"bw": ["NaN"]}}]}`, `experiment reorder, axis bw: value "NaN"`},
		{"infinite bandwidth", `{"run_id": "x", "experiments": [{"name": "reorder", "axes": {"bw": ["+Inf"]}}]}`, `experiment reorder, axis bw: value "+Inf"`},
		{"zero bandwidth", `{"run_id": "x", "experiments": [{"name": "reorder", "axes": {"bw": [0]}}]}`, `experiment reorder, axis bw: value "0"`},
		{"negative bandwidth", `{"run_id": "x", "experiments": [{"name": "reorder", "axes": {"bw": [-0.4]}}]}`, `experiment reorder, axis bw: value "-0.4"`},
		{"negative buffer size", `{"run_id": "x", "experiments": [{"name": "buffers", "axes": {"bufsize": [-1]}}]}`, `experiment buffers, axis bufsize: value "-1"`},
		{"zero slow-start limit", `{"run_id": "x", "experiments": [{"name": "slowstart", "axes": {"limit": [0]}}]}`, `experiment slowstart, axis limit: value "0"`},
		{"negative slow-start limit", `{"run_id": "x", "experiments": [{"name": "slowstart", "axes": {"limit": [-1]}}]}`, `experiment slowstart, axis limit: value "-1"`},
		{"negative re-enable window", `{"run_id": "x", "experiments": [{"name": "reenable", "axes": {"window": [-5]}}]}`, `experiment reenable, axis window: value "-5"`},
		{"zero checkpoint interval", `{"run_id": "x", "experiments": [{"name": "checkpoint", "axes": {"interval": [0]}}]}`, `experiment checkpoint, axis interval: value "0"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := campaign.ParseSpec([]byte(tc.spec))
			if err != nil {
				t.Fatalf("spec did not parse: %v", err)
			}
			_, err = campaign.BuildPlan(spec)
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The smallest value of each range still builds.
	buildPlan(t, `{"run_id": "x", "parallel": 0, "cycles_per_second": 100, "experiments": [
  {"name": "reorder", "axes": {"bw": [1e-9]}},
  {"name": "buffers", "axes": {"bufsize": [0]}},
  {"name": "slowstart", "axes": {"limit": [1]}},
  {"name": "reenable", "axes": {"window": [0]}},
  {"name": "checkpoint", "axes": {"interval": [1]}}]}`)
	if _, err := campaign.ParseSpec([]byte(`{"run_id": "x", "experimnets": []}`)); err == nil {
		t.Fatal("typoed spec key accepted")
	}
	if _, err := campaign.ParseSpec([]byte(`{"experiments": [{"name": "fig5", "axes": {"workloads": [["oltp"]]}}]}`)); err == nil {
		t.Fatal("nested axis value list accepted")
	}
}

// TestZeroIntervalPointReportsError: a design point whose directory
// machine has no checkpoint interval used to re-checkpoint at cycle 0
// forever and hang the campaign. The checkpoint experiment's interval
// axis now starts at 1, so the campaign refuses the point when it
// plans, before anything simulates or any run directory exists.
// (system.Build still rejects a zero interval for callers that bypass
// the axis.)
func TestZeroIntervalPointReportsError(t *testing.T) {
	spec, err := campaign.ParseSpec([]byte(`{"run_id": "t0", "quick": true, "repeats": 1, "parallel": 1,
  "experiments": [{ "name": "checkpoint", "axes": { "interval": [0] } }]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.BuildPlan(spec); err == nil || !strings.Contains(err.Error(), `axis interval: value "0" is below the minimum 1`) {
		t.Fatalf("zero-interval point planned: %v", err)
	}
}

// TestDigestIdentity pins what the resume digest covers: every identity
// field changes it, and param order does not exist (maps are sorted).
func TestDigestIdentity(t *testing.T) {
	plan := buildPlan(t, smokeSpec)
	base := plan.Experiments[0].Points[0]
	d0 := campaign.Digest(base)
	if d0 != campaign.Digest(base) {
		t.Fatal("digest is not deterministic")
	}
	mut := base
	mut.Seed++
	if campaign.Digest(mut) == d0 {
		t.Fatal("seed change did not change the digest")
	}
	mut = base
	mut.Repeat++
	if campaign.Digest(mut) == d0 {
		t.Fatal("repeat change did not change the digest")
	}
	mut = base
	mut.Params = map[string]string{}
	for k, v := range base.Params {
		mut.Params[k] = v
	}
	mut.Params["limit"] = "99"
	if campaign.Digest(mut) == d0 {
		t.Fatal("param change did not change the digest")
	}
}

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

// TestCheckedInSpecsBuild validates every spec under campaigns/ against
// the registry — a spec that rots when an experiment or axis changes
// must fail here, not at a user's 3 a.m. campaign launch.
func TestCheckedInSpecsBuild(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "campaigns", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no campaign specs found under campaigns/")
	}
	for _, path := range paths {
		spec, err := campaign.LoadSpec(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		plan, err := campaign.BuildPlan(spec)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if plan.Points() == 0 {
			t.Errorf("%s: plan has no design points", path)
		}
	}
}
