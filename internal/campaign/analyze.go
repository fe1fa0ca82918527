package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"specsimp/internal/experiments"
	"specsimp/internal/runner"
	"specsimp/internal/workload"
)

// AnalyzeReport summarizes one Analyze invocation.
type AnalyzeReport struct {
	Dir         string
	Experiments []string
	// Rows counts the CSV rows (per-run results) the analysis consumed.
	Rows int
}

// Analyze regenerates the analysis artifacts of a completed run
// directory without re-simulating anything: for each experiment it
// reloads the per-run CSV rows, verifies them against the plan's grid
// row for row, re-runs the aggregation, and writes under
// <dir>/analysis/
//
//	<exp>.json          the JSON summary, byte-identical to <dir>/<exp>.json
//	<exp>-summary.csv   per-design-point means over repeats, all metrics
//	<exp>-table.txt     the paper table as the CLI prints it
//	<exp>-table.tex     a LaTeX tabular of the grouped summary
//
// Campaign directories carry their spec (campaign.json), which rebuilds
// the exact plan; plain sweep directories are reconstructed from the
// manifest's recorded command. Either way every byte written is a pure
// function of the directory's contents plus code — Analyze never reads
// the wall clock.
func Analyze(dir string) (AnalyzeReport, error) {
	rep := AnalyzeReport{Dir: dir}
	plan, err := planOf(dir)
	if err != nil {
		return rep, err
	}
	adir := filepath.Join(dir, "analysis")
	if err := os.MkdirAll(adir, 0o755); err != nil {
		return rep, fmt.Errorf("analyze: create %s: %v", adir, err)
	}
	for _, pe := range plan.Experiments {
		res, paramCols, err := loadResults(dir, pe)
		if err != nil {
			return rep, err
		}
		out := pe.Exp.Aggregate(pe.Params, res)
		if err := writeAnalysis(adir, pe, paramCols, res, out); err != nil {
			return rep, err
		}
		rep.Experiments = append(rep.Experiments, pe.Exp.Name())
		rep.Rows += len(res)
	}
	return rep, nil
}

// planOf rebuilds the run directory's plan: from its campaign spec if
// it is a campaign directory, else from the manifest's recorded
// command line.
func planOf(dir string) (Plan, error) {
	specPath := filepath.Join(dir, specFile)
	if data, err := os.ReadFile(specPath); err == nil {
		spec, err := ParseSpec(data)
		if err != nil {
			return Plan{}, fmt.Errorf("%s: %v", specPath, err)
		}
		return BuildPlan(spec)
	} else if !os.IsNotExist(err) {
		return Plan{}, fmt.Errorf("analyze: read %s: %v", specPath, err)
	}
	return planFromManifest(dir)
}

// planFromManifest reconstructs a plain sweep run's plan from
// manifest.json: the experiment list is recorded outright, and the
// sweep flags that shape grids (-quick via the Quick field, -workload
// from the command tokens) are re-applied. Flags that do not change
// rows (-parallel, -shards, -out, -json) are ignored.
func planFromManifest(dir string) (Plan, error) {
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("analyze: %s has neither %s nor manifest.json — not a sweep run directory (%v)", dir, specFile, err)
	}
	var m runner.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Plan{}, fmt.Errorf("analyze: %s: %v", path, err)
	}
	base := experiments.Standard()
	if m.Quick {
		base = experiments.Quick()
	}
	if wlName := flagValue(m.Command, "workload"); wlName != "" {
		wl, err := workload.Resolve(wlName)
		if err != nil {
			return Plan{}, fmt.Errorf("analyze: %s: recorded command: %v", path, err)
		}
		base.Workload = wl
	}
	plan := Plan{RunID: m.RunID, Parallel: m.Workers}
	for _, name := range m.Experiments {
		e, ok := experiments.ByName(name)
		if !ok {
			return Plan{}, fmt.Errorf("analyze: %s lists unknown experiment %q (registered: %s)",
				path, name, strings.Join(experiments.Names(), ", "))
		}
		np, err := experiments.Normalize(e, base)
		if err != nil {
			return Plan{}, fmt.Errorf("analyze: %s: %v", path, err)
		}
		plan.Experiments = append(plan.Experiments, PlanExperiment{Exp: e, Params: np, Points: e.Grid(np)})
	}
	if len(plan.Experiments) == 0 {
		return Plan{}, fmt.Errorf("analyze: %s lists no experiments", path)
	}
	return plan, nil
}

// flagValue extracts one flag's value from a recorded command line,
// accepting the -name value, --name value, and -name=value spellings.
func flagValue(command, name string) string {
	toks := strings.Fields(command)
	for i, t := range toks {
		t = strings.TrimPrefix(t, "-")
		t = strings.TrimPrefix(t, "-")
		if t == name && i+1 < len(toks) {
			return toks[i+1]
		}
		if v, ok := strings.CutPrefix(t, name+"="); ok {
			return v
		}
	}
	return ""
}

// loadResults reads <exp>.csv back into the per-run results the
// aggregation consumes (see parseResults).
func loadResults(dir string, pe PlanExperiment) ([]runner.Result, []string, error) {
	name := pe.Exp.Name()
	path := filepath.Join(dir, name+".csv")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: experiment %s: %v (did the campaign complete?)", name, err)
	}
	return parseResults(path, data, pe)
}

// parseResults decodes one experiment's CSV artifact, verifying its
// header against the layout the sink writes for the plan's points
// (runner.CSVHeader) and each row against the plan's grid — same
// point, same order. A mismatch means the artifacts were produced by
// different code or flags than the plan reconstructs, or were edited,
// and aggregated numbers would silently lie; it is an error, never a
// best effort. It also returns the param columns, in CSV order.
func parseResults(path string, data []byte, pe PlanExperiment) ([]runner.Result, []string, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] == "" {
		return nil, nil, fmt.Errorf("analyze: %s is empty", path)
	}
	var first map[string]string
	if len(pe.Points) > 0 {
		first = pe.Points[0].Params
	}
	header := runner.CSVHeader(first)
	if diff := headerMismatch(strings.Split(lines[0], ","), header); diff != "" {
		return nil, nil, fmt.Errorf("analyze: %s header does not match the layout the sweep writes for this plan: %s", path, diff)
	}
	const fixed = 4 // experiment, workload, repeat, seed
	paramCols := header[fixed : fixed+len(first)]
	rows := lines[1:]
	if len(rows) != len(pe.Points) {
		return nil, nil, fmt.Errorf("analyze: %s has %d result rows but the plan's grid has %d points — the artifacts were produced by a different spec or code revision", path, len(rows), len(pe.Points))
	}
	res := make([]runner.Result, len(rows))
	for i, line := range rows {
		fields := strings.Split(line, ",")
		if len(fields) != len(header) {
			return nil, nil, fmt.Errorf("analyze: %s row %d has %d fields, want %d", path, i+1, len(fields), len(header))
		}
		pt := runner.Point{
			Experiment: fields[0],
			Workload:   fields[1],
			Params:     make(map[string]string, len(paramCols)),
		}
		var m runner.Metrics
		var err error
		for j := 2; j < len(header)-1; j++ {
			col, v := header[j], fields[j]
			switch {
			case j == 2:
				pt.Repeat, err = strconv.Atoi(v)
			case j == 3:
				pt.Seed, err = strconv.ParseUint(v, 10, 64)
			case j < fixed+len(paramCols):
				pt.Params[col] = v
			default:
				var f float64
				f, err = strconv.ParseFloat(v, 64)
				m.Set(col, f)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("analyze: %s row %d, column %s: %v", path, i+1, col, err)
			}
		}
		if diff := pointMismatch(pt, pe.Points[i]); diff != "" {
			return nil, nil, fmt.Errorf("analyze: %s row %d does not match the plan's grid: %s — the artifacts were produced by a different spec or code revision", path, i+1, diff)
		}
		res[i] = runner.Result{Point: pe.Points[i], Metrics: m}
		if errText := fields[len(fields)-1]; errText != "" {
			res[i].Err = errors.New(errText)
		}
	}
	return res, paramCols, nil
}

// headerMismatch names how a CSV header departs from the expected
// one: the missing and extra columns, or else the first column out of
// place; "" if they agree.
func headerMismatch(got, want []string) string {
	var problems []string
	if cols := absent(want, got); len(cols) > 0 {
		problems = append(problems, "missing column(s) "+strings.Join(cols, ", "))
	}
	if cols := absent(got, want); len(cols) > 0 {
		problems = append(problems, "unexpected column(s) "+strings.Join(cols, ", "))
	}
	if len(problems) > 0 {
		return strings.Join(problems, "; ")
	}
	for i := range got {
		if i >= len(want) {
			return fmt.Sprintf("column %d %q repeats an earlier column", i+1, got[i])
		}
		if got[i] != want[i] {
			return fmt.Sprintf("column %d is %q, want %q", i+1, got[i], want[i])
		}
	}
	return ""
}

// absent returns, quoted, the columns of cols that other lacks.
func absent(cols, other []string) []string {
	have := make(map[string]bool, len(other))
	for _, c := range other {
		have[c] = true
	}
	var out []string
	for _, c := range cols {
		if !have[c] {
			out = append(out, strconv.Quote(c))
		}
	}
	return out
}

// pointMismatch describes the first difference between a CSV row's
// identity and the grid point it should be, or "" if they agree.
func pointMismatch(got, want runner.Point) string {
	switch {
	case got.Experiment != want.Experiment:
		return fmt.Sprintf("experiment %q vs %q", got.Experiment, want.Experiment)
	case got.Workload != want.Workload:
		return fmt.Sprintf("workload %q vs %q", got.Workload, want.Workload)
	case got.Repeat != want.Repeat:
		return fmt.Sprintf("repeat %d vs %d", got.Repeat, want.Repeat)
	case got.Seed != want.Seed:
		return fmt.Sprintf("seed %d vs %d", got.Seed, want.Seed)
	case len(got.Params) != len(want.Params):
		return fmt.Sprintf("%d params vs %d", len(got.Params), len(want.Params))
	}
	keys := make([]string, 0, len(want.Params))
	for k := range want.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got.Params[k] != want.Params[k] {
			return fmt.Sprintf("param %s=%q vs %q", k, got.Params[k], want.Params[k])
		}
	}
	return ""
}

// summaryGroup is one design point of the grouped summary: all repeats
// of one workload × params cell.
type summaryGroup struct {
	workload string
	params   map[string]string
	n        int
	errs     int
	sums     map[string]float64
}

// groupRows folds consecutive per-run rows into design-point groups —
// grids emit repeats consecutively, so consecutive identity-equality is
// exactly the design-point boundary.
func groupRows(res []runner.Result, paramCols []string) []summaryGroup {
	var groups []summaryGroup
	keys := runner.MetricKeys()
	for _, r := range res {
		last := len(groups) - 1
		if last < 0 || !sameCell(groups[last], r, paramCols) {
			groups = append(groups, summaryGroup{
				workload: r.Workload,
				params:   r.Params,
				sums:     map[string]float64{},
			})
			last++
		}
		g := &groups[last]
		g.n++
		if r.Err != nil {
			g.errs++
			continue
		}
		for _, k := range keys {
			g.sums[k] += r.Metrics.Get(k)
		}
	}
	return groups
}

func sameCell(g summaryGroup, r runner.Result, paramCols []string) bool {
	if g.workload != r.Workload {
		return false
	}
	for _, c := range paramCols {
		if g.params[c] != r.Params[c] {
			return false
		}
	}
	return true
}

// mean returns the group's per-valid-run mean of one metric (0 when
// every run errored).
func (g summaryGroup) mean(key string) float64 {
	valid := g.n - g.errs
	if valid == 0 {
		return 0
	}
	return g.sums[key] / float64(valid)
}

// writeAnalysis emits one experiment's four analysis artifacts.
func writeAnalysis(adir string, pe PlanExperiment, paramCols []string, res []runner.Result, out any) error {
	name := pe.Exp.Name()
	emit := func(file, content string) error {
		if err := os.WriteFile(filepath.Join(adir, file), []byte(content), 0o644); err != nil {
			return fmt.Errorf("analyze: write %s: %v", file, err)
		}
		return nil
	}

	// The regenerated JSON summary: the same encoding the sink used, so
	// it byte-matches the run directory's own <exp>.json.
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("analyze: encode %s summary: %v", name, err)
	}
	if err := emit(name+".json", string(data)+"\n"); err != nil {
		return err
	}

	groups := groupRows(res, paramCols)
	keys := runner.MetricKeys()

	var csv strings.Builder
	cols := append([]string{"experiment", "workload"}, paramCols...)
	cols = append(cols, "n", "errors")
	cols = append(cols, keys...)
	csv.WriteString(strings.Join(cols, ",") + "\n")
	for _, g := range groups {
		row := append([]string{name, g.workload}, make([]string, 0, len(cols))...)
		for _, c := range paramCols {
			row = append(row, g.params[c])
		}
		row = append(row, strconv.Itoa(g.n), strconv.Itoa(g.errs))
		for _, k := range keys {
			row = append(row, strconv.FormatFloat(g.mean(k), 'g', -1, 64))
		}
		csv.WriteString(strings.Join(row, ",") + "\n")
	}
	if err := emit(name+"-summary.csv", csv.String()); err != nil {
		return err
	}

	var txt strings.Builder
	fmt.Fprintf(&txt, "==== %s ====\n", pe.Exp.Title(pe.Params))
	if pre, ok := pe.Exp.(experiments.Preambler); ok {
		txt.WriteString(pre.Preamble(pe.Params) + "\n")
	}
	txt.WriteString(pe.Exp.Table(out) + "\n")
	if err := emit(name+"-table.txt", txt.String()); err != nil {
		return err
	}

	return emit(name+"-table.tex", latexTable(name, paramCols, groups))
}

// latexTable renders the grouped summary as a paper-ready tabular:
// workload and axis params identify the row, headline metrics follow.
func latexTable(name string, paramCols []string, groups []summaryGroup) string {
	metrics := []string{"perf", "recoveries"}
	var b strings.Builder
	fmt.Fprintf(&b, "%% %s: generated by sweep -analyze; means over repeats\n", latexEscape(name))
	b.WriteString(`\begin{tabular}{l` + strings.Repeat("l", len(paramCols)) + strings.Repeat("r", len(metrics)) + "}\n")
	head := append([]string{"workload"}, paramCols...)
	head = append(head, metrics...)
	for i, h := range head {
		head[i] = latexEscape(h)
	}
	b.WriteString(strings.Join(head, " & ") + ` \\` + "\n" + `\hline` + "\n")
	for _, g := range groups {
		row := []string{latexEscape(g.workload)}
		for _, c := range paramCols {
			row = append(row, latexEscape(g.params[c]))
		}
		for _, m := range metrics {
			row = append(row, strconv.FormatFloat(g.mean(m), 'g', 4, 64))
		}
		b.WriteString(strings.Join(row, " & ") + ` \\` + "\n")
	}
	b.WriteString(`\end{tabular}` + "\n")
	return b.String()
}

var latexEscaper = strings.NewReplacer(
	"\\", `\textbackslash{}`,
	"_", `\_`, "%", `\%`, "&", `\&`, "#", `\#`, "$", `\$`,
	"{", `\{`, "}", `\}`, "~", `\textasciitilde{}`, "^", `\textasciicircum{}`,
)

func latexEscape(s string) string { return latexEscaper.Replace(s) }
