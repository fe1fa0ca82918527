// Command verify model-checks both coherence protocols: it explores
// message-delivery (and, for snooping, bus-arbitration) interleavings
// of small scenarios on the shared exploration engine
// (internal/explore) and checks every outcome — the verification-
// effort experiment behind the paper's whole premise (§1: "engineers
// must allocate a disproportionate share of their effort to ensure
// that rare corner-case events behave correctly").
//
// For the speculative protocols it certifies framework feature (2)
// within the explored bounds: every interleaving either completes with
// intact invariants or stops at the single designated detection — the
// reordered-forward for the directory protocol (§3.1), the WB_AI corner
// case for the snooping protocol (§3.2). Sleep sets and canonical
// state hashing push those proofs to 3-block, 4-node scenarios
// (including the Dir_i_B imprecise-sharer paths) that full enumeration
// cannot finish. The scenarios are the protocols' own tables
// (directory.Scenarios, snoop.Scenarios).
//
// Usage:
//
//	verify                     # all scenarios, both protocols and variants
//	verify -protocol snoop     # just the snooping protocol
//	verify -scenario race      # just the §3.1 writeback race
//	verify -reduce none        # pruning mode: sleep (default) or none
//	verify -maxpaths 20000     # interleaving budget of each exploration
//	verify -stats              # explored vs pruned interleaving accounting
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"specsimp/internal/directory"
	"specsimp/internal/explore"
	"specsimp/internal/snoop"
)

// A check is one scenario of a protocol's table under one variant.
type check struct {
	protocol string
	explore.Scenario
	full  bool
	model func() explore.Model
}

// checks lists both protocols' tables, directory first, each scenario
// under its Full then its Spec variant.
func checks() []check {
	var cs []check
	for _, sc := range directory.Scenarios() {
		for _, v := range []directory.Variant{directory.Full, directory.Spec} {
			cs = append(cs, check{"directory", sc.Scenario, v == directory.Full, directory.NewModel(sc, v)})
		}
	}
	for _, sc := range snoop.Scenarios() {
		for _, v := range []snoop.Variant{snoop.Full, snoop.Spec} {
			cs = append(cs, check{"snoop", sc, v == snoop.Full, snoop.NewModel(sc, v)})
		}
	}
	return cs
}

// protocols gives, per protocol, the line reporting a Full variant's
// explore.Result.Flagged count and the race its detecting scenarios
// target.
var protocols = map[string]struct{ flagged, target string }{
	"directory": {"writeback race exercised on %d completed paths", "race"},
	"snoop":     {"corner case absorbed by the specified transition on %d paths", "corner"},
}

// validate checks every flag value before anything runs and returns
// the selected reduction.
func validate(protocol, scenario, reduce string, maxPaths int) (explore.Reduction, error) {
	if _, ok := protocols[protocol]; !ok && protocol != "all" {
		return 0, fmt.Errorf("unknown -protocol %q (want directory, snoop or all)", protocol)
	}
	var names []string
	for _, c := range checks() {
		if (protocol == "all" || c.protocol == protocol) && !slices.Contains(names, c.Name) {
			names = append(names, c.Name)
		}
	}
	if scenario != "all" && !slices.Contains(names, scenario) {
		return 0, fmt.Errorf("unknown -scenario %q for -protocol %s (want %s or all)",
			scenario, protocol, strings.Join(names, ", "))
	}
	var r explore.Reduction
	switch reduce {
	case "sleep":
		r = explore.ReduceSleep
	case "none":
		r = explore.ReduceNone
	default:
		return 0, fmt.Errorf("unknown -reduce %q (want sleep or none)", reduce)
	}
	if maxPaths < 1 {
		return 0, fmt.Errorf("-maxpaths %d: want at least 1", maxPaths)
	}
	return r, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams, returning the exit
// code: 0 when every exploration behaved correctly, 1 on a violation,
// 2 on an invalid command line (reported before anything runs).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "all", "protocol: directory, snoop, all")
		which    = fs.String("scenario", "all", "scenario name, or all")
		maxPaths = fs.Int("maxpaths", 200_000, "interleaving budget of each scenario and variant's exploration")
		reduceS  = fs.String("reduce", "sleep", "pruning: sleep (sleep sets + state hashing) or none (full enumeration)")
		stats    = fs.Bool("stats", false, "report explored vs pruned interleaving counts")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	reduce, err := validate(*protocol, *which, *reduceS, *maxPaths)
	if err != nil {
		fmt.Fprintf(stderr, "verify: %v\n", err)
		return 2
	}

	failed := false
	for _, c := range checks() {
		if (*protocol != "all" && *protocol != c.protocol) || (*which != "all" && *which != c.Name) {
			continue
		}
		start := time.Now()
		res := explore.Run(explore.Config{
			NewModel:  c.model,
			Reduction: reduce,
			MaxPaths:  *maxPaths,
		})
		variant := "spec"
		if c.full {
			variant = "full"
		}
		failed = report(stdout, c.protocol, c.Name, variant, &res, start) || failed
		if *stats {
			fmt.Fprintf(stdout, "    pruned: %d sleep-cut + %d visited-cut subtrees; %d transitions (+%d replayed)\n",
				res.SleepCut, res.VisitedCut, res.Transitions, res.Replayed)
		}
		p := protocols[c.protocol]
		if !c.full && c.SpecDetects && res.Detected == 0 {
			fmt.Fprintf(stdout, "    warning: %s scenario never triggered detection\n", p.target)
		}
		if c.full && res.Flagged > 0 {
			fmt.Fprintf(stdout, "    "+p.flagged+"\n", res.Flagged)
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "\nEvery explored interleaving behaved correctly: the full protocols")
	fmt.Fprintln(stdout, "never mis-speculate; the speculative protocols either complete or")
	fmt.Fprintln(stdout, "detect at their single designated invalid transition (feature 2).")
	return 0
}

// report prints one exploration's result line and its first
// violations, and reports whether it failed.
func report(w io.Writer, proto, name, variant string, res *explore.Result, start time.Time) bool {
	status := "OK"
	if !res.Ok() {
		status = "FAIL"
	}
	trunc := ""
	if res.Truncated {
		trunc = " (budget exhausted)"
	}
	fmt.Fprintf(w, "%-10s %-18s %-5s %-4s %8d interleavings: %d completed, %d detected%s  [%.1fs]\n",
		proto, name, variant, status, res.Paths, res.Completed, res.Detected, trunc, time.Since(start).Seconds())
	for i, v := range res.Violations {
		if i == 3 {
			fmt.Fprintf(w, "    ... %d more\n", len(res.Violations)-3)
			break
		}
		fmt.Fprintf(w, "    %s\n", v)
	}
	return !res.Ok()
}
