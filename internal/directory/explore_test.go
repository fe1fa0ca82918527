package directory

import (
	"reflect"
	"testing"

	"specsimp/internal/explore"
)

// scenario returns the named entry of Scenarios.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no directory scenario %q", name)
	return Scenario{}
}

// runScenario explores sc's model for variant v under cfg.
func runScenario(sc Scenario, v Variant, cfg explore.Config) explore.Result {
	cfg.NewModel = NewModel(sc, v)
	return explore.Run(cfg)
}

// TestExploreFullNoMisSpeculation: across every explored interleaving
// the full protocol completes with intact invariants and never
// mis-speculates.
func TestExploreFullNoMisSpeculation(t *testing.T) {
	res := runScenario(scenario(t, "race"), Full, explore.Config{})
	if !res.Ok() {
		t.Fatalf("violations (%d), first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the proof is not exhaustive")
	}
	if res.Detected != 0 {
		t.Fatalf("full variant mis-speculated on %d paths", res.Detected)
	}
	if res.Completed != res.Paths {
		t.Fatalf("completed %d of %d paths", res.Completed, res.Paths)
	}
	if res.Flagged == 0 {
		t.Fatal("no path exercised the writeback race; the scenario proves nothing")
	}
	t.Logf("full: %d paths (+%d sleep-cut, +%d visited-cut), race on %d",
		res.Paths, res.SleepCut, res.VisitedCut, res.Flagged)
}

// TestExploreSpecDetectsAllViolations is the framework's feature (2)
// within explored bounds: under every interleaving the spec protocol
// either completes correctly or stops at its designated detection —
// never a third outcome (silent corruption, unspecified transition
// panic, or stuck protocol).
func TestExploreSpecDetectsAllViolations(t *testing.T) {
	res := runScenario(scenario(t, "race"), Spec, explore.Config{})
	if !res.Ok() {
		t.Fatalf("violations (%d), first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the proof is not exhaustive")
	}
	if res.Detected == 0 {
		t.Fatal("no interleaving triggered the race; exploration proves nothing")
	}
	if res.Completed+res.Detected != res.Paths {
		t.Fatalf("paths=%d completed=%d detected=%d: unexplained outcomes",
			res.Paths, res.Completed, res.Detected)
	}
	t.Logf("spec: %d paths — %d completed, %d detected", res.Paths, res.Completed, res.Detected)
}

// TestExploreThreeBlocksFourNodes is the scaled proof the engine
// exists for: both variants verified exhaustively on a 3-block,
// 4-active-node scenario with overlapping writeback races — beyond
// what full enumeration could finish. It pins the exact counts, so it
// is also the golden of race-3x4, the one scenario the cmd/verify
// goldens leave out for time.
func TestExploreThreeBlocksFourNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3x4 proof runs in the full test step; -short (race) covers the smaller scenarios")
	}
	type counts struct {
		paths, completed, detected, sleepCut, visitedCut, flagged int
		transitions, replayed                                     uint64
	}
	want := map[Variant]counts{
		Full: {paths: 129, completed: 129, sleepCut: 1149, visitedCut: 24937, flagged: 34,
			transitions: 49293, replayed: 433477},
		Spec: {paths: 364, completed: 129, detected: 235, sleepCut: 903, visitedCut: 20347, flagged: 34,
			transitions: 41196, replayed: 342280},
	}
	sc := scenario(t, "race-3x4")
	for _, v := range []Variant{Full, Spec} {
		res := runScenario(sc, v, explore.Config{})
		if !res.Ok() {
			t.Fatalf("%s: violations (%d), first: %s", v, len(res.Violations), res.Violations[0])
		}
		if res.Truncated {
			t.Fatalf("%s: truncated; the proof is not exhaustive", v)
		}
		got := counts{res.Paths, res.Completed, res.Detected, res.SleepCut, res.VisitedCut,
			res.Flagged, res.Transitions, res.Replayed}
		if got != want[v] {
			t.Fatalf("%s 3x4 counts moved:\n got %+v\nwant %+v", v, got, want[v])
		}
		t.Logf("%s 3x4: %d paths, %d detected, cuts %d+%d, %d transitions",
			v, res.Paths, res.Detected, res.SleepCut, res.VisitedCut, res.Transitions)
	}
}

// TestExploreImpreciseSharerOverflow drives the PR-3 Dir_i_B overflow
// machinery through exhaustive exploration: a 1-pointer entry
// overflows to broadcast on the second sharer, so the storer's
// invalidation fan-out is imprecise (targets that never shared, and —
// through eviction races — invalidations landing on writeback TBEs).
// Every interleaving must still complete with intact invariants.
func TestExploreImpreciseSharerOverflow(t *testing.T) {
	sc := scenario(t, "sharer-overflow")
	for _, v := range []Variant{Full, Spec} {
		res := runScenario(sc, v, explore.Config{})
		if !res.Ok() {
			t.Fatalf("%s: %s", v, res.Violations[0])
		}
		if res.Truncated {
			t.Fatalf("%s: truncated", v)
		}
		t.Logf("%s overflow: %d paths, %d detected", v, res.Paths, res.Detected)

		// The scenario must actually overflow: replay one canonical
		// path on a bare model and observe the counter.
		m := NewModel(sc, v)().(*dirModel)
		m.Reset()
		for {
			tr := m.Enabled(nil)
			if len(tr) == 0 {
				break
			}
			delivered := false
			for _, c := range tr {
				if m.Take(c.ID) != explore.Blocked {
					delivered = true
					break
				}
			}
			if !delivered {
				t.Fatal("probe run wedged")
			}
		}
		if m.p.Stats().SharerOverflows.Value() == 0 {
			t.Fatalf("%s: scenario never overflowed the 1-pointer entry", v)
		}
	}
}

// overflowProbe counts the terminal states at which a detection fired
// while a limited-pointer entry was overflowed to broadcast.
type overflowProbe struct {
	*dirModel
	hits *int
}

func (o overflowProbe) Finish() explore.PathOutcome {
	out := o.dirModel.Finish()
	if out.Status == explore.StatusDetected {
		for _, d := range o.p.dirs {
			for _, ent := range d.entries {
				if ent.sharers.over {
					*o.hits++
					return out
				}
			}
		}
	}
	return out
}

// TestExploreOverflowDuringRecovery model-checks a Dir_1_B overflow
// with a recovery in flight: the Full variant never detects, and the
// Spec variant detects on some interleaving while an overflowed entry
// is live, so the model's check that the recovery leaves no
// transaction behind covers the imprecise-sharer paths too.
func TestExploreOverflowDuringRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive overflow-race proof runs in the full test step; -short (race) covers the smaller scenarios")
	}
	sc := scenario(t, "overflow-race")
	for _, v := range []Variant{Full, Spec} {
		hits := 0
		newModel := NewModel(sc, v)
		res := explore.Run(explore.Config{
			NewModel: func() explore.Model { return overflowProbe{newModel().(*dirModel), &hits} },
		})
		if !res.Ok() {
			t.Fatalf("%s: violations (%d), first: %s", v, len(res.Violations), res.Violations[0])
		}
		if res.Truncated {
			t.Fatalf("%s: truncated; the proof is not exhaustive", v)
		}
		switch v {
		case Full:
			if res.Detected != 0 {
				t.Fatalf("full variant mis-speculated on %d paths", res.Detected)
			}
			if res.Flagged == 0 {
				t.Fatal("scenario never reached the writeback race")
			}
		case Spec:
			if res.Detected == 0 {
				t.Fatal("spec variant never detected; scenario proves nothing")
			}
			if hits == 0 {
				t.Fatal("no detection fired with an overflowed entry live")
			}
		}
		t.Logf("%s: %d paths, %d detected (%d with an overflowed entry live)", v, res.Paths, res.Detected, hits)
	}
}

// TestExploreSharingScenario explores a read-share/invalidate scenario
// with no writebacks: both variants must complete every interleaving
// with zero detections.
func TestExploreSharingScenario(t *testing.T) {
	for _, v := range []Variant{Full, Spec} {
		res := runScenario(scenario(t, "share-invalidate"), v, explore.Config{})
		if !res.Ok() {
			t.Fatalf("%s: %s", v, res.Violations[0])
		}
		if res.Detected != 0 {
			t.Fatalf("%s: detections in a race-free scenario", v)
		}
		t.Logf("%s sharing: %d paths verified", v, res.Paths)
	}
}

// TestExploreUpgradeScenario explores competing upgrades from S.
func TestExploreUpgradeScenario(t *testing.T) {
	res := runScenario(scenario(t, "upgrade-race"), Full, explore.Config{})
	if !res.Ok() {
		t.Fatalf("%s", res.Violations[0])
	}
	t.Logf("upgrades: %d paths verified", res.Paths)
}

// TestExploreModeEquivalence: full enumeration and sleep sets + dedup
// must reach exactly the same terminal states on a scenario
// small enough to enumerate — the protocol-level soundness check of
// the reductions (the independence relation could be wrong in ways
// toy models never exercise).
func TestExploreModeEquivalence(t *testing.T) {
	// The eviction chain (A, B, C through a 2-frame L2) puts a
	// writeback of A in flight against node 1's store, so detection
	// paths — where a delivery clears every in-flight queue at once,
	// the hardest case for the commutation assumption — are part of
	// the compared terminal sets (Spec detects on 64 paths here under
	// full enumeration).
	sc := Scenario{Scenario: explore.Scenario{Name: "evict-race", Nodes: 3, Script: [][]explore.Op{
		0: {st(blkA), st(blkB), st(blkC)},
		1: {st(blkA)},
	}}}
	sawDetection := false
	terminals := map[string][]explore.Digest{}
	for _, m := range []struct {
		name   string
		reduce explore.Reduction
	}{
		{"none", explore.ReduceNone},
		{"sleep", explore.ReduceSleep},
	} {
		res := runScenario(sc, Spec, explore.Config{Reduction: m.reduce, CollectTerminals: true})
		if !res.Ok() {
			t.Fatalf("%s: %s", m.name, res.Violations[0])
		}
		if res.Truncated {
			t.Fatalf("%s: truncated", m.name)
		}
		if res.Detected > 0 {
			sawDetection = true
		}
		var keys []explore.Digest
		for d := range res.Terminals {
			keys = append(keys, d)
		}
		sortDigests(keys)
		terminals[m.name] = keys
		t.Logf("%s: %d paths (%d detected), %d distinct terminal states",
			m.name, res.Paths, res.Detected, len(keys))
	}
	if !sawDetection {
		t.Fatal("scenario never detected: equivalence does not cover detection paths")
	}
	if !reflect.DeepEqual(terminals["none"], terminals["sleep"]) {
		t.Fatalf("sleep reduction lost terminal states: %d vs %d",
			len(terminals["sleep"]), len(terminals["none"]))
	}
}

// TestExploreReductionRatio pins the acceptance bar: on the race
// script, sleep sets + state dedup explore at least 10x fewer
// interleavings than full enumeration.
func TestExploreReductionRatio(t *testing.T) {
	sc := scenario(t, "race")
	full := runScenario(sc, Spec, explore.Config{Reduction: explore.ReduceNone, MaxPaths: 60_000})
	fullPaths := full.Paths // a lower bound when truncated
	res := runScenario(sc, Spec, explore.Config{})
	if !res.Ok() {
		t.Fatalf("sleep+dedup: %s", res.Violations[0])
	}
	if res.Truncated {
		t.Fatal("sleep+dedup: truncated")
	}
	if res.Paths*10 > fullPaths {
		t.Fatalf("sleep+dedup explored %d paths vs >=%d full enumeration: less than 10x",
			res.Paths, fullPaths)
	}
	t.Logf("sleep+dedup: %d paths vs >=%d full (%.0fx, truncated-full=%v)",
		res.Paths, fullPaths, float64(fullPaths)/float64(res.Paths), full.Truncated)
}

func sortDigests(ds []explore.Digest) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func less(a, b explore.Digest) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}
