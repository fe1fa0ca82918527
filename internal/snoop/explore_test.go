package snoop

import (
	"reflect"
	"testing"

	"specsimp/internal/explore"
)

// scenario returns the named entry of Scenarios.
func scenario(t *testing.T, name string) explore.Scenario {
	t.Helper()
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no snooping scenario %q", name)
	return explore.Scenario{}
}

// runScenario explores sc's model for variant v under cfg.
func runScenario(sc explore.Scenario, v Variant, cfg explore.Config) explore.Result {
	cfg.NewModel = NewModel(sc, v)
	return explore.Run(cfg)
}

// TestSnoopExploreSpecDetectsEverywhere is the core claim at the
// scaled bound: under *every* explored order (address-network
// arbitration × data delivery) on 3 blocks × 4 nodes, the
// speculatively simplified snooping protocol either completes with
// intact invariants or detects the corner case — never a third
// outcome (silent corruption, unspecified-transition panic, or a
// stuck protocol).
func TestSnoopExploreSpecDetectsEverywhere(t *testing.T) {
	res := runScenario(scenario(t, "corner-3x4"), Spec, explore.Config{})
	if !res.Ok() {
		t.Fatalf("violations (%d), first: %s", len(res.Violations), res.Violations[0])
	}
	if res.Truncated {
		t.Fatal("exploration truncated; the proof is not exhaustive")
	}
	if res.Detected == 0 {
		t.Fatal("no interleaving triggered the corner case; exploration proves nothing")
	}
	if res.Completed+res.Detected != res.Paths {
		t.Fatalf("paths=%d completed=%d detected=%d: unexplained outcomes",
			res.Paths, res.Completed, res.Detected)
	}
	t.Logf("spec 3x4: %d paths — %d completed, %d detected, cuts %d+%d",
		res.Paths, res.Completed, res.Detected, res.SleepCut, res.VisitedCut)
}

// TestSnoopExploreFullHandlesCornerEverywhere: the fully designed
// protocol absorbs the same corner case through its specified no-op on
// every interleaving — and the exploration must actually reach it
// (Flagged > 0), otherwise the Spec result above proves nothing.
func TestSnoopExploreFullHandlesCornerEverywhere(t *testing.T) {
	res := runScenario(scenario(t, "corner-3x4"), Full, explore.Config{})
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
		t.Fatal("no interleaving exercised the specified corner transition")
	}
	t.Logf("full 3x4: %d paths verified, corner handled on %d, cuts %d+%d",
		res.Paths, res.Flagged, res.SleepCut, res.VisitedCut)
}

// TestSnoopExploreSharingScenario explores a writeback-free read-share/
// invalidate scenario at 4 nodes: both variants complete every
// interleaving with zero detections.
func TestSnoopExploreSharingScenario(t *testing.T) {
	for _, v := range []Variant{Full, Spec} {
		res := runScenario(scenario(t, "share-invalidate"), v, explore.Config{})
		if !res.Ok() {
			t.Fatalf("%s: %s", v, res.Violations[0])
		}
		if res.Detected != 0 {
			t.Fatalf("%s: detections in a corner-free scenario", v)
		}
		t.Logf("%s sharing: %d paths verified", v, res.Paths)
	}
}

// TestSnoopExploreModeEquivalence: both reduction modes reach the same
// terminal states on the enumerable 2-block corner scenario —
// the protocol-level soundness check of the independence relation
// (bus grants global, data deliveries per-cache).
func TestSnoopExploreModeEquivalence(t *testing.T) {
	terminals := map[string][]explore.Digest{}
	for _, m := range []struct {
		name   string
		reduce explore.Reduction
	}{
		{"none", explore.ReduceNone},
		{"sleep", explore.ReduceSleep},
	} {
		res := runScenario(scenario(t, "corner"), Spec, explore.Config{Reduction: m.reduce, CollectTerminals: true})
		if !res.Ok() {
			t.Fatalf("%s: %s", m.name, res.Violations[0])
		}
		if res.Truncated {
			t.Fatalf("%s: truncated", m.name)
		}
		var keys []explore.Digest
		for d := range res.Terminals {
			keys = append(keys, d)
		}
		sortSnoopDigests(keys)
		terminals[m.name] = keys
		t.Logf("%s: %d paths, %d distinct terminal states", m.name, res.Paths, len(keys))
	}
	if !reflect.DeepEqual(terminals["none"], terminals["sleep"]) {
		t.Fatalf("sleep reduction lost terminal states: %d vs %d",
			len(terminals["sleep"]), len(terminals["none"]))
	}
}

// TestSnoopExploreReductionRatio pins the acceptance bar on the
// 2-block corner script: the default reduction (sleep sets + state
// dedup) explores at least 10x fewer interleavings than full
// enumeration. Commutation alone helps little here — the snooping
// address network is a totally ordered broadcast, so every pair of bus
// grants is dependent and sleep sets have only the data deliveries to
// work with; it is the state-hash dedup that collapses the grant
// orders (17 paths against 182 under full enumeration).
func TestSnoopExploreReductionRatio(t *testing.T) {
	sc := scenario(t, "corner")
	full := runScenario(sc, Spec, explore.Config{Reduction: explore.ReduceNone, MaxPaths: 60_000})
	if full.Truncated {
		t.Fatalf("baseline truncated at %d paths", full.Paths)
	}
	def := runScenario(sc, Spec, explore.Config{})
	if !def.Ok() || def.Truncated {
		t.Fatalf("default mode: %+v", def)
	}
	if def.Paths*10 > full.Paths {
		t.Fatalf("default reduction explored %d paths vs %d full enumeration: less than 10x",
			def.Paths, full.Paths)
	}
	t.Logf("full=%d default=%d (%.0fx)", full.Paths,
		def.Paths, float64(full.Paths)/float64(def.Paths))
}

func sortSnoopDigests(ds []explore.Digest) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && snoopDigestLess(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func snoopDigestLess(a, b explore.Digest) bool {
	return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
}
