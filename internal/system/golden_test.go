package system

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden")

// goldenCase is one pinned run: a 4×4 machine driven for 60k cycles in
// three uneven Run calls, with an optional sanity check that the case
// still exercises the machinery it is named for.
type goldenCase struct {
	name  string
	cfg   Config
	check func(Results) error
}

// goldenCases spans every global-control path of both engines: periodic
// checkpoints with the watchdog, injected recoveries and reorder
// injection on every kind; fixed and adaptive log stalls; the three
// sustained fault regimes; a simplified-network deadlock the watchdog
// breaks; and a snooping machine whose watchdog fires every scan.
func goldenCases() []goldenCase {
	needRecoveries := func(r Results) error {
		if r.Recoveries == 0 || r.Checkpoints < 2 {
			return fmt.Errorf("recoveries=%d checkpoints=%d", r.Recoveries, r.Checkpoints)
		}
		return nil
	}
	needStall := func(r Results) error {
		if r.LogStallCycles == 0 || r.LogOverflows == 0 {
			return fmt.Errorf("log stall cycles=%d overflows=%d", r.LogStallCycles, r.LogOverflows)
		}
		return nil
	}
	needTimeouts := func(r Results) error {
		if r.Timeouts == 0 || r.RecoveryReasons["deadlock-timeout"] == 0 {
			return fmt.Errorf("timeouts=%d reasons=%v", r.Timeouts, r.RecoveryReasons)
		}
		return nil
	}

	var cases []goldenCase
	for _, kind := range []Kind{DirectorySpec, DirectoryFull, SnoopSpec, SnoopFull} {
		cfg := shardedBase(kind, workload.OLTP, 4, 4)
		if !kind.IsDirectory() {
			cfg.SnoopCheckpointRequests = 300
		}
		shards := []int{0}
		if kind.IsDirectory() {
			shards = []int{0, 1, 2}
		}
		for _, n := range shards {
			c := cfg
			c.Shards = n
			cases = append(cases, goldenCase{fmt.Sprintf("%s/base/s%d", kind, n), c, needRecoveries})
		}
	}
	for _, n := range []int{0, 1} {
		fixed := DefaultConfigSized(DirectorySpec, workload.OLTP, 4, 4)
		fixed.CheckpointInterval = 2_000
		fixed.TimeoutCycles = 0
		fixed.LogBytes = 6 * 72
		fixed.Shards = n
		cases = append(cases, goldenCase{fmt.Sprintf("log-stall-fixed/s%d", n), fixed, needStall})

		adaptive := fixed
		adaptive.LogBytes = 12 * 72
		adaptive.AdaptiveCheckpoint = true
		cases = append(cases, goldenCase{fmt.Sprintf("log-stall-adaptive/s%d", n), adaptive, func(r Results) error {
			if err := needStall(r); err != nil {
				return err
			}
			if r.CheckpointIntervalFinal >= 2_000 {
				return fmt.Errorf("cadence never tightened: final interval %d", r.CheckpointIntervalFinal)
			}
			return nil
		}})

		for _, regime := range []FaultRegime{FaultStorm, FaultRegional, FaultRepeat} {
			c := regimeBase(regime)
			c.FaultRate = 8 // a fault every ~7.5k cycles: recoveries, and progress between them
			c.Shards = n
			cases = append(cases, goldenCase{fmt.Sprintf("regime-%s/s%d", regime, n), c, needRecoveries})
		}
	}

	// Protocol-detected ordering violations are rare even under reorder
	// injection; each engine gets a delay under which one lands inside
	// the run (two tiles equal one, so s2 shares s1's delay).
	for n, delay := range []sim.Time{1_000, 500, 500} {
		c := DefaultConfig(DirectorySpec, workload.OLTP)
		c.CheckpointInterval = 2_000
		c.TimeoutCycles = 0
		c.ReorderInjectProb = 0.3
		c.ReorderInjectDelay = delay
		c.SlowStartWindow = 5_000
		c.L2Bytes, c.L2Ways = 16*64, 2
		c.L1Bytes, c.L1Ways = 2*64, 1
		c.Shards = n
		cases = append(cases, goldenCase{fmt.Sprintf("p2p-detection/s%d", n), c, func(r Results) error {
			if r.RecoveryReasons["p2p-ordering"] == 0 {
				return fmt.Errorf("no ordering-violation recoveries: %v", r.RecoveryReasons)
			}
			return nil
		}})
	}

	deadlock := DefaultConfig(DirectorySpec, workload.Hotspot)
	deadlock.Net = network.SimplifiedConfig(4, 4, 0.8, 2)
	deadlock.CheckpointInterval = 2_000
	deadlock.TimeoutCycles = 3 * deadlock.CheckpointInterval
	deadlock.SlowStartWindow = 5_000
	cases = append(cases, goldenCase{"simplified-net-deadlock/s0", deadlock, needTimeouts})

	snoopTimeout := DefaultConfig(SnoopSpec, workload.OLTP)
	snoopTimeout.CheckpointInterval = 2_000
	snoopTimeout.TimeoutCycles = 60
	cases = append(cases, goldenCase{"snoop-timeout-60/s0", snoopTimeout, needTimeouts})
	return cases
}

// runGoldenCase builds and starts the machine, then runs it for 60k
// cycles in three uneven chunks (the call pattern is part of the tiled
// schedule, so it is pinned too).
func runGoldenCase(t *testing.T, gc goldenCase) Results {
	t.Helper()
	s, err := BuildChecked(gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	s.Start()
	s.Run(20_000)
	s.Run(17_000)
	return s.Run(23_000)
}

// integerFields renders every integer field of r, recursing into
// structs and rendering maps in sorted key order; floats, strings and
// float slices are left out, so the rendering pins exact counts only.
func integerFields(r Results) string {
	var b strings.Builder
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fmt.Fprintf(&b, "%s=%d\n", prefix, v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fmt.Fprintf(&b, "%s=%d\n", prefix, v.Uint())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(prefix+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Map:
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			for _, k := range keys {
				walk(prefix+"["+k.String()+"]", v.MapIndex(k))
			}
		}
	}
	walk("Results", reflect.ValueOf(r))
	return b.String()
}

// TestResultsGolden pins the exact integer results of every golden case:
// one line per case with its instruction and recovery counts and a
// digest of every integer field. Control-plane refactors must leave it
// byte-identical; `go test -run ResultsGolden -update ./internal/system`
// regenerates it for a deliberate schedule change.
func TestResultsGolden(t *testing.T) {
	var b strings.Builder
	fields := map[string]string{}
	for _, gc := range goldenCases() {
		r := runGoldenCase(t, gc)
		if gc.check != nil {
			if err := gc.check(r); err != nil {
				t.Errorf("%s no longer exercises its path: %v", gc.name, err)
			}
		}
		f := integerFields(r)
		fields[gc.name] = f
		fmt.Fprintf(&b, "%s instructions=%d recoveries=%d sha256=%x\n",
			gc.name, r.Instructions, r.Recoveries, sha256.Sum256([]byte(f)))
	}
	got := b.String()
	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run ResultsGolden -update ./internal/system`): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantLines[strings.SplitN(l, " ", 2)[0]] = l
	}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		name := strings.SplitN(l, " ", 2)[0]
		if wantLines[name] != l {
			t.Errorf("%s changed:\n got: %s\nwant: %s\nfields:\n%s", name, l, wantLines[name], fields[name])
		}
		delete(wantLines, name)
	}
	var gone []string
	for name := range wantLines {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf("golden case %s is no longer run", name)
	}
}
