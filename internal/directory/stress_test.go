package directory

import (
	"testing"
	"testing/quick"

	"specsimp/internal/coherence"
	"specsimp/internal/network"
	"specsimp/internal/sim"
)

// stressResult is what one randomized run produces.
type stressResult struct {
	p         *Protocol
	completed int
	issued    int
	stores    map[coherence.Addr]int
}

// runStress drives every node with a random blocking access stream over
// a real network and drains to quiescence — the paper's randomized
// protocol testing (§3: "randomized testing can uncover many bugs").
func runStress(t *testing.T, v Variant, netCfg network.Config, seed uint64, opsPerNode, nblocks int, storeFrac float64) stressResult {
	t.Helper()
	k := sim.NewKernel()
	net := network.New(k, netCfg)
	cfg := DefaultConfig(netCfg.NumNodes(), v)
	// Small caches force evictions and writebacks.
	cfg.L2Bytes, cfg.L2Ways = 8*64, 2
	cfg.L1Bytes, cfg.L1Ways = 2*64, 1
	p := mustNew(t, k, net, cfg)

	res := stressResult{p: p, stores: make(map[coherence.Addr]int)}
	blocks := make([]coherence.Addr, nblocks)
	for i := range blocks {
		blocks[i] = coherence.Addr(i * coherence.BlockBytes)
	}
	nodes := netCfg.NumNodes()
	for n := 0; n < nodes; n++ {
		n := n
		r := sim.NewRNG(seed*1000 + uint64(n))
		var issue func()
		remaining := opsPerNode
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			res.issued++
			a := blocks[r.Intn(len(blocks))]
			kind := coherence.Load
			if r.Bool(storeFrac) {
				kind = coherence.Store
				res.stores[a]++
			}
			p.Access(coherence.NodeID(n), a, kind, func() {
				res.completed++
				k.After(sim.Time(r.Intn(50)), issue)
			})
		}
		k.At(sim.Time(r.Intn(100)), issue)
	}
	if !k.Drain(200_000_000) {
		t.Fatal("stress run did not quiesce")
	}
	return res
}

// verifyStress checks completion, quiescence, invariants, and the
// strongest whole-run property: the final version of every block equals
// the number of completed stores to it (no lost updates under any
// interleaving).
func verifyStress(t *testing.T, res stressResult, opsPerNode, nodes int) {
	t.Helper()
	if res.completed != opsPerNode*nodes {
		t.Fatalf("completed %d of %d accesses", res.completed, opsPerNode*nodes)
	}
	if n := res.p.InFlight(); n != 0 {
		t.Fatalf("%d transactions still in flight", n)
	}
	if err := res.p.AuditInvariants(); err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	for a, n := range res.stores {
		if got := res.p.BlockVersion(a); got != uint64(n) {
			t.Fatalf("block %#x: version %d != %d completed stores (lost update)", uint64(a), got, n)
		}
	}
}

func TestStressFullOnStaticNetwork(t *testing.T) {
	res := runStress(t, Full, network.SafeStaticConfig(4, 4, 0.8), 1, 150, 24, 0.4)
	verifyStress(t, res, 150, 16)
}

func TestStressFullOnAdaptiveNetwork(t *testing.T) {
	// The full protocol must be correct even when the network reorders.
	res := runStress(t, Full, network.AdaptiveConfig(4, 4, 0.8), 2, 150, 24, 0.4)
	verifyStress(t, res, 150, 16)
}

func TestStressSpecOnStaticNetwork(t *testing.T) {
	// With static routing the ordering assumption holds, so the Spec
	// protocol must run to completion with zero mis-speculations (the
	// OnMisSpeculation hook is nil: any detection panics).
	res := runStress(t, Spec, network.SafeStaticConfig(4, 4, 0.8), 3, 150, 24, 0.4)
	verifyStress(t, res, 150, 16)
	if res.p.Stats().OrderViolations.Value() != 0 {
		t.Fatal("order violations on a statically routed network")
	}
}

func TestStressHighContentionSingleBlock(t *testing.T) {
	// All 16 nodes hammer one block with stores: maximal invalidation
	// and ownership-transfer traffic.
	res := runStress(t, Full, network.SafeStaticConfig(4, 4, 0.8), 4, 80, 1, 1.0)
	verifyStress(t, res, 80, 16)
	if got := res.p.BlockVersion(0); got != 16*80 {
		t.Fatalf("single hot block version=%d want %d", got, 16*80)
	}
}

func TestStressWritebackHeavy(t *testing.T) {
	// Many blocks mapping to few sets: constant evictions and racing
	// writebacks (the §3.1 scenario) under the full protocol on an
	// adaptive network.
	res := runStress(t, Full, network.AdaptiveConfig(4, 4, 0.8), 5, 120, 64, 0.7)
	verifyStress(t, res, 120, 16)
	if res.p.Stats().Writebacks.Value() == 0 {
		t.Fatal("writeback-heavy run produced no writebacks")
	}
}

// Property: the full protocol preserves every completed store for
// arbitrary seeds (randomized testing, many interleavings).
func TestStressFullSeedsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		res := runStress(t, Full, network.AdaptiveConfig(4, 4, 0.8), seed%1000, 60, 16, 0.5)
		if res.completed != 60*16 || res.p.InFlight() != 0 {
			return false
		}
		if err := res.p.AuditInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for a, n := range res.stores {
			if res.p.BlockVersion(a) != uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: the spec protocol on a static network is indistinguishable
// from the full protocol (same final versions) for any seed.
func TestStressSpecEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		s := seed % 1000
		a := runStress(t, Full, network.SafeStaticConfig(4, 4, 0.8), s, 50, 12, 0.5)
		b := runStress(t, Spec, network.SafeStaticConfig(4, 4, 0.8), s, 50, 12, 0.5)
		if a.completed != b.completed {
			return false
		}
		for addr := range a.stores {
			if a.p.BlockVersion(addr) != b.p.BlockVersion(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
