package snoop

import (
	"testing"
	"testing/quick"

	"specsimp/internal/coherence"
	"specsimp/internal/mem"
	"specsimp/internal/network"
	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
)

const (
	blkA = coherence.Addr(0)
	blkB = coherence.Addr(4 * 64)
	blkC = coherence.Addr(8 * 64)
)

func build(t *testing.T, v Variant, nodes int) (*sim.Kernel, *Protocol) {
	t.Helper()
	k := sim.NewKernel()
	p, _ := buildOn(k, v, nodes, nil)
	return k, p
}

// buildOn builds a protocol with tiny caches on k, logging to log, and
// returns it with its data network.
func buildOn(k *sim.Kernel, v Variant, nodes int, log mem.UndoLogger) (*Protocol, *network.Network) {
	side := 2
	if nodes == 16 {
		side = 4
	}
	data := network.New(k, network.SafeStaticConfig(side, nodes/side, 0.8))
	bus := NewBus(k, DefaultBusConfig(nodes))
	cfg := DefaultConfig(nodes, v)
	cfg.L2Bytes, cfg.L2Ways = 2*64, 2 // tiny: evictions on demand
	cfg.L1Bytes, cfg.L1Ways = 64, 1
	return New(k, bus, data, cfg, log), data
}

func run(t *testing.T, k *sim.Kernel, p *Protocol, node coherence.NodeID, a coherence.Addr, kind coherence.AccessType) {
	t.Helper()
	ok := false
	p.Access(node, a, kind, func() { ok = true })
	if !k.Drain(10_000_000) {
		t.Fatal("kernel did not quiesce")
	}
	if !ok {
		t.Fatalf("access node=%d addr=%#x never completed", node, uint64(a))
	}
}

func TestSnoopLoadFromMemory(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Load)
	if st := p.CacheState(1, blkA); st != SS {
		t.Fatalf("state=%s want S", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopStoreAndUpgrade(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store)
	if st := p.CacheState(1, blkA); st != SM {
		t.Fatalf("state=%s want M", st)
	}
	if v := p.BlockVersion(blkA); v != 1 {
		t.Fatalf("version=%d want 1", v)
	}
	run(t, k, p, 2, blkA, coherence.Load) // owner supplies; M->O
	if st := p.CacheState(1, blkA); st != SO {
		t.Fatalf("owner state=%s want O", st)
	}
	run(t, k, p, 1, blkA, coherence.Store) // O upgrade at own order
	if st := p.CacheState(1, blkA); st != SM {
		t.Fatalf("state=%s want M after upgrade", st)
	}
	if st := p.CacheState(2, blkA); st != SI {
		t.Fatalf("old sharer=%s want I", st)
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopOwnershipChain(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 0, blkA, coherence.Store)
	run(t, k, p, 1, blkA, coherence.Store)
	run(t, k, p, 2, blkA, coherence.Store)
	run(t, k, p, 3, blkA, coherence.Store)
	if v := p.BlockVersion(blkA); v != 4 {
		t.Fatalf("version=%d want 4 (no lost update)", v)
	}
	for n := coherence.NodeID(0); n < 3; n++ {
		if st := p.CacheState(n, blkA); st != SI {
			t.Fatalf("node %d state=%s want I", n, st)
		}
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopWritebackUpdatesMemory(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store)
	if !p.Flush(1, blkA) {
		t.Fatal("flush refused")
	}
	k.Drain(10_000_000)
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory=%d want 1", v)
	}
	if st := p.CacheState(1, blkA); st != SI {
		t.Fatalf("state=%s want I after writeback", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReaccessDuringWritebackParks: a node's access to the block it is
// writing back waits for the writeback to be ordered, then completes.
func TestReaccessDuringWritebackParks(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store)
	if !p.Flush(1, blkA) {
		t.Fatal("flush refused")
	}
	done := false
	p.Access(1, blkA, coherence.Load, func() { done = true })
	if n := len(p.caches[1].Parked()); n != 1 {
		t.Fatalf("%d parked accesses want 1", n)
	}
	if n := p.InFlight(); n != 2 {
		t.Fatalf("InFlight=%d want 2 (the writeback and the parked load)", n)
	}
	if st := p.CacheState(1, blkA); st != SWBa {
		t.Fatalf("node1=%s want WB_A", st)
	}
	k.Drain(10_000_000)
	if !done {
		t.Fatal("parked access never completed")
	}
	if n := p.InFlight(); n != 0 {
		t.Fatalf("InFlight=%d want 0", n)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopEvictionWriteback(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store)
	run(t, k, p, 1, blkB, coherence.Store)
	run(t, k, p, 1, blkC, coherence.Store) // evicts A
	if p.Stats().Writebacks.Value() == 0 {
		t.Fatal("no writeback on eviction")
	}
	k.Drain(10_000_000)
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory=%d want 1 after eviction writeback", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// raceSetup drives the system to the §3.2 corner: node1 owns A and
// issues a PutM; two foreign GetMs are ordered ahead of it.
func raceSetup(t *testing.T, v Variant) (*sim.Kernel, *Protocol, *int) {
	k, p := build(t, v, 4)
	run(t, k, p, 1, blkA, coherence.Store) // node1: M
	return k, p, race(t, k, p)
}

// race submits the stores of nodes 2 and 3 to A, which node1 owns in
// M, and node1's writeback of A, in that bus order. It returns the
// count of the stores' completions.
func race(t *testing.T, k *sim.Kernel, p *Protocol) *int {
	t.Helper()
	completions := new(int)
	done := func() { *completions++ }
	// Submission order = bus order: GetM(2), GetM(3), PutM(1). The
	// PutM is submitted before node1 observes GetM(2) (delivery takes
	// 25 cycles), so node1 is in WB_A when the race unfolds.
	p.Access(2, blkA, coherence.Store, done)
	p.Access(3, blkA, coherence.Store, done)
	k.Run(k.Now() + 1)
	if !p.Flush(1, blkA) {
		t.Fatal("flush refused; race setup broken")
	}
	if st := p.CacheState(1, blkA); st != SWBa {
		t.Fatalf("node1=%s want WB_A", st)
	}
	return completions
}

// recoveringRace runs race under Spec on a protocol with a SafetyNet
// log, checkpointed at quiescence after node1's store, and recovers
// from the detection as the system does: it rolls the machine back to
// that checkpoint, resets the data network, the transients and the
// bus, and re-issues the stores of nodes 2 and 3, which the recovery
// dropped. It drains the kernel and returns the detection reasons and
// the count of the re-issued stores that completed.
func recoveringRace(t *testing.T) (*sim.Kernel, *Protocol, *[]string, *int) {
	t.Helper()
	k := sim.NewKernel()
	cfg := safetynet.DefaultConfig(4, 1_000)
	cfg.ValidationWindow = 0 // the recovery point is the newest checkpoint
	mgr := safetynet.NewManager(k, cfg)
	p, data := buildOn(k, Spec, 4, mgr)
	mgr.TakeCheckpoint(nil) // the empty machine: logging needs a checkpoint
	run(t, k, p, 1, blkA, coherence.Store)
	mgr.TakeCheckpoint(nil)
	race(t, k, p)
	reasons, stores := new([]string), new(int)
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) {
		*reasons = append(*reasons, r)
		mgr.Recover()
		data.Reset()
		p.ResetTransients()
		p.bus.Reset()
		for _, n := range []coherence.NodeID{2, 3} {
			k.After(1, func() { p.Access(n, blkA, coherence.Store, func() { *stores++ }) })
		}
	}
	if !k.Drain(10_000_000) {
		t.Fatal("kernel did not quiesce")
	}
	return k, p, reasons, stores
}

func TestSnoopCornerCaseFullHandles(t *testing.T) {
	k, p, completions := raceSetup(t, Full)
	if !k.Drain(10_000_000) {
		t.Fatal("did not quiesce")
	}
	if *completions != 2 {
		t.Fatalf("completions=%d want 2", *completions)
	}
	if p.Stats().CornerHandled.Value() != 1 {
		t.Fatalf("CornerHandled=%d want 1", p.Stats().CornerHandled.Value())
	}
	// node1's v1, node2's store (v2), node3's store (v3).
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3", v)
	}
	if st := p.CacheState(3, blkA); st != SM {
		t.Fatalf("node3=%s want M", st)
	}
	if p.Stats().ObligationsServed.Value() == 0 {
		t.Fatal("node2 should have served node3 via an obligation")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopCornerCaseSpecDetects(t *testing.T) {
	_, p, reasons, stores := recoveringRace(t)
	if len(*reasons) != 1 || (*reasons)[0] != "snoop-corner" {
		t.Fatalf("reasons=%v want [snoop-corner]", *reasons)
	}
	if p.Stats().CornerDetected.Value() != 1 {
		t.Fatalf("CornerDetected=%d want 1", p.Stats().CornerDetected.Value())
	}
	if *stores != 2 {
		t.Fatalf("%d of the 2 re-issued stores completed", *stores)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopCornerRequiresTwoOutstanding(t *testing.T) {
	// With only one foreign GetM racing the writeback the Spec variant
	// must not mis-speculate — this is the property slow-start exploits
	// (limit outstanding transactions to 1 and the corner cannot recur).
	k, p := build(t, Spec, 4)
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) { t.Fatalf("unexpected mis-speculation %q", r) }
	run(t, k, p, 1, blkA, coherence.Store)
	done := 0
	p.Access(2, blkA, coherence.Store, func() { done++ })
	k.Run(k.Now() + 1)
	if !p.Flush(1, blkA) {
		t.Fatal("flush refused")
	}
	k.Drain(10_000_000)
	if done != 1 {
		t.Fatal("node2's store never completed")
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopDoomedLoad(t *testing.T) {
	// A load whose S copy is invalidated (in bus order) before its data
	// arrives must still complete, without installing the dead line.
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store) // owner far away: slow supply path
	loaded := false
	p.Access(2, blkA, coherence.Load, func() { loaded = true })
	// Order a foreign GetM right behind the GetS.
	stored := false
	p.Access(3, blkA, coherence.Store, func() { stored = true })
	k.Drain(10_000_000)
	if !loaded || !stored {
		t.Fatalf("loaded=%v stored=%v", loaded, stored)
	}
	if st := p.CacheState(2, blkA); st != SI && st != SS {
		t.Fatalf("node2=%s want I (doomed) or S (raced ahead)", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnoopComplexityCounts(t *testing.T) {
	full, spec := ComplexityOf(Full), ComplexityOf(Spec)
	if spec.Transitions != full.Transitions-1 {
		t.Fatalf("spec transitions=%d full=%d; exactly the corner case should differ", spec.Transitions, full.Transitions)
	}
}

// runSnoopStress mirrors the directory stress harness.
func runSnoopStress(t *testing.T, v Variant, seed uint64, opsPerNode, nblocks int, storeFrac float64) (*Protocol, map[coherence.Addr]int, int) {
	t.Helper()
	k, p := build(t, v, 16)
	stores := map[coherence.Addr]int{}
	completed := 0
	for n := 0; n < 16; n++ {
		n := n
		r := sim.NewRNG(seed*977 + uint64(n))
		remaining := opsPerNode
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			a := coherence.Addr(r.Intn(nblocks) * 64)
			kind := coherence.Load
			if r.Bool(storeFrac) {
				kind = coherence.Store
				stores[a]++
			}
			p.Access(coherence.NodeID(n), a, kind, func() {
				completed++
				k.After(sim.Time(r.Intn(40)), issue)
			})
		}
		k.At(sim.Time(r.Intn(60)), issue)
	}
	if !k.Drain(300_000_000) {
		t.Fatal("stress did not quiesce")
	}
	return p, stores, completed
}

func TestSnoopStressFull(t *testing.T) {
	p, stores, completed := runSnoopStress(t, Full, 1, 120, 20, 0.5)
	if completed != 120*16 {
		t.Fatalf("completed=%d want %d", completed, 120*16)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	for a, n := range stores {
		if got := p.BlockVersion(a); got != uint64(n) {
			t.Fatalf("block %#x version=%d want %d", uint64(a), got, n)
		}
	}
}

func TestSnoopStressHotBlock(t *testing.T) {
	p, stores, completed := runSnoopStress(t, Full, 2, 60, 1, 1.0)
	if completed != 60*16 {
		t.Fatalf("completed=%d", completed)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.BlockVersion(0); got != uint64(stores[0]) {
		t.Fatalf("hot block version=%d want %d", got, stores[0])
	}
}

// Property: randomized snooping runs preserve every store (Full).
func TestSnoopStressProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		p, stores, completed := runSnoopStress(t, Full, seed%500, 50, 12, 0.5)
		if completed != 50*16 {
			return false
		}
		if err := p.AuditInvariants(); err != nil {
			t.Log(err)
			return false
		}
		for a, n := range stores {
			if p.BlockVersion(a) != uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestSnoopTimeoutWatchdog: the deadlock watchdog's scan reports a load
// whose data never arrives once it has been outstanding longer than
// TimeoutCycles — not before, and not after a recovery reset clears it.
func TestSnoopTimeoutWatchdog(t *testing.T) {
	k := sim.NewKernel()
	// A data fabric that drops everything: loads never complete.
	data := &blackholeFabric{nodes: 4}
	bus := NewBus(k, DefaultBusConfig(4))
	cfg := DefaultConfig(4, Spec)
	cfg.TimeoutCycles = 5000
	p := New(k, bus, data, cfg, nil)
	p.Access(1, blkA, coherence.Load, func() {})
	k.Run(1_000)
	if node, ok := p.TimeoutScan(); ok {
		t.Fatalf("scan reported node %d before TimeoutCycles elapsed", node)
	}
	k.Run(20_000)
	if node, ok := p.TimeoutScan(); !ok || node != 1 {
		t.Fatalf("scan = (%d, %v), want node 1 timed out", node, ok)
	}
	p.NoteTimeout()
	if p.Stats().TimeoutsDetected.Value() != 1 {
		t.Fatal("timeout counter not bumped")
	}
	p.ResetTransients()
	if node, ok := p.TimeoutScan(); ok {
		t.Fatalf("scan still reports node %d after the reset", node)
	}
}

type blackholeFabric struct {
	nodes   int
	clients []network.Client
}

func (f *blackholeFabric) Send(*network.Message)                       {}
func (f *blackholeFabric) Kick(network.NodeID)                         {}
func (f *blackholeFabric) AttachClient(network.NodeID, network.Client) {}
func (f *blackholeFabric) NumNodes() int                               { return f.nodes }
