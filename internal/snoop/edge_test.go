package snoop

import (
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// TestObligationChain: a requestor whose GetM is ordered queues supply
// obligations for later-ordered requests and serves them when its data
// arrives — first a reader (stays O), then a writer (goes I).
func TestObligationChain(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 0, blkA, coherence.Store) // node0 owns, v1
	var d1, d2, d3 bool
	// Submission order = bus order: node1 GetM, node2 GetS, node3 GetM.
	p.Access(1, blkA, coherence.Store, func() { d1 = true })
	p.Access(2, blkA, coherence.Load, func() { d2 = true })
	p.Access(3, blkA, coherence.Store, func() { d3 = true })
	k.Drain(10_000_000)
	if !d1 || !d2 || !d3 {
		t.Fatalf("completions: %v %v %v", d1, d2, d3)
	}
	// node1's store (v2) read by node2, then node3's store (v3).
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3", v)
	}
	if st := p.CacheState(3, blkA); st != SM {
		t.Fatalf("node3=%s want M", st)
	}
	if st := p.CacheState(1, blkA); st != SI {
		t.Fatalf("node1=%s want I after serving the GetM obligation", st)
	}
	if p.Stats().ObligationsServed.Value() < 2 {
		t.Fatalf("obligations served=%d want >=2", p.Stats().ObligationsServed.Value())
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestObligationQueueClosesAfterGetM: obligations after a foreign GetM
// belong to the new owner, not to us.
func TestObligationQueueClosesAfterGetM(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 0, blkA, coherence.Store)
	var done [4]bool
	p.Access(1, blkA, coherence.Store, func() { done[1] = true })
	p.Access(2, blkA, coherence.Store, func() { done[2] = true }) // closes node1's queue
	p.Access(3, blkA, coherence.Store, func() { done[3] = true }) // node2's obligation
	k.Drain(10_000_000)
	if !done[1] || !done[2] || !done[3] {
		t.Fatalf("completions: %v", done)
	}
	if v := p.BlockVersion(blkA); v != 4 {
		t.Fatalf("version=%d want 4 (four stores)", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerUpgradeAtOrder: an O owner's upgrade completes at its own
// bus order with its own data (no supplier).
func TestOwnerUpgradeAtOrder(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store) // M v1
	run(t, k, p, 2, blkA, coherence.Load)  // node1 -> O
	run(t, k, p, 1, blkA, coherence.Store) // OM_AD -> M at own order
	if st := p.CacheState(1, blkA); st != SM {
		t.Fatalf("state=%s want M", st)
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerUpgradeLosesRace: a foreign GetM ordered ahead of the O
// owner's upgrade takes the data; the upgrade then completes from the
// new owner's supply.
func TestOwnerUpgradeLosesRace(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store) // node1 M v1
	run(t, k, p, 2, blkA, coherence.Load)  // node1 O
	var d1, d3 bool
	p.Access(3, blkA, coherence.Store, func() { d3 = true }) // ordered first
	p.Access(1, blkA, coherence.Store, func() { d1 = true }) // upgrade loses
	k.Drain(10_000_000)
	if !d1 || !d3 {
		t.Fatalf("d1=%v d3=%v", d1, d3)
	}
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3", v)
	}
	if st := p.CacheState(1, blkA); st != SM {
		t.Fatalf("node1=%s want M (its upgrade ordered last)", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackServesReaders: GetS requests ordered before the PutM are
// served by the writing-back owner, which remains responsible until its
// writeback is ordered.
func TestWritebackServesReaders(t *testing.T) {
	k, p := build(t, Full, 4)
	run(t, k, p, 1, blkA, coherence.Store)
	var d2 bool
	p.Access(2, blkA, coherence.Load, func() { d2 = true })
	k.Run(k.Now() + 1)
	if !p.Flush(1, blkA) {
		t.Fatal("flush refused")
	}
	k.Drain(10_000_000)
	if !d2 {
		t.Fatal("reader starved by the writeback")
	}
	if st := p.CacheState(2, blkA); st != SS {
		t.Fatalf("reader=%s want S", st)
	}
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory=%d want 1 (writeback landed)", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnoopRecoveryConsistency: after the Spec corner case is detected
// and recovered from as the system recovers, the raced block stays
// usable and consistent: the re-issued stores complete, and so does a
// later store by a node outside the race.
func TestSnoopRecoveryConsistency(t *testing.T) {
	k, p, reasons, stores := recoveringRace(t)
	if len(*reasons) != 1 {
		t.Fatalf("reasons=%v want one detection", *reasons)
	}
	if *stores != 2 {
		t.Fatalf("%d of the 2 re-issued stores completed", *stores)
	}
	run(t, k, p, 0, blkA, coherence.Store)
	// node1's store, the re-issued stores of nodes 2 and 3, then node0's.
	if v := p.BlockVersion(blkA); v != 4 {
		t.Fatalf("version=%d want 4", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnoopDeterministicReplay: identical snooping runs agree exactly.
func TestSnoopDeterministicReplay(t *testing.T) {
	run := func() (uint64, sim.Time) {
		k, p := build(t, Full, 16)
		total := 0
		r := sim.NewRNG(31)
		for n := 0; n < 16; n++ {
			n := n
			remaining := 40
			var issue func()
			issue = func() {
				if remaining == 0 {
					return
				}
				remaining--
				a := coherence.Addr(r.Intn(8) * 64)
				p.Access(coherence.NodeID(n), a, coherence.Store, func() {
					total++
					k.After(10, issue)
				})
			}
			k.At(sim.Time(n*3), issue)
		}
		k.Drain(100_000_000)
		return p.Bus().Ordered(), k.Now()
	}
	o1, t1 := run()
	o2, t2 := run()
	if o1 != o2 || t1 != t2 {
		t.Fatalf("nondeterminism: (%d,%d) vs (%d,%d)", o1, t1, o2, t2)
	}
}
