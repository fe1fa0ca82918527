package directory

import (
	"strings"
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// Block addresses: with 4 nodes, home(a) = (a/64)%4.
const (
	blkA = coherence.Addr(0)      // home 0
	blkB = coherence.Addr(4 * 64) // home 0, same L2 set as A in tiny config
	blkC = coherence.Addr(8 * 64) // home 0
	blkD = coherence.Addr(1 * 64) // home 1
)

func TestLoadFromMemory(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	if st := p.CacheState(1, blkA); st != CS {
		t.Fatalf("state=%s want S", st)
	}
	if ds, busy := p.DirState(blkA); ds != DS || busy {
		t.Fatalf("dir=%s busy=%v want DS idle", ds, busy)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFromInvalid(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	if st := p.CacheState(1, blkA); st != CM {
		t.Fatalf("state=%s want M", st)
	}
	if p.BlockVersion(blkA) != 1 {
		t.Fatalf("version=%d want 1", p.BlockVersion(blkA))
	}
	if ds, _ := p.DirState(blkA); ds != DM {
		t.Fatalf("dir=%s want DM", ds)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreHitIncrementsVersion(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	if v := p.BlockVersion(blkA); v != 3 {
		t.Fatalf("version=%d want 3", v)
	}
}

func TestReadSharingThenOwnerSupply(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // node1 M, v1
	doAccess(t, f, p, 2, blkA, coherence.Load)  // fwd to owner; owner -> O
	if st := p.CacheState(1, blkA); st != CO {
		t.Fatalf("old owner state=%s want O", st)
	}
	if st := p.CacheState(2, blkA); st != CS {
		t.Fatalf("reader state=%s want S", st)
	}
	if ds, _ := p.DirState(blkA); ds != DO {
		t.Fatalf("dir=%s want DO", ds)
	}
	doAccess(t, f, p, 3, blkA, coherence.Load) // O supplies again
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	doAccess(t, f, p, 2, blkA, coherence.Load)
	doAccess(t, f, p, 3, blkA, coherence.Store) // must invalidate 1 and 2
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("sharer1 state=%s want I", st)
	}
	if st := p.CacheState(2, blkA); st != CInv {
		t.Fatalf("sharer2 state=%s want I", st)
	}
	if st := p.CacheState(3, blkA); st != CM {
		t.Fatalf("writer state=%s want M", st)
	}
	if v := p.BlockVersion(blkA); v != 1 {
		t.Fatalf("version=%d want 1", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOwnershipTransferPreservesValue(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // v1 at node1
	doAccess(t, f, p, 2, blkA, coherence.Store) // fwd M->M transfer, v2
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2 (no lost update)", v)
	}
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("old owner=%s want I", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Load)
	doAccess(t, f, p, 2, blkA, coherence.Load)
	doAccess(t, f, p, 1, blkA, coherence.Store) // upgrade: inv node2, ack counted
	if st := p.CacheState(1, blkA); st != CM {
		t.Fatalf("upgrader=%s want M", st)
	}
	if st := p.CacheState(2, blkA); st != CInv {
		t.Fatalf("sharer=%s want I", st)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeFromOwned(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // node1 M v1
	doAccess(t, f, p, 2, blkA, coherence.Load)  // node1 -> O, node2 S
	doAccess(t, f, p, 1, blkA, coherence.Store) // owner upgrade O->M, inv node2
	if st := p.CacheState(1, blkA); st != CM {
		t.Fatalf("owner=%s want M", st)
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2 (owner's data must survive upgrade)", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // set: A(M)
	doAccess(t, f, p, 1, blkB, coherence.Store) // set: A,B
	doAccess(t, f, p, 1, blkC, coherence.Store) // evicts A -> PutM
	if p.Stats().Writebacks.Value() != 1 {
		t.Fatalf("writebacks=%d want 1", p.Stats().Writebacks.Value())
	}
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("evicted block state=%s want I", st)
	}
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory version=%d want 1 (writeback data)", v)
	}
	if ds, _ := p.DirState(blkA); ds != DInv {
		t.Fatalf("dir=%s want DInv after writeback", ds)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritebackFromOwnedKeepsSharers(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store) // M v1
	doAccess(t, f, p, 2, blkA, coherence.Load)  // node1 O, node2 S
	doAccess(t, f, p, 1, blkB, coherence.Store)
	doAccess(t, f, p, 1, blkC, coherence.Store) // evicts A (O) -> PutM
	if ds, _ := p.DirState(blkA); ds != DS {
		t.Fatalf("dir=%s want DS (sharers remain)", ds)
	}
	if st := p.CacheState(2, blkA); st != CS {
		t.Fatalf("sharer=%s want S", st)
	}
	if v := p.MemVersion(blkA); v != 1 {
		t.Fatalf("memory=%d want 1", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReaccessDuringWritebackParks(t *testing.T) {
	_, f, p := scripted(t, Full)
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	// Evict A via C, but stall the writeback by withholding messages.
	var cDone bool
	p.Access(1, blkC, coherence.Store, func() { cDone = true })
	// Deliver C's transaction but hold A's PutM.
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	if !cDone {
		t.Fatal("C's store did not complete")
	}
	// Now access A again: must park behind the in-flight writeback.
	aDone := false
	p.Access(1, blkA, coherence.Load, func() { aDone = true })
	f.k.Drain(1_000_000)
	if aDone {
		t.Fatal("access to a block mid-writeback completed early")
	}
	f.deliverAll(t) // PutM, WBAck, then the parked access re-issues
	if !aDone {
		t.Fatal("parked access never completed")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackRaceSpecDetected reproduces the §3.1 race with the
// reordered delivery (WBAck overtakes FwdGetM) and checks the Spec
// variant detects it as its single designated invalid transition.
func TestWritebackRaceSpecDetected(t *testing.T) {
	_, f, p := scripted(t, Spec)
	var reasons []string
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) {
		reasons = append(reasons, r)
		p.ResetTransients()
		f.queue = nil
	}
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	// Store C evicts A: hold the PutM.
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	// Node 2 wants A while the writeback is in flight.
	p.Access(2, blkA, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM) // dir forwards FwdGetM to node1 (in flight)
	f.deliverKind(t, coherence.PutM) // the race: dir sends plain WBAck
	if p.Stats().WBRaces.Value() != 1 {
		t.Fatalf("WBRaces=%d want 1", p.Stats().WBRaces.Value())
	}
	// Reordered network: WBAck arrives first...
	f.deliverKind(t, coherence.WBAck)
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("node1=%s after early WBAck, want I", st)
	}
	// ...then the forward hits an invalid cache: detection.
	f.deliverKind(t, coherence.FwdGetM)
	if len(reasons) != 1 || reasons[0] != "p2p-ordering" {
		t.Fatalf("mis-speculations=%v want [p2p-ordering]", reasons)
	}
	if p.Stats().OrderViolations.Value() != 1 {
		t.Fatalf("OrderViolations=%d want 1", p.Stats().OrderViolations.Value())
	}
}

// TestWritebackRaceSpecInOrder checks that with point-to-point ordering
// honored (forward first), the Spec variant needs no extra machinery.
func TestWritebackRaceSpecInOrder(t *testing.T) {
	_, f, p := scripted(t, Spec)
	p.OnMisSpeculation = func(_ coherence.NodeID, r string) { t.Fatalf("unexpected mis-speculation %q", r) }
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	n2done := false
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	p.Access(2, blkA, coherence.Store, func() { n2done = true })
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.PutM)    // race at the directory
	f.deliverKind(t, coherence.FwdGetM) // ordering holds: forward first
	if st := p.CacheState(1, blkA); st != CIIa {
		t.Fatalf("node1=%s after serving forward, want II_A", st)
	}
	f.deliverAll(t)
	if !n2done {
		t.Fatal("node2's store never completed")
	}
	if st := p.CacheState(2, blkA); st != CM {
		t.Fatalf("node2=%s want M", st)
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackRaceFullHandlesReorder checks the Full variant survives
// the reordered delivery via the stale-WBAck / II_F machinery.
func TestWritebackRaceFullHandlesReorder(t *testing.T) {
	_, f, p := scripted(t, Full)
	n2done := false
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	p.Access(2, blkA, coherence.Store, func() { n2done = true })
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.PutM) // race: dir sends Data to node2 + stale WBAck
	// Reordered: stale WBAck first.
	f.deliverKind(t, coherence.WBAck)
	if st := p.CacheState(1, blkA); st != CIIf {
		t.Fatalf("node1=%s after stale WBAck, want II_F", st)
	}
	f.deliverKind(t, coherence.FwdGetM) // doomed forward absorbed
	if st := p.CacheState(1, blkA); st != CInv {
		t.Fatalf("node1=%s after absorbing forward, want I", st)
	}
	f.deliverAll(t)
	if !n2done {
		t.Fatal("node2's store never completed")
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2 (writeback data + node2's store)", v)
	}
	if p.Stats().RacesHandled.Value() == 0 {
		t.Fatal("full variant did not count the handled race")
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackRaceFullInOrderDuplicateData: forward first; node1 serves
// data AND the directory sends its own copy — node2 must drop the dup.
func TestWritebackRaceFullInOrderDuplicateData(t *testing.T) {
	_, f, p := scripted(t, Full)
	n2done := false
	doAccess(t, f, p, 1, blkA, coherence.Store)
	doAccess(t, f, p, 1, blkB, coherence.Store)
	p.Access(1, blkC, coherence.Store, func() {})
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.Data)
	f.deliverKind(t, coherence.FinalAck)
	p.Access(2, blkA, coherence.Store, func() { n2done = true })
	f.deliverKind(t, coherence.GetM)
	f.deliverKind(t, coherence.PutM)
	f.deliverKind(t, coherence.FwdGetM) // in order: node1 serves node2
	f.deliverAll(t)
	if !n2done {
		t.Fatal("node2's store never completed")
	}
	if p.Stats().DupDataDropped.Value() == 0 {
		t.Fatal("duplicate data was not detected/dropped")
	}
	if v := p.BlockVersion(blkA); v != 2 {
		t.Fatalf("version=%d want 2", v)
	}
	if err := p.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutWatchdogDetectsStuckTransaction: the deadlock watchdog's
// scan reports a transaction whose GetM never reaches the directory
// once it has been outstanding longer than TimeoutCycles — not before,
// and not after a recovery reset clears it.
func TestTimeoutWatchdogDetectsStuckTransaction(t *testing.T) {
	k := sim.NewKernel()
	cfg := tinyConfig(Spec)
	cfg.TimeoutCycles = 10_000
	// The test fabric holds every message until the test delivers it,
	// and this test delivers nothing.
	p := New(k, newTestFabric(k, 4), cfg, nil)
	p.Access(1, blkA, coherence.Store, func() {})
	k.Run(5_000)
	if node, ok := p.TimeoutScan(); ok {
		t.Fatalf("scan reported node %d before TimeoutCycles elapsed", node)
	}
	k.Run(50_000)
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

func TestComplexityCounts(t *testing.T) {
	full := ComplexityOf(Full)
	spec := ComplexityOf(Spec)
	if spec.CacheStates >= full.CacheStates {
		t.Fatalf("spec cache states (%d) not fewer than full (%d)", spec.CacheStates, full.CacheStates)
	}
	if spec.CacheTransitions >= full.CacheTransitions {
		t.Fatalf("spec transitions (%d) not fewer than full (%d)", spec.CacheTransitions, full.CacheTransitions)
	}
	if spec.MessageKinds >= full.MessageKinds {
		t.Fatalf("spec message kinds (%d) not fewer than full (%d)", spec.MessageKinds, full.MessageKinds)
	}
	if full.CacheStates != 14-1 || spec.CacheStates != 13-1 {
		// 13 named states; Full uses all but none marked unreachable,
		// Spec lacks II_F. (CInv is counted via its transitions.)
		t.Logf("full=%+v spec=%+v", full, spec)
	}
}

func TestVariantString(t *testing.T) {
	if Full.String() != "full" || Spec.String() != "spec" {
		t.Fatal("variant names wrong")
	}
	if !strings.Contains(CIIf.String(), "II_F") {
		t.Fatalf("state name %q", CIIf.String())
	}
}
