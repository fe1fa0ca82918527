package workload

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// ---- generator bug pins ----

// The reference that starts a burst must itself get the near-zero burst
// think time. Before the fix it kept its full geometric think, so a
// permanently bursting stream still averaged MeanThink every
// BurstLen-th reference.
func TestBurstStartingRefHasBurstThink(t *testing.T) {
	p := Uniform
	p.MeanThink = 500
	p.Burstiness = 1 // every non-burst ref starts a new burst
	p.BurstLen = 4
	p.MigratoryFrac = 0
	g := New(p, 0, 16, 21)
	for i := 0; i < 5000; i++ {
		if th := g.Peek().Think; th > 1 {
			t.Fatalf("ref %d has think %d inside a permanent burst (burst-starting ref kept its geometric think)", i, th)
		}
		g.Advance()
	}
}

// Counting consecutive near-zero-think references pins the burst length:
// a BurstLen-8 burst must span exactly 8 references. The migratory store
// half counts as a reference too (it used to skip the decrement,
// silently doubling bursts — see TestMigratoryStoreConsumesBurstSlot).
func TestBurstLengthByCountingNearZeroThinkRuns(t *testing.T) {
	p := Uniform
	p.MeanThink = 400 // P(geometric think <= 1) ~ 0.5%: bursts stand out
	p.Burstiness = 0.2
	p.BurstLen = 8
	p.MigratoryFrac = 0
	g := New(p, 0, 16, 33)
	var runs []int
	cur := 0
	for i := 0; i < 60000; i++ {
		if g.Peek().Think <= 1 {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
		g.Advance()
	}
	if len(runs) < 50 {
		t.Fatalf("only %d bursts observed", len(runs))
	}
	sort.Ints(runs)
	if median := runs[len(runs)/2]; median != p.BurstLen {
		t.Fatalf("median near-zero-think run is %d refs, want BurstLen %d", median, p.BurstLen)
	}
}

// The migratory store half is a reference like any other, so it must
// consume a burst slot. With every shared reference a migratory pair
// and permanent bursting, the burst counter must cycle with period
// BurstLen exactly — before the fix the store halves skipped the
// decrement and the cycle was 2×BurstLen.
func TestMigratoryStoreConsumesBurstSlot(t *testing.T) {
	p := Uniform
	p.SharedFrac = 1
	p.MigratoryFrac = 1
	p.Burstiness = 1
	p.BurstLen = 6
	g := New(p, 0, 16, 5).(*gen)
	want := p.BurstLen - 1 // nextThink arms then decrements for the current ref
	for i := 0; i < 600; i++ {
		if g.burst != want {
			t.Fatalf("ref %d: burst counter %d, want %d (store halves must decrement)", i, g.burst, want)
		}
		g.Advance()
		want--
		if want < 0 {
			want = p.BurstLen - 1
		}
	}
}

// Per-node seeds come from a SplitMix64 finalizer now. The old
// derivation — seed ^ (node+1)*0x9e37 — made these two streams
// literally identical.
func TestSeedMixingHasNoLinearCollisions(t *testing.T) {
	a := New(OLTP, 3, 16, 0)
	b := New(OLTP, 0, 16, (4*0x9e37)^(1*0x9e37))
	same := 0
	for i := 0; i < 200; i++ {
		if a.Peek() == b.Peek() {
			same++
		}
		a.Advance()
		b.Advance()
	}
	if same == 200 {
		t.Fatal("old-scheme seed collision survived: (node 3, seed 0) == (node 0, seed 0x9e37*4^0x9e37)")
	}
	if mixSeed(42, 3) == mixSeed(42, 4) {
		t.Fatal("adjacent nodes share a seed")
	}
}

// ---- Zipf sampling ----

func TestZipfFrequencySanity(t *testing.T) {
	const n = 1024
	const draws = 300_000
	for _, s := range []float64{0.8, 1.0, 1.4} {
		z := newZipf(s, n)
		rng := sim.NewRNG(7)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			k := z.sample(rng)
			if k < 0 || k >= n {
				t.Fatalf("s=%g: sample %d out of [0,%d)", s, k, n)
			}
			counts[k]++
		}
		// P(0)/P(1) must be 2^s.
		ratio := float64(counts[0]) / float64(counts[1])
		if want := math.Pow(2, s); ratio < want*0.85 || ratio > want*1.15 {
			t.Errorf("s=%g: rank0/rank1 frequency ratio %.2f, want ~%.2f", s, ratio, want)
		}
		// Head ranks dominate deep tail ranks.
		if counts[0] <= counts[50] || counts[50] <= counts[700] {
			t.Errorf("s=%g: counts not skewed: c0=%d c50=%d c700=%d", s, counts[0], counts[50], counts[700])
		}
		// And the whole-distribution shape: observed rank-0 mass within
		// 15%% of 1/H_{n,s}.
		var h float64
		for k := 1; k <= n; k++ {
			h += math.Exp(-s * math.Log(float64(k)))
		}
		p0 := float64(counts[0]) / draws
		if want := 1 / h; p0 < want*0.85 || p0 > want*1.15 {
			t.Errorf("s=%g: rank-0 mass %.4f, want ~%.4f", s, p0, want)
		}
	}
}

func TestBlockPermIsBijection(t *testing.T) {
	for _, n := range []int{2, 7, 64, 1000, 4096} {
		perm := newBlockPerm(n, 0xfeedface)
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			j := perm.apply(i)
			if j < 0 || j >= n {
				t.Fatalf("n=%d: apply(%d)=%d out of range", n, i, j)
			}
			if seen[j] {
				t.Fatalf("n=%d: apply not injective at %d -> %d", n, i, j)
			}
			seen[j] = true
		}
	}
}

// Zipf-skewed streams keep every shared reference inside the shared
// region and actually concentrate references on a machine-wide hot set:
// two nodes' most-frequent shared blocks must overlap (the rank
// permutation is keyed on the run seed, not the node).
func TestZipfStreamSharesHotBlocksAcrossNodes(t *testing.T) {
	p := OLTP
	p.ZipfSkew = 1.2
	top := func(node int) map[coherence.Addr]bool {
		g := New(p, node, 16, 3)
		counts := map[coherence.Addr]int{}
		sharedTop := coherence.Addr(p.SharedBlocks * coherence.BlockBytes)
		for i := 0; i < 30000; i++ {
			if op := g.Peek(); op.Addr < sharedTop {
				counts[op.Addr]++
			}
			g.Advance()
		}
		type kv struct {
			a coherence.Addr
			n int
		}
		var all []kv
		for a, n := range counts {
			all = append(all, kv{a, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].a < all[j].a
		})
		out := map[coherence.Addr]bool{}
		for i := 0; i < 5 && i < len(all); i++ {
			out[all[i].a] = true
		}
		return out
	}
	t0, t1 := top(0), top(5)
	overlap := 0
	for a := range t0 {
		if t1[a] {
			overlap++
		}
	}
	if overlap < 3 {
		t.Fatalf("top-5 hot blocks of nodes 0 and 5 overlap only %d/5 — hot set is not machine-wide", overlap)
	}
}

// Phase shifts must move the hot set: the dominant shared blocks of an
// early phase and a late phase must differ.
func TestPhaseShiftMovesHotSet(t *testing.T) {
	p := Hotspot
	p.PhaseLen = 2048
	p.Burstiness = 0
	g := New(p, 0, 16, 17)
	window := func(refs int) map[coherence.Addr]int {
		counts := map[coherence.Addr]int{}
		sharedTop := coherence.Addr(p.SharedBlocks * coherence.BlockBytes)
		for i := 0; i < refs; i++ {
			if op := g.Peek(); op.Addr < sharedTop {
				counts[op.Addr]++
			}
			g.Advance()
		}
		return counts
	}
	peak := func(counts map[coherence.Addr]int) coherence.Addr {
		var best coherence.Addr
		bestN := -1
		for a, n := range counts {
			if n > bestN || (n == bestN && a < best) {
				best, bestN = a, n
			}
		}
		return best
	}
	first := peak(window(2000))
	window(2048) // skip across the phase boundary
	second := peak(window(2000))
	if first == second {
		t.Fatalf("hot-set peak %#x did not move across a phase shift", uint64(first))
	}
}

// ---- snapshot/restore across every generator ----

// assertReplays snapshots g, records the next n ops, restores, and
// demands an identical replay.
func assertReplays(t *testing.T, g Generator, n int, what string) {
	t.Helper()
	snap := g.Snapshot()
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Peek()
		g.Advance()
	}
	g.Restore(snap)
	for i, want := range ops {
		if got := g.Peek(); got != want {
			t.Fatalf("%s: replay diverged at op %d: %+v vs %+v", what, i, got, want)
		}
		g.Advance()
	}
}

// Every registered generator — profiles, idioms, and Zipf/phase
// variants — must replay exactly from snapshots taken mid-burst,
// mid-migratory-pair, and mid-phase-shift.
func TestSnapshotRestoreEveryGenerator(t *testing.T) {
	var profiles []Profile
	for _, name := range Names() {
		p, _ := ByName(name)
		profiles = append(profiles, p)
		if p.SharedBlocks >= 2 {
			z := p
			z.Name = p.Name + "-zipf"
			z.ZipfSkew = 1.1
			z.PhaseLen = 512
			profiles = append(profiles, z)
		}
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g := New(p, 1, 8, 77)
			// Arbitrary points, including ones crossing the 512-ref
			// phase boundary of the -zipf variants.
			for _, prefix := range []int{0, 100, 450, 600} {
				for i := 0; i < prefix; i++ {
					g.Advance()
				}
				assertReplays(t, g, 200, "prefix")
			}
			// Mid-burst: walk to a point with the burst counter live.
			for i := 0; i < 200_000; i++ {
				if mid, ok := midBurst(g); ok && mid {
					break
				}
				g.Advance()
			}
			assertReplays(t, g, 200, "mid-burst")
			// Mid-migratory-pair: the store half still pending.
			for i := 0; i < 200_000; i++ {
				if mid, ok := midMigratory(g); ok && mid {
					break
				}
				g.Advance()
			}
			assertReplays(t, g, 200, "mid-migratory")
		})
	}
}

func midBurst(g Generator) (mid, ok bool) {
	switch v := g.(type) {
	case *gen:
		return v.burst > 0, true
	case *idiomGen:
		return v.burst > 0, true
	}
	return false, false
}

func midMigratory(g Generator) (mid, ok bool) {
	switch v := g.(type) {
	case *gen:
		return v.migrLeft > 0, true
	case *idiomGen:
		return v.migrLeft > 0, true
	}
	return false, false
}

// ---- idiom stream shape ----

// Ring: node i's produced (stored) blocks must be exactly what node
// i+1 consumes (loads), under static hot sets.
func TestRingProducerConsumerPairing(t *testing.T) {
	p := Ring
	p.SharedFrac = 1
	p.Burstiness = 0
	const nodes = 8
	blocksOf := func(node int, kind coherence.AccessType) map[coherence.Addr]bool {
		g := New(p, node, nodes, 9)
		out := map[coherence.Addr]bool{}
		sharedTop := coherence.Addr(p.SharedBlocks * coherence.BlockBytes)
		for i := 0; i < 4000; i++ {
			if op := g.Peek(); op.Kind == kind && op.Addr < sharedTop {
				out[op.Addr] = true
			}
			g.Advance()
		}
		return out
	}
	produced := blocksOf(2, coherence.Store)
	consumed := blocksOf(3, coherence.Load)
	if len(produced) == 0 || len(consumed) == 0 {
		t.Fatal("ring idiom produced no shared traffic")
	}
	for a := range consumed {
		if !produced[a] {
			t.Fatalf("node 3 consumes block %#x that node 2 never produces", uint64(a))
		}
	}
}

// Broadcast: only node 0 stores to the shared region; everyone else
// only loads it.
func TestBroadcastSingleWriter(t *testing.T) {
	p := Broadcast
	sharedTop := coherence.Addr(p.SharedBlocks * coherence.BlockBytes)
	for node := 0; node < 4; node++ {
		g := New(p, node, 4, 13)
		for i := 0; i < 5000; i++ {
			op := g.Peek()
			if op.Addr < sharedTop {
				if node == 0 && op.Kind != coherence.Store {
					t.Fatal("node 0 must only store the broadcast set")
				}
				if node != 0 && op.Kind != coherence.Load {
					t.Fatalf("node %d stored the broadcast set", node)
				}
			}
			g.Advance()
		}
	}
}

// Migratory idiom: every shared access is a load-then-store pair on one
// block.
func TestMigratoryIdiomPairs(t *testing.T) {
	p := MigratoryChain
	g := New(p, 1, 8, 23).(*idiomGen)
	sharedTop := coherence.Addr(p.SharedBlocks * coherence.BlockBytes)
	pairs := 0
	for i := 0; i < 20000; i++ {
		op := g.Peek()
		if op.Addr < sharedTop && op.Kind == coherence.Load {
			if g.migrLeft != 1 {
				t.Fatal("shared load without a pending store half")
			}
			g.Advance()
			next := g.Peek()
			if next.Kind != coherence.Store || next.Addr != op.Addr {
				t.Fatalf("migratory pair broken: %+v then %+v", op, next)
			}
			pairs++
			continue
		}
		g.Advance()
	}
	if pairs == 0 {
		t.Fatal("no migratory pairs observed")
	}
}

// Every idiom and the trace generator stay inside the profile's address
// space (the system sizes memory from it).
func TestIdiomAddressBounds(t *testing.T) {
	const nodes = 8
	for _, p := range Idioms {
		g := New(p, nodes-1, nodes, 31)
		limit := coherence.Addr((p.SharedBlocks + nodes*p.PrivateBlocks) * coherence.BlockBytes)
		for i := 0; i < 10000; i++ {
			op := g.Peek()
			if op.Addr%coherence.BlockBytes != 0 || op.Addr >= limit {
				t.Fatalf("%s: address %#x out of bounds/alignment", p.Name, uint64(op.Addr))
			}
			g.Advance()
		}
	}
}

// ---- trace record/replay ----

// Recording a stream and replaying the trace must reproduce it op for
// op (including the still-pending op at the recording horizon), and the
// replay generator must snapshot/restore exactly.
func TestTraceRoundTripStream(t *testing.T) {
	p := Slash
	const nodes = 4
	rec := NewTraceRecorder(p.Name, nodes)
	wrapped := make([]Generator, nodes)
	for i := range wrapped {
		wrapped[i] = rec.Wrap(i, New(p, i, nodes, 11))
	}
	const ops = 2000
	want := make([][]Op, nodes)
	for i, g := range wrapped {
		for j := 0; j < ops; j++ {
			want[i] = append(want[i], g.Peek())
			g.Advance()
		}
		want[i] = append(want[i], g.Peek()) // the pending op is recorded too
	}

	path := filepath.Join(t.TempDir(), "slash.trace")
	if err := rec.Trace().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	prof, err := FromTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.IsTrace() {
		t.Fatal("trace profile not marked as trace")
	}
	if prof.Name != "trace:"+p.Name {
		t.Fatalf("trace profile named %q — must be path-independent", prof.Name)
	}
	for i := 0; i < nodes; i++ {
		g := New(prof, i, nodes, 999) // seed must not matter for replay
		for j, wantOp := range want[i] {
			if got := g.Peek(); got != wantOp {
				t.Fatalf("node %d op %d: replay %+v != recorded %+v", i, j, got, wantOp)
			}
			g.Advance()
		}
	}
	// Replay snapshot/restore, including across the wrap point.
	g := New(prof, 2, nodes, 0)
	for i := 0; i < ops-50; i++ {
		g.Advance()
	}
	assertReplays(t, g, 200, "trace wrap")
}

// Restore must rewind the recorder's log too: a rollback followed by
// re-execution records the replayed ops once, not twice.
func TestTraceRecorderRewindsOnRestore(t *testing.T) {
	p := Uniform
	rec := NewTraceRecorder(p.Name, 1)
	g := rec.Wrap(0, New(p, 0, 1, 3))
	for i := 0; i < 100; i++ {
		g.Advance()
	}
	snap := g.Snapshot()
	var replayed []Op
	for i := 0; i < 50; i++ {
		replayed = append(replayed, g.Peek())
		g.Advance()
	}
	g.Restore(snap)
	for i := 0; i < 50; i++ {
		if g.Peek() != replayed[i] {
			t.Fatal("post-restore stream diverged")
		}
		g.Advance()
	}
	tr := rec.Trace()
	if tr.Ops(0) != 151 { // 150 advances + the pending op
		t.Fatalf("recorded %d ops, want 151 (rollback must not double-log)", tr.Ops(0))
	}
}

func TestReadTraceRejectsCorruptImages(t *testing.T) {
	rec := NewTraceRecorder("x", 2)
	for i := 0; i < 2; i++ {
		g := rec.Wrap(i, New(Uniform, i, 2, 1))
		for j := 0; j < 20; j++ {
			g.Advance()
		}
	}
	data := rec.Trace().Encode()
	if _, err := ReadTrace(data); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	if _, err := ReadTrace(data[:3]); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := ReadTrace(append([]byte("XXXXX"), data[5:]...)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadTrace(data[:len(data)-4]); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := ReadTrace(append(data, 0)); err == nil {
		t.Error("trailing bytes after the last stream accepted")
	}
}
