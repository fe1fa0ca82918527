package mem

import (
	"slices"
	"testing"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
)

// lineState is one valid L2 line as a rollback must restore it.
type lineState struct {
	addr    coherence.Addr
	state   uint8
	version uint64
}

// l2Lines lists h's valid L2 lines in ForEachSetLRU order, checking
// that every one lives in set 0.
func l2Lines(t *testing.T, h *Hier) []lineState {
	t.Helper()
	var ls []lineState
	h.L2.ForEachSetLRU(func(set int, l *cache.Line) {
		if set != 0 {
			t.Fatalf("line %#x in set %d of a one-set cache", uint64(l.Addr), set)
		}
		ls = append(ls, lineState{l.Addr, l.State, l.Version})
	})
	return ls
}

// churn applies n random fills, drops and stores to h's four blocks,
// which all map to its one L2 set. A fill that needs an M or O victim
// writes it back by dropping it, as a protocol's writeback does.
func churn(h *Hier, rng *sim.RNG, n int) {
	writeback := func(v *cache.Line) { h.Drop(v.Addr) }
	for i := 0; i < n; i++ {
		a := coherence.Addr(rng.Intn(4) * coherence.BlockBytes)
		switch rng.Intn(3) {
		case 0:
			h.Fill(a, uint8(S+rng.Intn(3)), rng.Uint64n(100), writeback)
		case 1:
			h.Drop(a)
		case 2:
			if l := h.L2.Lookup(a); l != nil {
				h.Hit(l, l.State == M)
			}
		}
	}
}

// TestRollbackRestoresCheckpoint drives a 1-set, 2-way hierarchy
// through a real SafetyNet manager: random fills, drops and stores
// before and after a checkpoint, then Recover's undo pass and
// FinishRollback. The set must hold exactly the checkpoint's lines,
// the L1 must be empty, the lines whose restore found the set full
// must come back last in LRU order, in ascending address order, and
// the block index must name exactly the restored lines, parked
// installs included.
func TestRollbackRestoresCheckpoint(t *testing.T) {
	cfg := CacheConfig{L1Bytes: 64, L1Ways: 1, L2Bytes: 2 * 64, L2Ways: 2, L1Latency: 1, L2Latency: 12}
	const trials = 8000
	parkedRuns, multiParked := 0, 0
	for seed := uint64(1); seed <= trials; seed++ {
		rng := sim.NewRNG(seed)
		mgr := safetynet.NewManager(sim.NewKernel(), safetynet.DefaultConfig(1, 1000))
		idx := NewBlockIndex(1)
		h := NewHier(0, cfg, mgr, idx)
		mgr.TakeCheckpoint(nil)
		churn(&h, rng, 12)
		want := l2Lines(t, &h)
		mgr.TakeCheckpointWindow(nil, 0) // the recovery target
		// Two drops first: a drop of an absent block logs its absence
		// ahead of every checkpoint line, so the restores of two
		// checkpoint lines can both find the set full and park.
		for i := 0; i < 2; i++ {
			h.Drop(coherence.Addr(rng.Intn(4) * coherence.BlockBytes))
		}
		churn(&h, rng, 16)
		mgr.Recover()
		var parked []coherence.Addr
		for a := range h.parked {
			parked = append(parked, a)
		}
		slices.Sort(parked)
		h.FinishRollback()

		got := l2Lines(t, &h)
		byAddr := func(x, y lineState) int { return int(x.addr) - int(y.addr) }
		sortedGot, sortedWant := slices.Clone(got), slices.Clone(want)
		slices.SortFunc(sortedGot, byAddr)
		slices.SortFunc(sortedWant, byAddr)
		if !slices.Equal(sortedGot, sortedWant) {
			t.Fatalf("seed %d: restored lines %v, checkpoint held %v", seed, got, want)
		}
		if n := h.L1.CountValid(); n != 0 {
			t.Fatalf("seed %d: %d L1 lines survive the rollback", seed, n)
		}
		if len(h.parked) != 0 {
			t.Fatalf("seed %d: %d parked lines left after FinishRollback", seed, len(h.parked))
		}
		for b := 0; b < 4; b++ {
			a := coherence.Addr(b * coherence.BlockBytes)
			if held := h.L2.Peek(a) != nil; idx.Holds(a, 0) != held {
				t.Fatalf("seed %d: index says node 0 holds %#x: %v; its L2: %v", seed, uint64(a), idx.Holds(a, 0), held)
			}
		}
		if len(parked) == 0 {
			continue
		}
		parkedRuns++
		if len(parked) > 1 {
			multiParked++
		}
		tail := got[len(got)-len(parked):]
		for i, a := range parked {
			if tail[i].addr != a {
				t.Fatalf("seed %d: parked lines %#x come back in LRU order %v, want ascending addresses last", seed, parked, got)
			}
		}
	}
	// The checks above prove nothing about parking unless it ran, and
	// nothing about its install order unless it often parked two lines:
	// an install in map order passes each such trial half the time.
	if parkedRuns == 0 || multiParked < 30 {
		t.Fatalf("the parked-install path ran in %d trials, with two lines in %d; want two lines in at least 30", parkedRuns, multiParked)
	}
	t.Logf("parked-install path ran in %d of %d trials (two lines in %d)", parkedRuns, trials, multiParked)
}
