package safetynet

import (
	"testing"
	"testing/quick"

	"specsimp/internal/sim"
)

func mgr(k *sim.Kernel, interval sim.Time) *Manager {
	return NewManager(k, DefaultConfig(4, interval))
}

// logged wires a mutable variable to the manager's undo log the way the
// protocol controllers do: log the old value on first write per epoch.
type logged struct {
	m    *Manager
	node int
	key  uint64
	v    uint64
}

func (l *logged) set(v uint64) {
	old := l.v
	l.m.LogOldValue(l.node, l.key, func() { l.v = old })
	l.v = v
}

func TestCheckpointRecoverRestoresState(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	x := &logged{m: m, node: 0, key: 1}
	m.TakeCheckpoint("s0")
	x.set(10)
	k.Run(100)
	m.TakeCheckpoint("s1") // epoch 1, x==10 at this boundary
	x.set(20)
	x.set(30)
	k.Run(500) // age checkpoints past the validation window (300)

	snap, lost := m.Recover()
	// Newest validated checkpoint at t=500: ckpt1 (t=100, validated at 400).
	if snap != "s1" {
		t.Fatalf("recovered snapshot %v, want s1", snap)
	}
	if x.v != 10 {
		t.Fatalf("x=%d after recovery, want 10 (value at checkpoint 1)", x.v)
	}
	if lost != 400 {
		t.Fatalf("lost=%d cycles, want 400", lost)
	}
	if m.Recoveries() != 1 {
		t.Fatalf("recoveries=%d", m.Recoveries())
	}
}

func TestFirstWritePerEpochDeduplication(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	m.TakeCheckpoint(nil)
	x := &logged{m: m, node: 1, key: 7}
	for i := 0; i < 100; i++ {
		x.set(uint64(i))
	}
	if m.EntriesLogged() != 1 {
		t.Fatalf("logged %d entries for same-key same-epoch writes, want 1", m.EntriesLogged())
	}
	k.Run(100)
	m.TakeCheckpoint(nil)
	x.set(999)
	if m.EntriesLogged() != 2 {
		t.Fatalf("logged %d entries, want 2 (new epoch logs again)", m.EntriesLogged())
	}
}

func TestRelogAfterRecovery(t *testing.T) {
	// After a recovery, modifications in the resumed epoch must be
	// logged again even though the key was logged before rollback, so
	// a second recovery restores the value from before the first write.
	for _, tc := range []struct {
		name       string
		checkpoint bool // take a second checkpoint (and write in its epoch) before recovering
	}{
		{"same epoch", false},
		{"across a checkpoint", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			m := mgr(k, 100)
			x := &logged{m: m, node: 0, key: 5}
			m.TakeCheckpoint("s0")
			x.set(1)
			if tc.checkpoint {
				k.Run(100)
				m.TakeCheckpoint("s1")
				x.set(2)
				k.Run(200) // s1 is not validated yet: recovery returns to s0
			} else {
				k.Run(1000)
			}
			if snap, _ := m.Recover(); snap != "s0" || x.v != 0 {
				t.Fatalf("recovered to %v with x=%d, want s0 with x=0", snap, x.v)
			}
			x.set(3)
			k.Run(2000)
			m.Recover()
			if x.v != 0 {
				t.Fatalf("x=%d after second recovery, want 0 — the write after recovery was not re-logged", x.v)
			}
		})
	}
}

func TestEarlyRecoveryUsesOldestCheckpoint(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	m.TakeCheckpoint("init")
	k.Run(50) // nothing validated yet (window = 300)
	snap, _ := m.Recover()
	if snap != "init" {
		t.Fatalf("recovered to %v, want init", snap)
	}
}

func TestCommitFreesLog(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	x := &logged{m: m, node: 0, key: 9}
	m.TakeCheckpoint(nil)
	for e := 0; e < 20; e++ {
		x.set(uint64(e))
		k.Run(k.Now() + 100)
		m.TakeCheckpoint(nil)
	}
	// Window is 300 cycles = 3 epochs; old entries must have committed.
	if got := m.OccupancyHighWaterBytes(0); got > 20*72 {
		t.Fatalf("high water %d bytes unexpectedly large", got)
	}
	if len(m.logs[0]) > 6 {
		t.Fatalf("log retains %d entries after commits, want <=6", len(m.logs[0]))
	}
}

func TestOverflowCounted(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(1, 100)
	cfg.LogBytes = 72 * 4
	m := NewManager(k, cfg)
	m.TakeCheckpoint(nil)
	for i := 0; i < 10; i++ {
		x := &logged{m: m, node: 0, key: uint64(i)}
		x.set(1)
	}
	if m.Overflows() == 0 {
		t.Fatal("no overflow counted despite exceeding LogBytes")
	}
}

func TestRecoveryDiscardsNewerCheckpoints(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	m.TakeCheckpoint("a") // epoch 0 @ 0
	k.Run(400)
	m.TakeCheckpoint("b") // epoch 1 @ 400
	k.Run(450)
	m.Recover() // target: a (b not yet validated)
	if m.Epoch() != 0 {
		t.Fatalf("epoch=%d after recovery, want 0", m.Epoch())
	}
	k.Run(10_000)
	snap, _ := m.Recover()
	if snap != "a" {
		t.Fatalf("checkpoint b survived a rollback past it: got %v", snap)
	}
}

func TestLogBeforeCheckpointPanics(t *testing.T) {
	k := sim.NewKernel()
	m := mgr(k, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("LogOldValue before first checkpoint did not panic")
		}
	}()
	m.LogOldValue(0, 1, func() {})
}

// Property: for a random series of writes with periodic checkpoints,
// recovery restores exactly the values recorded at the recovery point.
func TestRecoveryExactnessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		m := mgr(k, 100)
		r := sim.NewRNG(seed)
		const nvars = 8
		vars := make([]*logged, nvars)
		for i := range vars {
			vars[i] = &logged{m: m, node: i % 4, key: uint64(i)}
		}
		history := map[uint64][]uint64{} // epoch -> values at checkpoint
		record := func(e uint64) {
			vals := make([]uint64, nvars)
			for i, v := range vars {
				vals[i] = v.v
			}
			history[e] = vals
		}
		record(m.TakeCheckpoint(nil))
		for step := 0; step < 30; step++ {
			for w := 0; w < r.Intn(5); w++ {
				vars[r.Intn(nvars)].set(r.Uint64() % 1000)
			}
			k.Run(k.Now() + 100)
			record(m.TakeCheckpoint(nil))
		}
		epoch, _ := m.RecoveryPoint()
		m.Recover()
		want := history[epoch]
		for i, v := range vars {
			if v.v != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
