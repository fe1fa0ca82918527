package network

import (
	"testing"
	"testing/quick"

	"specsimp/internal/sim"
)

func TestPerturbFnDelaysInjection(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1.0))
	n.PerturbFn = func(m *Message) sim.Time {
		if m.VNet == 1 {
			return 5_000
		}
		return 0
	}
	var arrivals []sim.Time
	n.AttachClient(1, ClientFunc(func(m *Message) bool {
		arrivals = append(arrivals, k.Now())
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 1, VNet: 1, Size: 8}) // delayed
	n.Send(&Message{Src: 0, Dst: 1, VNet: 0, Size: 8}) // prompt
	drainAll(t, k)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals=%d", len(arrivals))
	}
	if arrivals[0] >= 5_000 || arrivals[1] < 5_000 {
		t.Fatalf("arrivals=%v; vnet1 should arrive after its 5k hold", arrivals)
	}
}

func TestPerturbCausesSameVNetReorder(t *testing.T) {
	// The fault-injection knob must produce genuine same-vnet
	// reordering: message 1 held, message 2 sent after, arrives first.
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1.0))
	first := true
	n.PerturbFn = func(m *Message) sim.Time {
		if m.VNet == 1 && first {
			first = false
			return 5_000
		}
		return 0
	}
	var seqs []uint64
	n.AttachClient(1, ClientFunc(func(m *Message) bool {
		seqs = append(seqs, m.Seq)
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 1, VNet: 1, Size: 8})
	k.At(10, func() { n.Send(&Message{Src: 0, Dst: 1, VNet: 1, Size: 8}) })
	drainAll(t, k)
	if len(seqs) != 2 || seqs[0] != 1 {
		t.Fatalf("seqs=%v; the held message should arrive second", seqs)
	}
	if n.Stats().Reordered[1].Value() != 1 {
		t.Fatalf("reorder not counted")
	}
}

// TestEjectRateLimitsConsumption: an endpoint consumes at most one
// message per cycle.
func TestEjectRateLimitsConsumption(t *testing.T) {
	cfg := SafeStaticConfig(4, 4, 8.0) // fast links so ejection dominates
	k := sim.NewKernel()
	n := New(k, cfg)
	var times []sim.Time
	n.AttachClient(1, ClientFunc(func(m *Message) bool {
		times = append(times, k.Now())
		return true
	}))
	for i := 0; i < 8; i++ {
		n.Send(&Message{Src: 0, Dst: 1, VNet: 0, Size: 8})
	}
	drainAll(t, k)
	if len(times) != 8 {
		t.Fatalf("consumed %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] == times[i-1] {
			t.Fatalf("two consumptions at %d", times[i])
		}
	}
}

// Property: shared-pool credit accounting conserves slots — after any
// traffic fully drains, every switch pool is empty again.
func TestSharedPoolConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		n := New(k, SimplifiedConfig(4, 4, 1.0, 4))
		r := sim.NewRNG(seed)
		for i := 0; i < 16; i++ {
			n.AttachClient(NodeID(i), ClientFunc(func(m *Message) bool { return true }))
		}
		for i := 0; i < 300; i++ {
			src, dst := NodeID(r.Intn(16)), NodeID(r.Intn(16))
			if src == dst {
				continue
			}
			at := sim.Time(r.Intn(2000)) // spread out: avoid deadlock
			k.At(at, func() { n.Send(&Message{Src: src, Dst: dst, VNet: r.Intn(4), Size: 8}) })
		}
		if !k.Drain(50_000_000) {
			return false
		}
		if n.InFlight() != 0 {
			return true // deadlocked runs hold slots legitimately
		}
		for _, s := range n.sw {
			if s.poolUsed != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-class credits are likewise conserved on the safe
// configuration.
func TestClassCreditConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		cfg := SafeStaticConfig(4, 4, 1.0)
		n := New(k, cfg)
		r := sim.NewRNG(seed)
		for i := 0; i < 16; i++ {
			n.AttachClient(NodeID(i), ClientFunc(func(m *Message) bool { return true }))
		}
		for i := 0; i < 400; i++ {
			src, dst := NodeID(r.Intn(16)), NodeID(r.Intn(16))
			k.At(sim.Time(r.Intn(500)), func() {
				n.Send(&Message{Src: src, Dst: dst, VNet: r.Intn(4), Size: 72})
			})
		}
		if !k.Drain(50_000_000) {
			return false
		}
		for _, s := range n.sw {
			for d := North; d <= West; d++ {
				for _, c := range s.credits[d] {
					if c != cfg.BufferSize {
						return false
					}
				}
			}
		}
		return n.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestDatelineVCEscalation(t *testing.T) {
	// A message crossing the torus wrap must switch to VC1: observable
	// via its buffer class on arrival. We trace forwards and check a
	// wrap route (node 0 -> node 12 goes north across the wrap in one
	// hop: y 0 -> 3).
	k := sim.NewKernel()
	cfg := SafeStaticConfig(4, 4, 1.0)
	n := New(k, cfg)
	var sawWrapForward bool
	n.TraceFn = func(ev TraceEvent) {
		if ev.Kind == TraceForward && ev.Node == 0 && ev.Dir == North {
			sawWrapForward = true
			if ev.Msg.vc != 1 {
				t.Errorf("wrap-crossing hop kept vc=%d, want 1", ev.Msg.vc)
			}
		}
	}
	n.AttachClient(12, ClientFunc(func(m *Message) bool { return true }))
	n.Send(&Message{Src: 0, Dst: 12, VNet: 0, Size: 8})
	drainAll(t, k)
	if !sawWrapForward {
		t.Skip("route did not cross the north wrap; topology changed?")
	}
}

func TestAdaptiveDisabledMatchesStaticPaths(t *testing.T) {
	// With adaptive routing disabled (forward-progress fallback), every
	// message follows the static dimension-order path: X hops first.
	k := sim.NewKernel()
	n := New(k, AdaptiveConfig(4, 4, 1.0))
	n.SetAdaptiveDisabled(true)
	var dirs []int
	n.TraceFn = func(ev TraceEvent) {
		if ev.Kind == TraceForward {
			dirs = append(dirs, ev.Dir)
		}
	}
	n.AttachClient(6, ClientFunc(func(m *Message) bool { return true }))
	n.Send(&Message{Src: 0, Dst: 6, VNet: 0, Size: 8}) // (0,0)->(2,1): EE then S
	drainAll(t, k)
	want := []int{East, East, South}
	if len(dirs) != 3 {
		t.Fatalf("hops=%v", dirs)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("path %v, want EES", dirs)
		}
	}
	if !n.AdaptiveDisabled() {
		t.Fatal("flag lost")
	}
}
