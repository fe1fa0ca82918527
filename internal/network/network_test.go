package network

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"specsimp/internal/sim"
)

func drainAll(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if !k.Drain(50_000_000) {
		t.Fatal("kernel did not quiesce")
	}
}

func TestStaticDelivery(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1.0))
	var got []*Message
	n.AttachClient(5, ClientFunc(func(m *Message) bool {
		got = append(got, m)
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 5, VNet: 0, Size: 8})
	drainAll(t, k)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if got[0].Hops != 2 {
		t.Fatalf("0->5 on 4x4 torus took %d hops, want 2", got[0].Hops)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight=%d after drain", n.InFlight())
	}
}

func TestLoopbackDelivery(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1.0))
	delivered := false
	n.AttachClient(3, ClientFunc(func(m *Message) bool {
		delivered = true
		return true
	}))
	n.Send(&Message{Src: 3, Dst: 3, VNet: 1, Size: 8})
	drainAll(t, k)
	if !delivered {
		t.Fatal("loopback message not delivered")
	}
}

func TestAllToAllDeliveryStatic(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 0.5))
	recv := make([]int, 16)
	for i := 0; i < 16; i++ {
		i := i
		n.AttachClient(NodeID(i), ClientFunc(func(m *Message) bool {
			recv[i]++
			return true
		}))
	}
	sent := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			for v := 0; v < 4; v++ {
				n.Send(&Message{Src: NodeID(s), Dst: NodeID(d), VNet: v, Size: 72})
				sent++
			}
		}
	}
	drainAll(t, k)
	total := 0
	for _, r := range recv {
		total += r
	}
	if total != sent {
		t.Fatalf("delivered %d of %d", total, sent)
	}
	if n.Stats().Consumed.Value() != uint64(sent) {
		t.Fatalf("consumed counter %d want %d", n.Stats().Consumed.Value(), sent)
	}
}

func TestStaticNeverReorders(t *testing.T) {
	// Property (paper §3.1): with static routing both messages follow
	// the same path and arrive in order — for any traffic pattern.
	f := func(seed uint64) bool {
		k := sim.NewKernel()
		n := New(k, SafeStaticConfig(4, 4, 0.2))
		r := sim.NewRNG(seed)
		for i := 0; i < 300; i++ {
			src := NodeID(r.Intn(16))
			dst := NodeID(r.Intn(16))
			size := 8
			if r.Bool(0.5) {
				size = 72
			}
			k.At(sim.Time(r.Intn(500)), func() {
				n.Send(&Message{Src: src, Dst: dst, VNet: r.Intn(4), Size: size})
			})
		}
		if !k.Drain(50_000_000) {
			return false
		}
		return n.Stats().TotalReorderRate() == 0 && n.InFlight() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveCanReorder(t *testing.T) {
	// Figure 1: source 0 sends M1 then M2 to destination 5. M1 grabs
	// the East link and serializes for a long time; M2 adaptively takes
	// the South path and arrives first.
	k := sim.NewKernel()
	n := New(k, AdaptiveConfig(4, 4, 1.0))
	var order []uint64
	n.AttachClient(5, ClientFunc(func(m *Message) bool {
		order = append(order, m.Seq)
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 5, VNet: 1, Size: 2000}) // M1, slow
	k.At(1, func() {
		n.Send(&Message{Src: 0, Dst: 5, VNet: 1, Size: 8}) // M2, fast
	})
	drainAll(t, k)
	if len(order) != 2 {
		t.Fatalf("delivered %d, want 2", len(order))
	}
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("arrival order %v; adaptive routing should deliver M2 before M1", order)
	}
	if n.Stats().Reordered[1].Value() != 1 {
		t.Fatalf("reorder counter = %d, want 1", n.Stats().Reordered[1].Value())
	}
}

func TestAdaptiveDisabledRestoresOrder(t *testing.T) {
	// Forward-progress fallback (paper §3.1): with adaptive routing
	// disabled the same scenario stays in order.
	k := sim.NewKernel()
	n := New(k, AdaptiveConfig(4, 4, 1.0))
	n.SetAdaptiveDisabled(true)
	var order []uint64
	n.AttachClient(5, ClientFunc(func(m *Message) bool {
		order = append(order, m.Seq)
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 5, VNet: 1, Size: 2000})
	k.At(1, func() { n.Send(&Message{Src: 0, Dst: 5, VNet: 1, Size: 8}) })
	drainAll(t, k)
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("arrival order %v; static fallback must preserve order", order)
	}
}

func TestEndpointHeadOfLineBlockingAndKick(t *testing.T) {
	k := sim.NewKernel()
	cfg := SafeStaticConfig(4, 4, 1.0)
	n := New(k, cfg)
	blocked := true
	var delivered int
	n.AttachClient(1, ClientFunc(func(m *Message) bool {
		if blocked {
			return false
		}
		delivered++
		return true
	}))
	n.Send(&Message{Src: 0, Dst: 1, VNet: 0, Size: 8})
	drainAll(t, k)
	if delivered != 0 {
		t.Fatal("blocked client consumed a message")
	}
	if n.InFlight() != 1 {
		t.Fatalf("InFlight=%d want 1 while blocked", n.InFlight())
	}
	blocked = false
	n.Kick(1)
	drainAll(t, k)
	if delivered != 1 {
		t.Fatalf("delivered=%d after Kick, want 1", delivered)
	}
}

func TestSharedBufferEndpointBackpressure(t *testing.T) {
	// With shared buffers (no virtual networks) a stuck endpoint
	// backpressures into the fabric: Figure 2's enabling condition.
	k := sim.NewKernel()
	cfg := SimplifiedConfig(4, 4, 1.0, 2)
	n := New(k, cfg)
	n.AttachClient(1, ClientFunc(func(m *Message) bool { return false }))
	for i := 0; i < 40; i++ {
		n.Send(&Message{Src: 0, Dst: 1, VNet: 0, Size: 8})
	}
	if !k.Drain(1_000_000) {
		t.Fatal("did not quiesce")
	}
	if n.InFlight() != 40 {
		t.Fatalf("InFlight=%d want 40 (everything stuck)", n.InFlight())
	}
}

func TestSwitchDeadlockPossibleWithoutVCs(t *testing.T) {
	// Paper §4 / Figure 3: with one shared buffer class, tiny buffers
	// and adaptive routing, heavy all-to-all bursts can produce a
	// buffer-cycle deadlock: the kernel quiesces with messages stuck.
	// With the safe static+VC configuration the same traffic always
	// drains. Deadlock is timing-dependent, so we try several seeds and
	// require at least one deadlock without VCs and zero with them.
	deadlocks := 0
	for seed := uint64(0); seed < 20; seed++ {
		if runBurst(t, SimplifiedConfig(4, 4, 1.0, 1), seed) > 0 {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Fatal("no deadlock in 20 seeds with buffer size 1 and no VCs; model cannot reproduce Figure 3")
	}
	for seed := uint64(0); seed < 20; seed++ {
		if left := runBurst(t, SafeStaticConfig(4, 4, 1.0), seed); left != 0 {
			t.Fatalf("seed %d: safe static config deadlocked with %d stuck", seed, left)
		}
	}
}

// runBurst injects a dense synchronized all-to-all burst and returns the
// number of undelivered messages at quiescence.
func runBurst(t *testing.T, cfg Config, seed uint64) int {
	t.Helper()
	k := sim.NewKernel()
	n := New(k, cfg)
	r := sim.NewRNG(seed)
	for i := 0; i < 16; i++ {
		n.AttachClient(NodeID(i), ClientFunc(func(m *Message) bool { return true }))
	}
	for i := 0; i < 1200; i++ {
		src := NodeID(r.Intn(16))
		dst := NodeID(r.Intn(16))
		if src == dst {
			continue
		}
		at := sim.Time(r.Intn(40))
		v := r.Intn(4)
		k.At(at, func() {
			n.Send(&Message{Src: src, Dst: dst, VNet: v, Size: 72})
		})
	}
	if !k.Drain(80_000_000) {
		t.Fatal("kernel did not quiesce")
	}
	return n.InFlight()
}

func TestResetDropsInFlight(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 0.1))
	var delivered int
	n.AttachClient(10, ClientFunc(func(m *Message) bool {
		delivered++
		return true
	}))
	for i := 0; i < 10; i++ {
		n.Send(&Message{Src: 0, Dst: 10, VNet: 0, Size: 72})
	}
	k.Run(50) // partial progress only
	n.Reset()
	drainAll(t, k)
	if n.InFlight() != 0 {
		t.Fatalf("InFlight=%d after reset+drain", n.InFlight())
	}
	if delivered >= 10 {
		t.Fatalf("delivered=%d; reset should have dropped most messages", delivered)
	}
	// Network must be fully usable after reset.
	n.Send(&Message{Src: 0, Dst: 10, VNet: 0, Size: 8})
	before := delivered
	drainAll(t, k)
	if delivered != before+1 {
		t.Fatal("message after reset not delivered")
	}
}

func TestLatencyAndUtilizationStats(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1.0))
	n.AttachClient(2, ClientFunc(func(m *Message) bool { return true }))
	n.Send(&Message{Src: 0, Dst: 2, VNet: 0, Size: 64})
	drainAll(t, k)
	st := n.Stats()
	if st.Latency.N() != 1 {
		t.Fatalf("latency N=%d", st.Latency.N())
	}
	// 2 hops * (64 cycles serialization + 8 prop) = 144.
	if got := st.Latency.Mean(); got < 100 || got > 300 {
		t.Fatalf("latency mean=%v, expected ~144", got)
	}
	if u := st.MeanLinkUtilization(k.Now()); u <= 0 {
		t.Fatalf("mean link utilization=%v, want >0", u)
	}
	if st.Hops.Mean() != 2 {
		t.Fatalf("hops mean=%v want 2", st.Hops.Mean())
	}
}

func TestTopologyDistances(t *testing.T) {
	tp := topo{4, 4}
	cases := []struct {
		a, b NodeID
		d    int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 1} /* wrap */, {0, 5, 2}, {0, 15, 2}, {0, 10, 4},
	}
	for _, c := range cases {
		if got := tp.dist(c.a, c.b); got != c.d {
			t.Errorf("dist(%d,%d)=%d want %d", c.a, c.b, got, c.d)
		}
	}
}

func TestTopologyNeighborsInverse(t *testing.T) {
	tp := topo{4, 4}
	for n := NodeID(0); n < 16; n++ {
		for d := North; d <= West; d++ {
			nb := tp.neighbor(n, d)
			back := tp.neighbor(nb, opposite(d))
			if back != n {
				t.Fatalf("neighbor(%d,%s) then opposite != identity (%d)", n, PortName(d), back)
			}
		}
	}
}

func TestProductiveDirectionsReduceDistance(t *testing.T) {
	tp := topo{4, 4}
	for a := NodeID(0); a < 16; a++ {
		for b := NodeID(0); b < 16; b++ {
			if a == b {
				continue
			}
			var buf [4]int
			dirs := tp.productiveInto(a, b, &buf)
			if len(dirs) == 0 {
				t.Fatalf("no productive direction %d->%d", a, b)
			}
			for _, d := range dirs {
				if tp.dist(tp.neighbor(a, d), b) != tp.dist(a, b)-1 {
					t.Fatalf("dir %s from %d to %d not productive", PortName(d), a, b)
				}
			}
		}
	}
}

func TestStaticNextReachesDestination(t *testing.T) {
	tp := topo{4, 4}
	for a := NodeID(0); a < 16; a++ {
		for b := NodeID(0); b < 16; b++ {
			cur := a
			for hops := 0; cur != b; hops++ {
				if hops > 8 {
					t.Fatalf("static route %d->%d did not converge", a, b)
				}
				d, _ := tp.staticNext(cur, b)
				if d == Local {
					t.Fatalf("static route %d->%d stalled at %d", a, b, cur)
				}
				cur = tp.neighbor(cur, d)
			}
		}
	}
}

// TestRoutingTablesMatchTopology: on square, non-square, odd and
// minimal tori, the tables Build precomputes route exactly as topo's
// arithmetic does. For every (cur, dst) they give the same productive
// directions in the same order, the same static next hop and the same
// dateline flag; every switch's neighbour links lead where
// topo.neighbor says.
func TestRoutingTablesMatchTopology(t *testing.T) {
	for _, sz := range [][2]int{{2, 2}, {2, 3}, {3, 5}, {4, 4}, {5, 4}, {16, 16}, {32, 32}} {
		tp := topo{sz[0], sz[1]}
		n := New(sim.NewKernel(), Config{Width: tp.w, Height: tp.h, LinkBandwidth: 1, VNets: 1})
		for cur := NodeID(0); int(cur) < tp.nodes(); cur++ {
			s := n.sw[cur]
			for d := North; d <= West; d++ {
				if want := n.sw[tp.neighbor(cur, d)]; s.nb[d] != want {
					t.Fatalf("%dx%d: switch %d nb[%s] is switch %d, want %d", tp.w, tp.h, cur, PortName(d), s.nb[d].node, want.node)
				}
				if got, want := s.crosses(d), tp.crossesDatelineDir(cur, d); got != want {
					t.Fatalf("%dx%d: switch %d %s dateline %v, want %v", tp.w, tp.h, cur, PortName(d), got, want)
				}
			}
			for dst := NodeID(0); int(dst) < tp.nodes(); dst++ {
				var wantBuf, gotBuf [4]int
				want, got := tp.productiveInto(cur, dst, &wantBuf), n.rt.productiveInto(cur, dst, &gotBuf)
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d: productive %d->%d = %v, want %v", tp.w, tp.h, cur, dst, got, want)
				}
				wantDir, wantCross := tp.staticNext(cur, dst)
				gotDir := n.rt.staticNext(cur, dst)
				if gotDir != wantDir || (gotDir != Local && s.crosses(gotDir) != wantCross) {
					t.Fatalf("%dx%d: static %d->%d = %s (dateline %v), want %s (dateline %v)", tp.w, tp.h, cur, dst,
						PortName(gotDir), gotDir != Local && s.crosses(gotDir), PortName(wantDir), wantCross)
				}
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 1, Height: 4, LinkBandwidth: 1, VNets: 4},
		{Width: 4, Height: 4, LinkBandwidth: 0, VNets: 4},
		{Width: 4, Height: 4, LinkBandwidth: math.NaN(), VNets: 4},
		{Width: 4, Height: 4, LinkBandwidth: math.Inf(1), VNets: 4},
		{Width: 4, Height: 4, LinkBandwidth: 1, VNets: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := SafeStaticConfig(4, 4, 1).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestSendPanicsOnBadVNet(t *testing.T) {
	k := sim.NewKernel()
	n := New(k, SafeStaticConfig(4, 4, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("Send with out-of-range vnet did not panic")
		}
	}()
	n.Send(&Message{Src: 0, Dst: 1, VNet: 9})
}

// Property: every message injected under the safe configuration is
// eventually consumed, for arbitrary traffic (deadlock freedom of the
// dateline-VC dimension-order torus).
func TestSafeConfigDeadlockFreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		return runBurst(t, SafeStaticConfig(4, 4, 0.5), seed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: adaptive full-buffering config (paper footnote 1) also
// always drains — unlimited buffers cannot form a buffer cycle.
func TestAdaptiveFullBufferingDrainsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		return runBurst(t, AdaptiveConfig(4, 4, 0.5), seed) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, sim.Time) {
		k := sim.NewKernel()
		n := New(k, SimplifiedConfig(4, 4, 0.5, 8))
		r := sim.NewRNG(99)
		for i := 0; i < 16; i++ {
			n.AttachClient(NodeID(i), ClientFunc(func(m *Message) bool { return true }))
		}
		for i := 0; i < 500; i++ {
			src, dst := NodeID(r.Intn(16)), NodeID(r.Intn(16))
			at := sim.Time(r.Intn(1000))
			k.At(at, func() { n.Send(&Message{Src: src, Dst: dst, VNet: r.Intn(4), Size: 72}) })
		}
		k.Drain(10_000_000)
		return n.Stats().Consumed.Value(), k.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", c1, t1, c2, t2)
	}
}
