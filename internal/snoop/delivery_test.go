package snoop

import (
	"reflect"
	"testing"

	"specsimp/internal/cache"
	"specsimp/internal/coherence"
	"specsimp/internal/network"
	"specsimp/internal/safetynet"
	"specsimp/internal/sim"
)

// The reference delivery is the broadcast the protocol's own delivery
// replaces: every cache and memory controller is a bus observer,
// attached in node order (cache i, then memory controller i), and a
// memory controller ignores the blocks it is not home to.

type cacheObserver struct{ c *sCacheCtrl }

func (o cacheObserver) OnOrdered(_ uint64, msg coherence.Msg) { o.c.onOrdered(msg) }

type homeObserver struct{ m *memCtrl }

func (o homeObserver) OnOrdered(_ uint64, msg coherence.Msg) {
	if o.m.p.Home(msg.Addr) == o.m.node {
		o.m.onOrdered(msg)
	}
}

// broadcastBus keeps the protocol from attaching itself, so the
// controllers can be attached instead.
type broadcastBus struct{ *Bus }

func (broadcastBus) Attach(BusObserver) {}

// deliveryRun is one 16-node protocol under the random driver, with a
// SafetyNet log whose one checkpoint is the empty machine.
type deliveryRun struct {
	k    *sim.Kernel
	data *network.Network
	bus  *Bus
	mgr  *safetynet.Manager
	p    *Protocol

	completed, detections int
}

func newDeliveryRun(v Variant, broadcast bool) *deliveryRun {
	k := sim.NewKernel()
	r := &deliveryRun{
		k:    k,
		data: network.New(k, network.SafeStaticConfig(4, 4, 0.8)),
		// A 40-cycle slot congests the bus; its queue widens the window
		// in which two foreign stores overtake a writeback, the §3.2
		// corner that Spec detects.
		bus: NewBus(k, BusConfig{Nodes: 16, ArbInterval: 40, DeliverLatency: 25}),
		mgr: safetynet.NewManager(k, safetynet.DefaultConfig(16, 1_000)),
	}
	cfg := DefaultConfig(16, v)
	cfg.L2Bytes, cfg.L2Ways = 4*64, 2 // two sets of two ways: constant evictions
	cfg.L1Bytes, cfg.L1Ways = 64, 1
	var net AddressNet = r.bus
	if broadcast {
		net = broadcastBus{r.bus}
	}
	r.p = New(k, net, r.data, cfg, r.mgr)
	r.mgr.TakeCheckpoint(nil)
	if broadcast {
		for i := range r.p.caches {
			r.bus.Attach(cacheObserver{r.p.caches[i]})
			r.bus.Attach(homeObserver{r.p.mems[i]})
		}
	}
	return r
}

// drive issues, from every node, ops seeded random loads and stores
// over nblocks blocks, which share the L2's two sets, and flushes a
// random block at random times. A Spec detection recovers as the system
// does, rolling the machine back to its empty checkpoint and resetting
// the fabrics and the transients, then re-issues the accesses it
// dropped.
func (r *deliveryRun) drive(seed uint64, ops, nblocks int) {
	const nodes = 16
	issue := make([]func(), nodes)
	left := make([]int, nodes)
	pending := make([]bool, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		rng := sim.NewRNG(seed*1_000_003 + uint64(n))
		block := func() coherence.Addr { return coherence.Addr(rng.Intn(nblocks) * coherence.BlockBytes) }
		left[n] = ops
		flushes := ops / 4
		issue[n] = func() {
			if left[n] == 0 {
				return
			}
			left[n]--
			kind := coherence.Load
			if rng.Bool(0.7) {
				kind = coherence.Store
			}
			pending[n] = true
			r.p.Access(coherence.NodeID(n), block(), kind, func() {
				pending[n] = false
				r.completed++
				r.k.After(sim.Time(rng.Intn(30)), issue[n])
			})
		}
		var flush func()
		flush = func() {
			if flushes == 0 {
				return
			}
			flushes--
			r.p.Flush(coherence.NodeID(n), block())
			r.k.After(sim.Time(20+rng.Intn(200)), flush)
		}
		r.k.At(sim.Time(rng.Intn(50)), issue[n])
		r.k.At(sim.Time(rng.Intn(200)), flush)
	}
	r.p.OnMisSpeculation = func(coherence.NodeID, string) {
		r.detections++
		r.mgr.Recover()
		r.data.Reset()
		r.p.ResetTransients()
		r.bus.Reset()
		for n := range pending {
			if pending[n] {
				pending[n] = false
				left[n]++
				r.k.After(1, issue[n])
			}
		}
	}
	r.k.Drain(50_000_000)
}

// l2Line is one valid L2 line with its set, in per-set LRU order.
type l2Line struct {
	set     int
	addr    coherence.Addr
	state   uint8
	version uint64
}

func l2Contents(c *sCacheCtrl) []l2Line {
	var ls []l2Line
	c.L2.ForEachSetLRU(func(set int, l *cache.Line) {
		ls = append(ls, l2Line{set, l.Addr, l.State, l.Version})
	})
	return ls
}

// TestDeliveryMatchesBroadcast runs the same seeded traffic through a
// protocol built by New, which calls only the controllers its index
// names, and through the reference broadcast to every controller. Both
// must end in the same state at the same time: the skipped calls are
// no-ops.
func TestDeliveryMatchesBroadcast(t *testing.T) {
	const nblocks = 32
	var writebacks, detections, ordered uint64
	for _, v := range []Variant{Full, Spec} {
		for seed := uint64(1); seed <= 6; seed++ {
			got, want := newDeliveryRun(v, false), newDeliveryRun(v, true)
			if n := len(got.bus.observers); n != 1 {
				t.Fatalf("New attached %d bus observers, want 1", n)
			}
			got.drive(seed, 150, nblocks)
			want.drive(seed, 150, nblocks)
			name := v.String()
			if g, w := got.p.Bus().Ordered(), want.p.Bus().Ordered(); g != w {
				t.Fatalf("%s seed %d: %d requests ordered, broadcast ordered %d", name, seed, g, w)
			}
			if g, w := got.k.Now(), want.k.Now(); g != w {
				t.Fatalf("%s seed %d: ended at %d, broadcast at %d", name, seed, g, w)
			}
			if got.completed != want.completed || got.detections != want.detections {
				t.Fatalf("%s seed %d: %d accesses and %d detections, broadcast %d and %d",
					name, seed, got.completed, got.detections, want.completed, want.detections)
			}
			if !reflect.DeepEqual(*got.p.Stats(), *want.p.Stats()) {
				t.Fatalf("%s seed %d: stats %+v, broadcast %+v", name, seed, *got.p.Stats(), *want.p.Stats())
			}
			for n := range got.p.caches {
				if g, w := l2Contents(got.p.caches[n]), l2Contents(want.p.caches[n]); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s seed %d: node %d L2 %v, broadcast %v", name, seed, n, g, w)
				}
				if g, w := got.p.mems[n].owner, want.p.mems[n].owner; !reflect.DeepEqual(g, w) {
					t.Fatalf("%s seed %d: node %d owner records %v, broadcast %v", name, seed, n, g, w)
				}
			}
			for b := 0; b < nblocks; b++ {
				a := coherence.Addr(b * coherence.BlockBytes)
				if g, w := got.p.MemVersion(a), want.p.MemVersion(a); g != w {
					t.Fatalf("%s seed %d: memory version of %#x %d, broadcast %d", name, seed, uint64(a), g, w)
				}
			}
			// Every access completes, recoveries re-issuing the dropped
			// ones, and the machine ends quiescent and coherent, index
			// included.
			if got.completed != 16*150 {
				t.Fatalf("%s seed %d: %d of %d accesses completed", name, seed, got.completed, 16*150)
			}
			if err := got.p.AuditInvariants(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			writebacks += got.p.Stats().Writebacks.Value()
			detections += uint64(got.detections)
			ordered += got.p.Bus().Ordered()
		}
	}
	// The comparison proves nothing about paths the traffic missed.
	if writebacks == 0 || detections == 0 {
		t.Fatalf("%d writebacks and %d Spec detections over all runs; want both", writebacks, detections)
	}
	t.Logf("%d ordered requests, %d writebacks, %d detections", ordered, writebacks, detections)
}
