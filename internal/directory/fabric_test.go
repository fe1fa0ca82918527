package directory

import (
	"testing"

	"specsimp/internal/coherence"
	"specsimp/internal/network"
	"specsimp/internal/sim"
)

// testFabric is a scriptable transport: tests pick exactly which queued
// message is delivered next, so races that depend on message ordering
// (the whole point of §3.1) can be forced deterministically.
type testFabric struct {
	k       *sim.Kernel
	nodes   int
	clients []network.Client
	queue   []*network.Message
}

func newTestFabric(k *sim.Kernel, nodes int) *testFabric {
	return &testFabric{k: k, nodes: nodes, clients: make([]network.Client, nodes)}
}

func (f *testFabric) Send(m *network.Message)                         { f.queue = append(f.queue, m) }
func (f *testFabric) Kick(network.NodeID)                             {}
func (f *testFabric) AttachClient(n network.NodeID, c network.Client) { f.clients[n] = c }
func (f *testFabric) NumNodes() int                                   { return f.nodes }

func (f *testFabric) payload(m *network.Message) coherence.Msg {
	if cm, ok := m.Payload.(*coherence.Msg); ok {
		return *cm
	}
	return m.Payload.(coherence.Msg)
}

// deliverFirst delivers the oldest queued message matching pred,
// pumping the kernel first so delayed protocol sends are materialized.
// It reports whether a matching message was found and consumed.
func (f *testFabric) deliverFirst(t *testing.T, pred func(coherence.Msg, *network.Message) bool) bool {
	t.Helper()
	f.k.Drain(1_000_000)
	for i, m := range f.queue {
		if pred(f.payload(m), m) {
			// Unlink before delivering: the handler may clear the queue
			// (a scripted recovery does exactly that).
			f.queue = append(f.queue[:i:i], f.queue[i+1:]...)
			if !f.clients[m.Dst].Deliver(m) {
				t.Fatalf("scripted delivery refused: %v", f.payload(m))
			}
			f.k.Drain(1_000_000)
			return true
		}
	}
	return false
}

// deliverKind delivers the oldest queued message of the given kind.
func (f *testFabric) deliverKind(t *testing.T, k coherence.MsgKind) {
	t.Helper()
	if !f.deliverFirst(t, func(m coherence.Msg, _ *network.Message) bool { return m.Kind == k }) {
		t.Fatalf("no queued %s message; queue=%v", k, f.dump())
	}
}

// deliverAll delivers remaining messages FIFO until quiescent.
func (f *testFabric) deliverAll(t *testing.T) {
	t.Helper()
	for guard := 0; ; guard++ {
		if guard > 100_000 {
			t.Fatal("deliverAll did not quiesce")
		}
		f.k.Drain(1_000_000)
		if len(f.queue) == 0 {
			return
		}
		m := f.queue[0]
		f.queue = f.queue[1:]
		if !f.clients[m.Dst].Deliver(m) {
			f.queue = append(f.queue, m) // retry after others make progress
		}
	}
}

func (f *testFabric) dump() []string {
	var out []string
	for _, m := range f.queue {
		out = append(out, f.payload(m).String())
	}
	return out
}

// tinyConfig builds a 4-node config with a 1-set/2-way L2 so evictions
// and writebacks are easy to provoke.
func tinyConfig(v Variant) Config {
	c := DefaultConfig(4, v)
	c.L1Bytes, c.L1Ways = 64, 1
	c.L2Bytes, c.L2Ways = 2*64, 2
	return c
}

// mustNew builds a protocol whose configuration the test knows to be
// valid.
func mustNew(t *testing.T, k *sim.Kernel, net network.Fabric, cfg Config) *Protocol {
	t.Helper()
	p, err := NewChecked(k, net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scripted builds a protocol over a test fabric.
func scripted(t *testing.T, v Variant) (*sim.Kernel, *testFabric, *Protocol) {
	t.Helper()
	k := sim.NewKernel()
	f := newTestFabric(k, 4)
	p := mustNew(t, k, f, tinyConfig(v))
	return k, f, p
}

// doAccess performs a complete access, delivering all traffic FIFO.
func doAccess(t *testing.T, f *testFabric, p *Protocol, node coherence.NodeID, a coherence.Addr, kind coherence.AccessType) {
	t.Helper()
	completed := false
	p.Access(node, a, kind, func() { completed = true })
	f.deliverAll(t)
	if !completed {
		t.Fatalf("access node=%d addr=%#x %s never completed", node, uint64(a), kind)
	}
}
