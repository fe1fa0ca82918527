package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRunWindowMatchesRun pins RunWindow against plain Run: chopping a
// schedule into windows must fire the same events in the same order,
// including FIFO ties, wheel-horizon straddles and far-heap migration.
func TestRunWindowMatchesRun(t *testing.T) {
	build := func() (*Kernel, *[]int) {
		k := NewKernel()
		var order []int
		id := 0
		var chain func(at Time, depth int)
		chain = func(at Time, depth int) {
			id++
			me := id
			k.At(at, func() {
				order = append(order, me)
				if depth > 0 {
					chain(k.Now()+3, depth-1)
					chain(k.Now()+wheelSize+7, depth-1)
				}
			})
		}
		// Ties at one timestamp, short chains, and far-future events.
		for i := 0; i < 4; i++ {
			chain(10, 2)
		}
		chain(11, 3)
		chain(wheelSize+11, 2)
		chain(3*wheelSize+5, 1)
		return k, &order
	}

	ref, refOrder := build()
	ref.Run(5 * wheelSize)
	refN := ref.Executed

	for _, window := range []Time{1, 7, 18, wheelSize - 1, wheelSize + 3} {
		k, order := build()
		for k.Now() < 5*wheelSize {
			end := k.Now() + window
			if end > 5*wheelSize {
				k.Run(5 * wheelSize)
				break
			}
			k.RunWindow(end)
			if k.Now() != end {
				t.Fatalf("window %d: now=%d want %d", window, k.Now(), end)
			}
		}
		if k.Executed != refN {
			t.Fatalf("window %d: executed %d events, reference %d", window, k.Executed, refN)
		}
		if !reflect.DeepEqual(*order, *refOrder) {
			t.Fatalf("window %d: dispatch order diverged from plain Run", window)
		}
	}
}

// pingHandler is a toy cross-shard model: each node bounces typed
// events to a peer node with a fixed latency, recording its own
// dispatch sequence. Cross-shard hops go through Post; same-shard hops
// schedule directly (the model layer decides, as the network does).
type pingHandler struct {
	g       *Shards
	shardOf []int
	ring    []*pingHandler // all handlers of this model, node-indexed
	node    int
	peer    int
	latency Time
	log     *[]string
	hops    int
}

func (h *pingHandler) HandleEvent(a0, _ uint64, _ any) {
	*h.log = append(*h.log, fmt.Sprintf("n%d@%d:%d", h.node, h.g.Kernel(h.shardOf[h.node]).Now(), a0))
	if int(a0) >= h.hops {
		return
	}
	// Bounce to the peer one latency later.
	peerShard := h.shardOf[h.peer]
	when := h.g.Kernel(h.shardOf[h.node]).Now() + h.latency
	if peerShard == h.shardOf[h.node] {
		h.g.Kernel(peerShard).AtEvent(when, h.ring[h.peer], a0+1, 0, nil)
	} else {
		h.g.Post(h.shardOf[h.node], peerShard, when, h.ring[h.peer], a0+1, 0, nil)
	}
}

// buildPingModel wires an 8-node ring of bouncing handlers over
// nShards shards, returning the group and the node-indexed logs.
func buildPingModel(nShards int) (*Shards, [][]string, []*pingHandler) {
	const nodes = 8
	const latency = 5
	g := NewShards(nShards, latency)
	shardOf := make([]int, nodes)
	for n := range shardOf {
		shardOf[n] = n * nShards / nodes
	}
	logs := make([][]string, nodes)
	ring := make([]*pingHandler, nodes)
	for n := 0; n < nodes; n++ {
		ring[n] = &pingHandler{
			g: g, shardOf: shardOf, ring: ring, node: n, peer: (n + 3) % nodes,
			latency: latency, log: &logs[n], hops: 200,
		}
	}
	for n := 0; n < nodes; n++ {
		g.Kernel(shardOf[n]).AtEvent(Time(1+n%latency), ring[n], 0, 0, nil)
	}
	return g, logs, ring
}

// runPingModel runs the ring to `until` and returns the per-node
// dispatch logs (node-indexed so the comparison is partition-invariant).
func runPingModel(t *testing.T, nShards int, until Time) [][]string {
	t.Helper()
	g, logs, _ := buildPingModel(nShards)
	g.Run(until)
	for s := 0; s < nShards; s++ {
		if got := g.Kernel(s).Now(); got != until {
			t.Fatalf("shard %d stopped at %d, want %d", s, got, until)
		}
	}
	return logs
}

// TestShardsDeterministicAcrossCounts verifies the tentpole property at
// the engine level: the same model partitioned over 1, 2, 4 and 8
// shards dispatches identical per-node event sequences.
func TestShardsDeterministicAcrossCounts(t *testing.T) {
	ref := runPingModel(t, 1, 1000)
	total := 0
	for _, l := range ref {
		total += len(l)
	}
	if total < 100 {
		t.Fatalf("model too quiet to be a meaningful test: %d dispatches", total)
	}
	for _, n := range []int{2, 4, 8} {
		got := runPingModel(t, n, 1000)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d shards diverged from serial execution", n)
		}
	}
}

// TestShardsRepeatedRuns checks that consecutive Run calls continue
// cleanly (worker goroutines are joined between Runs) and reach the
// same state as one long Run.
func TestShardsRepeatedRuns(t *testing.T) {
	ref := runPingModel(t, 4, 1000)
	g, logs, _ := buildPingModel(4)
	for _, stop := range []Time{137, 138, 500, 1000} {
		g.Run(stop)
	}
	if !reflect.DeepEqual(logs, ref) {
		t.Fatal("chunked Runs diverged from one long Run")
	}
}

// TestShardsBoundaryFIFO checks that a boundary queue preserves the
// order of same-destination, same-timestamp events (the per-link FIFO
// guarantee the network's tie-breaking relies on).
func TestShardsBoundaryFIFO(t *testing.T) {
	g := NewShards(2, 4)
	var got []int
	sink := HandlerFunc(func(a0, _ uint64, _ any) { got = append(got, int(a0)) })
	// A shard-0 event at time 1 posts five same-timestamp events to
	// shard 1; they must fire in post order.
	g.Kernel(0).At(1, func() {
		for i := 0; i < 5; i++ {
			g.Post(0, 1, 8, sink, uint64(i), 0, nil)
		}
	})
	g.Run(20)
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary order %v, want %v", got, want)
	}
}

// TestShardsControlOrder checks control actions run at the first edge
// at or after their time, in schedule order, with kernels quiesced.
func TestShardsControlOrder(t *testing.T) {
	g := NewShards(2, 10)
	var seq []string
	g.At(5, func() { seq = append(seq, fmt.Sprintf("a@%d", g.Now())) })
	g.At(5, func() { seq = append(seq, fmt.Sprintf("b@%d", g.Now())) })
	g.At(0, func() {
		seq = append(seq, fmt.Sprintf("c@%d", g.Now()))
		g.After(12, func() { seq = append(seq, fmt.Sprintf("d@%d", g.Now())) })
	})
	g.Run(40)
	want := []string{"c@0", "a@10", "b@10", "d@20"}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("control sequence %v, want %v", seq, want)
	}
}

// HandlerFunc adapts a function to the Handler interface for tests.
type HandlerFunc func(a0, a1 uint64, p any)

// HandleEvent implements Handler.
func (f HandlerFunc) HandleEvent(a0, a1 uint64, p any) { f(a0, a1, p) }
