package main

import (
	"container/heap"
	"time"
)

// The reference kernel measures the host's speed alongside the units.
// A shared host's speed drifts by tens of percent over minutes, which
// moves every timing of a run together; the kernel is timed before each
// unit, and the run's timings are scaled by referenceNominal over its
// median time (hostScale), so they read as if taken at one nominal host
// speed. It uses only the standard library, so it is the same code on
// every commit the benchmark compares, and it mixes the simulator's
// kinds of work: an event heap, map lookups with small allocations, and
// random reads and writes over a table larger than the caches.

// referenceNominal is the kernel's nominal time: timings are reported
// as if the kernel had taken this long.
const referenceNominal = 0.15 // seconds

const (
	referenceIters = 300_000
	referenceTable = 1 << 21 // uint64s: 16 MB
)

var (
	refTable []uint64
	refSink  uint64
)

// refHeap is the kernel's event queue.
type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refNode struct{ v uint64 }

// referenceSeconds runs the reference kernel once and returns its host
// seconds.
func referenceSeconds() float64 {
	if refTable == nil {
		refTable = make([]uint64, referenceTable)
	}
	t0 := time.Now()
	h := make(refHeap, 0, 4096)
	m := make(map[uint64]*refNode, 1<<12)
	x := uint64(88172645463325252)
	for i := 0; i < referenceIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&h, x&0xffffff)
		if len(h) > 2048 {
			refSink += heap.Pop(&h).(uint64)
		}
		k := x & (1<<15 - 1)
		n := m[k]
		if n == nil || x&7 == 0 {
			n = &refNode{}
			m[k] = n
		}
		n.v += refTable[x&(referenceTable-1)]
		refTable[(x>>24)&(referenceTable-1)] ^= x
	}
	refSink += uint64(len(m))
	return time.Since(t0).Seconds()
}

// reference times the kernel once for the run.
func (b *bench) reference() { b.refs = append(b.refs, referenceSeconds()) }

// hostScale is the factor that takes the run's timings to the nominal
// host speed (1 if the kernel never ran).
func (b *bench) hostScale() float64 {
	if len(b.refs) == 0 {
		return 1
	}
	return referenceNominal / median(b.refs)
}

// setTimings records the run's end-to-end timings at the nominal host
// speed, and keeps the measured ones for the provenance line.
func (b *bench) setTimings(wall, setup, cyclesPerSec float64) {
	s := b.hostScale()
	b.raw = map[string]float64{"wall_s": wall, "setup_s": setup, "sim_cycles_per_s": cyclesPerSec}
	b.set("wall_s", wall*s)
	b.set("setup_s", setup*s)
	b.set("sim_cycles_per_s", cyclesPerSec/s)
}
