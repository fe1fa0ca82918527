// Package sim provides a deterministic discrete-event simulation kernel.
//
// All model components (network switches, cache controllers, processors,
// the SafetyNet checkpoint service) schedule work on a single Kernel.
// Events at the same timestamp fire in schedule order, so a run with a
// fixed seed is bit-for-bit reproducible — a property the reproduction
// methodology depends on (paper §5.2 runs each design point several times
// under controlled pseudo-random perturbation).
//
// # Scheduler structure
//
// The kernel is a bucketed calendar queue: events within wheelSize cycles
// of the current time live in a wheel of per-cycle buckets (FIFO lists,
// so dispatch order within a cycle is schedule order), and far-future
// events live in an overflow min-heap ordered by (when, seq) that
// migrates into the wheel as time advances. Scheduling and dispatch are
// O(1) amortized — the binary-heap log factor of the classic
// implementation is gone.
//
// Pending wheel events are held in one slot arena per kernel, and a
// bucket is only a head/tail pair of arena indices. A fired event's slot
// goes on a LIFO free list, so the next schedule reuses it while it is
// still in L1, and the arena grows only when the pending events outnumber
// its slots: a steady-state simulation allocates no scheduler memory.
// The arena replaced a backing array per bucket, each kept at the
// largest size its cycle ever reached; a 4×4 directory run's 4,096
// buckets ended holding 102,409 slots (4.9 MB) where the arena holds 46,
// and every fresh kernel regrew them all from empty.
//
// Two event forms are supported: closures (At/After) for cold paths, and
// typed handler events (AtEvent/AfterEvent) that carry two integers and a
// pointer to a pre-allocated Handler, so hot paths (switch arbitration,
// message arrival, protocol sends) schedule without allocating. A closure
// travels as a funcHandler, so both forms share one event layout.
//
// Scheduling writes an event's fields straight into its arena slot; only
// events beyond the wheel horizon are copied, into the far heap.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is simulated time in processor clock cycles.
type Time uint64

// Forever is a time later than any reachable simulation instant.
const Forever = Time(1<<63 - 1)

// Handler consumes a typed event. Implementations are long-lived model
// components (a switch, an endpoint, a protocol); the two integer
// arguments and the pointer payload carry everything a closure would
// otherwise capture, so scheduling a typed event allocates nothing.
type Handler interface {
	HandleEvent(a0, a1 uint64, p any)
}

// funcHandler adapts a closure to Handler. A func value is one pointer,
// so storing it in the Handler interface does not allocate.
type funcHandler func()

func (f funcHandler) HandleEvent(uint64, uint64, any) { f() }

// event is one scheduled handler invocation. The arena holds wheel
// events in place; the far heap holds them by value. No event allocates.
type event struct {
	h      Handler
	a0, a1 uint64
	p      any
}

// slot is an arena entry: a pending event linked to the next one in its
// bucket, or (once fired) to the next free slot. Index 0 is reserved to
// mean "none", so zero-valued indices are empty lists.
type slot struct {
	event
	next int32
}

const (
	wheelBits = 12
	// wheelSize is the near-future horizon in cycles: events scheduled
	// less than wheelSize cycles ahead go into per-cycle buckets.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// farEvent is an event beyond the wheel horizon, heap-ordered by
// (when, seq) so migration into the wheel preserves FIFO tie-breaking.
type farEvent struct {
	when Time
	seq  uint64
	ev   event
}

// Kernel is a discrete-event simulator. The zero value is ready to use.
type Kernel struct {
	now Time
	// Executed counts events dispatched since construction.
	Executed uint64

	// wheel[t&wheelMask] lists the events scheduled for time t, for t
	// in [now, now+wheelSize), as arena indices; list order is dispatch
	// order. slots[0] is the reserved "none" entry, so a zero head or
	// tail is an empty bucket and the zero Kernel stays usable.
	wheel      [wheelSize]struct{ head, tail int32 }
	slots      []slot
	free       int32 // head of the LIFO free-slot list, linked through next
	wheelCount int   // undispatched events in the wheel

	// occ is the wheel's bucket-occupancy bitmap (one bit per bucket):
	// advancing time jumps straight to the next set bit instead of
	// probing every cycle's bucket, so sparse schedules — a sharded
	// kernel owns only a slice of the machine's events — pay for the
	// events they have, not the cycles they span.
	occ [wheelSize / 64]uint64

	far    []farEvent // min-heap of events at or beyond now+wheelSize
	farSeq uint64
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return k.wheelCount + len(k.far) }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics: it would silently corrupt causality.
func (k *Kernel) At(t Time, fn func()) { k.AtEvent(t, funcHandler(fn), 0, 0, nil) }

// After schedules fn to run d cycles from now.
func (k *Kernel) After(d Time, fn func()) { k.AtEvent(k.now+d, funcHandler(fn), 0, 0, nil) }

// AtEvent schedules a typed event at absolute time t: h.HandleEvent(a0,
// a1, p) fires at t. Unlike At, it allocates nothing.
func (k *Kernel) AtEvent(t Time, h Handler, a0, a1 uint64, p any) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	if t-k.now >= wheelSize {
		k.farPush(farEvent{when: t, seq: k.farSeq, ev: event{h: h, a0: a0, a1: a1, p: p}})
		k.farSeq++
		return
	}
	ev := k.wheelSlot(t)
	ev.h, ev.a0, ev.a1, ev.p = h, a0, a1, p
}

// AfterEvent schedules a typed event d cycles from now.
func (k *Kernel) AfterEvent(d Time, h Handler, a0, a1 uint64, p any) {
	k.AtEvent(k.now+d, h, a0, a1, p)
}

// wheelSlot links a free arena slot at the tail of the bucket for time
// t (which must be within the horizon), maintaining the occupancy
// bitmap, and returns its event for the caller to fill in place.
func (k *Kernel) wheelSlot(t Time) *event {
	i := k.free
	if i == 0 {
		i = k.grow()
	}
	k.free, k.slots[i].next = k.slots[i].next, 0
	b := &k.wheel[t&wheelMask]
	if b.tail == 0 {
		b.head = i
		k.occ[(t&wheelMask)>>6] |= 1 << (t & 63)
	} else {
		k.slots[b.tail].next = i
	}
	b.tail = i
	k.wheelCount++
	return &k.slots[i].event
}

// grow appends a slot to the arena and returns its index. It runs only
// when the free list is empty, so the arena never outgrows the largest
// number of events pending in the wheel at once.
func (k *Kernel) grow() int32 {
	if len(k.slots) == 0 {
		k.slots = append(k.slots, slot{}) // index 0: "none"
	}
	k.slots = append(k.slots, slot{})
	return int32(len(k.slots) - 1)
}

// nextOccupied returns the smallest time strictly after t whose wheel
// bucket holds events. It must only be called while such a bucket
// exists (wheelCount > 0 with the bucket at t empty).
func (k *Kernel) nextOccupied(t Time) Time {
	cur := int(t & wheelMask)
	// First partial word: bits strictly above cur within its word.
	w := cur >> 6
	if rest := k.occ[w] &^ (uint64(1)<<uint((cur&63)+1) - 1); rest != 0 {
		return t + Time(w<<6+bits.TrailingZeros64(rest)-cur)
	}
	// Remaining words in circular order; the last step wraps back to
	// w's low bits (times past the wheel's wrap point).
	for step := 1; step <= len(k.occ); step++ {
		i := (w + step) & (len(k.occ) - 1)
		if k.occ[i] != 0 {
			dist := (i<<6 + bits.TrailingZeros64(k.occ[i]) - cur + wheelSize) & wheelMask
			return t + Time(dist)
		}
	}
	panic("sim: nextOccupied called on an empty wheel")
}

// migrate moves far-future events whose time has come within the wheel
// horizon into their buckets. It must run every time now advances, so
// that a bucket's append order equals global (when, seq) order.
func (k *Kernel) migrate() {
	horizon := k.now + wheelSize
	for len(k.far) > 0 && k.far[0].when < horizon {
		fe := k.farPop()
		*k.wheelSlot(fe.when) = fe.ev
	}
}

// advance positions now at the next pending event's time and reports
// whether an event is ready to dispatch at now. When bounded, now never
// exceeds limit: if the next event lies beyond limit (or none remains),
// advance stops with now == limit and returns false.
func (k *Kernel) advance(limit Time, bounded bool) bool {
	for {
		if bounded && k.now > limit {
			return false
		}
		if k.wheelCount > 0 {
			if k.wheel[k.now&wheelMask].head != 0 {
				return true
			}
			if bounded && k.now >= limit {
				return false
			}
			// Jump to the next occupied bucket (wheelCount > 0 with the
			// current bucket empty guarantees one exists). Far events
			// newly inside the horizon migrate after the jump; they are
			// all later than the jump target, since the skipped cycles'
			// buckets were empty and migration had already run for
			// every earlier horizon.
			next := k.nextOccupied(k.now)
			if bounded && next > limit {
				k.now = limit
				k.migrate()
				return false
			}
			k.now = next
			k.migrate()
			continue
		}
		// Wheel empty: jump straight to the earliest far event.
		if len(k.far) == 0 {
			if bounded && k.now < limit {
				k.now = limit
			}
			return false
		}
		if t := k.far[0].when; !bounded || t <= limit {
			k.now = t
		} else {
			// Stopping short of the next far event still advances now,
			// so far events newly inside the horizon MUST migrate here:
			// otherwise a subsequent schedule at the same timestamp
			// would enter its wheel bucket ahead of the older event,
			// breaking FIFO tie-breaking.
			k.now = limit
			k.migrate()
			return false
		}
		k.migrate()
	}
}

// dispatchOne fires the head of the current bucket. The caller must have
// established readiness via advance.
func (k *Kernel) dispatchOne() {
	t := k.now & wheelMask
	b := &k.wheel[t]
	i := b.head
	s := &k.slots[i]
	if b.head = s.next; b.head == 0 {
		b.tail = 0
		k.occ[t>>6] &^= 1 << (t & 63)
	}
	// Copy the event out and free its slot before the handler runs: the
	// handler may schedule into this bucket, reuse the slot or grow (and
	// so move) the arena, and free slots must hold no references.
	h, a0, a1, p := s.h, s.a0, s.a1, s.p
	s.h, s.p = nil, nil
	s.next, k.free = k.free, i
	k.wheelCount--
	k.Executed++
	h.HandleEvent(a0, a1, p)
}

// Step fires the next event, advancing time to it. It reports whether an
// event was available.
func (k *Kernel) Step() bool {
	if !k.advance(0, false) {
		return false
	}
	k.dispatchOne()
	return true
}

// Run fires events until no events remain or simulated time would exceed
// until. Events scheduled exactly at until still fire. It returns the
// number of events executed by this call.
func (k *Kernel) Run(until Time) uint64 {
	start := k.Executed
	for k.advance(until, true) {
		k.dispatchOne()
	}
	if k.now < until {
		k.now = until
	}
	return k.Executed - start
}

// RunWindow fires every event scheduled strictly before end and leaves
// now == end exactly, so the next schedule or dispatch happens "at" the
// window edge. It is the building block of conservative-window parallel
// execution (see Shards): a shard executes [now, end) and then all
// shards synchronize at end. It returns the number of events executed.
func (k *Kernel) RunWindow(end Time) uint64 {
	if end < k.now {
		panic(fmt.Sprintf("sim: window end %d before now %d", end, k.now))
	}
	if end == k.now {
		return 0
	}
	n := k.Run(end - 1)
	k.now = end
	// Far events newly inside the horizon must migrate now, so that
	// later schedules at the same timestamp append behind them.
	k.migrate()
	return n
}

// Drain fires all remaining events regardless of time. Useful in tests
// that must reach quiescence. maxEvents bounds runaway schedules; Drain
// returns false if the bound was hit with events still pending.
func (k *Kernel) Drain(maxEvents uint64) bool {
	for i := uint64(0); i < maxEvents; i++ {
		if !k.Step() {
			return true
		}
	}
	return k.Pending() == 0
}

// ---- far-future min-heap, ordered by (when, seq) ----

func (k *Kernel) farPush(fe farEvent) {
	k.far = append(k.far, fe)
	i := len(k.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !farLess(k.far[i], k.far[parent]) {
			break
		}
		k.far[i], k.far[parent] = k.far[parent], k.far[i]
		i = parent
	}
}

func (k *Kernel) farPop() farEvent {
	h := k.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = farEvent{}
	k.far = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && farLess(k.far[l], k.far[smallest]) {
			smallest = l
		}
		if r < n && farLess(k.far[r], k.far[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		k.far[i], k.far[smallest] = k.far[smallest], k.far[i]
		i = smallest
	}
	return top
}

func farLess(a, b farEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
