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
// of the current time live in a wheel of per-cycle buckets (append-order
// dispatch gives FIFO tie-breaking for free), and far-future events live
// in an overflow min-heap ordered by (when, seq) that migrates into the
// wheel as time advances. Scheduling and dispatch are O(1) amortized —
// the binary-heap log factor of the classic implementation is gone — and
// bucket storage is recycled, so a steady-state simulation allocates no
// scheduler memory at all.
//
// Two event forms are supported: closures (At/After) for cold paths, and
// typed handler events (AtEvent/AfterEvent) that carry two integers and a
// pointer to a pre-allocated Handler, so hot paths (switch arbitration,
// message arrival, protocol sends) schedule without allocating. A closure
// travels as a funcHandler, so both forms share one event layout.
//
// Scheduling writes an event's fields straight into a fresh slot of its
// wheel bucket, and dispatch fires through a pointer to that slot: a
// near event is never assembled on the stack and copied. Only events
// beyond the wheel horizon are copied, into the far heap.
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

// event is one scheduled handler invocation. Wheel buckets hold events
// in place; the far heap holds them by value. No event allocates.
type event struct {
	h      Handler
	a0, a1 uint64
	p      any
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

	// wheel[t&wheelMask] holds the events scheduled for time t, for
	// t in [now, now+wheelSize); within a bucket, append order is
	// dispatch order. Allocated lazily so the zero Kernel stays usable.
	wheel      [][]event
	wheelCount int // undispatched events in the wheel
	cellPos    int // dispatch cursor within the bucket at now

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

// wheelSlot appends an empty slot to the bucket for time t (which must
// be within the horizon), maintaining the occupancy bitmap, and returns
// it for the caller to fill in place. Recycled bucket storage is
// cleared, so extending within capacity yields a zero slot.
func (k *Kernel) wheelSlot(t Time) *event {
	if k.wheel == nil {
		k.wheel = make([][]event, wheelSize)
	}
	i := t & wheelMask
	cell := k.wheel[i]
	if n := len(cell); n < cap(cell) {
		cell = cell[:n+1]
	} else {
		cell = append(cell, event{})
	}
	k.wheel[i] = cell
	k.occ[i>>6] |= 1 << (i & 63)
	k.wheelCount++
	return &cell[len(cell)-1]
}

// recycleCell clears bucket i's storage and occupancy bit.
func (k *Kernel) recycleCell(i Time) {
	cell := k.wheel[i]
	clear(cell)
	k.wheel[i] = cell[:0]
	k.occ[i>>6] &^= 1 << (i & 63)
}

// nextOccupied returns the smallest time strictly after t whose wheel
// bucket holds events. It must only be called while such a bucket
// exists (wheelCount > 0 with the bucket at t exhausted and recycled).
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
			cell := k.wheel[k.now&wheelMask]
			if k.cellPos < len(cell) {
				return true
			}
			if len(cell) > 0 {
				// Bucket exhausted: drop event references for GC and
				// recycle the storage for a future cycle.
				k.recycleCell(k.now & wheelMask)
			}
			k.cellPos = 0
			if bounded && k.now >= limit {
				return false
			}
			// Jump to the next occupied bucket (wheelCount > 0 with the
			// current bucket recycled guarantees one exists). Far
			// events newly inside the horizon migrate after the jump;
			// they are all later than the jump target, since the skipped
			// cycles' buckets were empty and migration had already run
			// for every earlier horizon.
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
		if cp := k.currentCell(); cp != nil && len(*cp) > 0 {
			// All events in the current bucket were dispatched but the
			// bucket was not yet recycled (wheelCount hit zero mid-cell).
			k.recycleCell(k.now & wheelMask)
			k.cellPos = 0
		}
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

func (k *Kernel) currentCell() *[]event {
	if k.wheel == nil {
		return nil
	}
	return &k.wheel[k.now&wheelMask]
}

// dispatchOne fires the next event in the current bucket. The caller
// must have established readiness via advance.
func (k *Kernel) dispatchOne() {
	ev := &k.wheel[k.now&wheelMask][k.cellPos]
	// References are released in bulk when the bucket empties (advance
	// clears it); per-slot zeroing here would double the memclr work.
	k.cellPos++
	k.wheelCount--
	k.Executed++
	// The call reads the slot's fields before the handler runs, so a
	// handler that schedules into this bucket — and so may reallocate
	// it — cannot disturb its own arguments.
	ev.h.HandleEvent(ev.a0, ev.a1, ev.p)
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
	// Run left now == end-1 with that bucket fully dispatched but
	// possibly not yet recycled; recycle it before jumping so the slot
	// is clean when time wraps around the wheel.
	if cp := k.currentCell(); cp != nil && len(*cp) > 0 {
		k.recycleCell(k.now & wheelMask)
	}
	k.cellPos = 0
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
