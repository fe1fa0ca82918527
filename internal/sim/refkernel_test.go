package sim

import (
	"container/heap"
	"testing"
)

// refKernel is the pre-calendar-queue scheduler — the original binary
// heap of (when, seq)-ordered closures — kept verbatim as the reference
// semantics oracle. TestKernelMatchesReferenceScheduler drives it and
// the production Kernel through an identical recorded scenario and
// requires bit-identical dispatch orders, pinning down the determinism
// contract (time order with FIFO tie-breaking) across the rewrite.
type refKernel struct {
	now      Time
	seq      uint64
	events   refHeap
	executed uint64
}

type refEvent struct {
	when Time
	seq  uint64
	fn   func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (k *refKernel) Now() Time { return k.now }

func (k *refKernel) At(t Time, fn func()) {
	if t < k.now {
		panic("ref: schedule in the past")
	}
	heap.Push(&k.events, &refEvent{when: t, seq: k.seq, fn: fn})
	k.seq++
}

func (k *refKernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	ev := heap.Pop(&k.events).(*refEvent)
	k.now = ev.when
	k.executed++
	ev.fn()
	return true
}

// scheduler is the common surface the scenario driver needs.
type scheduler interface {
	Now() Time
	At(Time, func())
	Step() bool
}

// handlerAdapter lets the scenario exercise the typed-event path of the
// production kernel while the reference kernel sees closures — both
// must dispatch the underlying action in the same global order.
type handlerAdapter struct{ fn func(a0, a1 uint64, p any) }

func (h *handlerAdapter) HandleEvent(a0, a1 uint64, p any) { h.fn(a0, a1, p) }

// recordScenario drives s through a fixed pseudo-random schedule and
// returns the dispatch order (event ids) plus the final time. Event ids
// are assigned at schedule time from a deterministic counter, so two
// schedulers with identical semantics produce identical logs. Deltas
// straddle the calendar wheel horizon (4096) to force far-heap
// migration, and repeat values (incl. 0) to force FIFO tie-breaks.
func recordScenario(s scheduler) ([]uint64, Time) {
	var log []uint64
	rng := NewRNG(0xdecade)
	deltas := []Time{0, 0, 1, 1, 2, 5, 16, 100, 999, 4095, 4096, 4097, 20_000}
	var id uint64
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		myID := id
		d := deltas[rng.Intn(len(deltas))]
		s.At(s.Now()+d, func() {
			log = append(log, myID)
			if depth > 0 {
				n := rng.Intn(4)
				for i := 0; i < n; i++ {
					schedule(depth - 1)
				}
			}
		})
	}
	for i := 0; i < 120; i++ {
		schedule(4)
	}
	for i := 0; i < 1_000_000 && s.Step(); i++ {
	}
	return log, s.Now()
}

// TestKernelMatchesReferenceScheduler: the calendar-queue kernel and the
// original heap scheduler dispatch a recorded scenario in the identical
// event order.
func TestKernelMatchesReferenceScheduler(t *testing.T) {
	ref := &refKernel{}
	refLog, refNow := recordScenario(ref)

	k := NewKernel()
	newLog, newNow := recordScenario(k)

	if len(refLog) != len(newLog) {
		t.Fatalf("dispatched %d events, reference dispatched %d", len(newLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != newLog[i] {
			t.Fatalf("dispatch order diverges at %d: kernel=%d reference=%d", i, newLog[i], refLog[i])
		}
	}
	if ref.executed != k.Executed {
		t.Fatalf("executed %d, reference %d", k.Executed, ref.executed)
	}
	if refNow != newNow {
		t.Fatalf("final time %d, reference %d", newNow, refNow)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events left pending", k.Pending())
	}
	t.Logf("scenario: %d events dispatched identically, final time %d", len(newLog), newNow)
}

// TestKernelBoundedRunPreservesFarFIFO: a bounded Run that stops short
// of a pending far-heap event must still migrate it into the wheel, so
// a later schedule at the same timestamp cannot overtake it.
func TestKernelBoundedRunPreservesFarFIFO(t *testing.T) {
	k := NewKernel()
	var got []string
	k.At(5000, func() { got = append(got, "A") }) // beyond horizon: far heap
	k.Run(4000)                                   // stops short; 5000 is now within horizon
	k.At(5000, func() { got = append(got, "B") }) // same timestamp, scheduled later
	k.Run(Forever)
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("same-timestamp order %v, want [A B]", got)
	}
}

// TestKernelBoundedRunMatchesReference replays the reference scenario
// through chunked bounded Runs, exercising the limit/migration paths
// the Step-only scenario never reaches.
func TestKernelBoundedRunMatchesReference(t *testing.T) {
	run := func(s scheduler, runTo func(Time)) []uint64 {
		var log []uint64
		rng := NewRNG(0xcab00d1e)
		deltas := []Time{0, 1, 7, 1500, 4095, 4096, 9000, 30_000}
		var id uint64
		var schedule func(depth int)
		schedule = func(depth int) {
			id++
			myID := id
			d := deltas[rng.Intn(len(deltas))]
			s.At(s.Now()+d, func() {
				log = append(log, myID)
				if depth > 0 {
					for i, n := 0, rng.Intn(4); i < n; i++ {
						schedule(depth - 1)
					}
				}
			})
		}
		for i := 0; i < 60; i++ {
			schedule(3)
		}
		for lim := Time(0); lim < 300_000; lim += 1111 {
			runTo(lim)
		}
		for s.Step() {
		}
		return log
	}

	ref := &refKernel{}
	refLog := run(ref, func(until Time) {
		for len(ref.events) > 0 && ref.events[0].when <= until {
			ref.Step()
		}
		if ref.now < until {
			ref.now = until
		}
	})
	k := NewKernel()
	newLog := run(k, func(until Time) { k.Run(until) })

	if len(refLog) != len(newLog) {
		t.Fatalf("dispatched %d events, reference dispatched %d", len(newLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != newLog[i] {
			t.Fatalf("dispatch order diverges at %d: kernel=%d reference=%d", i, newLog[i], refLog[i])
		}
	}
	t.Logf("chunked-run scenario: %d events dispatched identically", len(newLog))
}

// TestKernelTypedEventOrdering: typed events and closures scheduled for
// the same instant fire in schedule order, and far-future typed events
// migrate through the overflow heap in FIFO order.
func TestKernelTypedEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []uint64
	h := &handlerAdapter{fn: func(a0, _ uint64, _ any) { got = append(got, a0) }}
	// Same-instant mix, scheduled from id 1 upward.
	k.AtEvent(10_000, h, 1, 0, nil) // beyond the wheel horizon: far heap
	k.At(10_000, func() { got = append(got, 2) })
	k.AtEvent(10_000, h, 3, 0, nil)
	k.At(50, func() { got = append(got, 0) })
	k.Run(Forever)
	want := []uint64{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// slotPayload is the pointer argument of TestKernelBucketGrowthMidDispatch's
// typed events.
type slotPayload struct {
	id    uint64
	depth int
}

// TestKernelBucketGrowthMidDispatch: a typed handler that schedules more
// same-instant events than the slot arena can hold forces the arena to
// reallocate while the handler is being dispatched. Every handler must
// still see its own a0, a1 and p, and closures interleaved with typed
// events must fire in the reference scheduler's order.
func TestKernelBucketGrowthMidDispatch(t *testing.T) {
	const fan = 40 // same-instant children per event, beyond the arena's first capacity
	var grew int
	run := func(s scheduler, k *Kernel) []uint64 {
		var log []uint64
		var id uint64
		var schedule func(when Time, depth int)
		spawn := func(depth int) {
			if depth == 0 {
				return
			}
			for i := 0; i < fan; i++ {
				schedule(s.Now(), depth-1)
			}
			schedule(s.Now()+1, depth-1)
		}
		h := &handlerAdapter{fn: func(a0, a1 uint64, p any) {
			pl := p.(*slotPayload)
			before := &k.slots[0]
			spawn(pl.depth)
			if &k.slots[0] != before {
				grew++
			}
			if a1 != ^a0 || pl.id != a0 {
				t.Errorf("typed event %d fired with a1=%#x, payload id %d", a0, a1, pl.id)
			}
			log = append(log, a0)
		}}
		schedule = func(when Time, depth int) {
			id++
			myID := id
			if k != nil && myID%2 == 1 {
				k.AtEvent(when, h, myID, ^myID, &slotPayload{id: myID, depth: depth})
				return
			}
			s.At(when, func() {
				spawn(depth)
				log = append(log, myID)
			})
		}
		schedule(5, 2)
		schedule(5, 2)
		for s.Step() {
		}
		return log
	}

	refLog := run(&refKernel{}, nil)
	k := NewKernel()
	newLog := run(k, k)
	if grew == 0 {
		t.Fatal("no handler saw the arena reallocate: the scenario misses the case it pins")
	}
	if len(refLog) != len(newLog) {
		t.Fatalf("dispatched %d events, reference dispatched %d", len(newLog), len(refLog))
	}
	for i := range refLog {
		if refLog[i] != newLog[i] {
			t.Fatalf("dispatch order diverges at %d: kernel=%d reference=%d", i, newLog[i], refLog[i])
		}
	}
	t.Logf("%d events dispatched identically; %d typed handlers saw the arena reallocate", len(newLog), grew)
}
