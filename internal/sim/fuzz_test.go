package sim

import (
	"testing"
)

// FuzzKernelSchedule drives byte-derived schedule sequences through
// the calendar-queue Kernel and the original heap scheduler
// (refkernel_test.go) and requires bit-identical dispatch orders — the
// determinism contract (time order, FIFO tie-breaking) under
// fuzzer-chosen shapes: same-instant ties, wheel-horizon straddles
// (deltas around 4096), far-heap migration, chunked bounded runs that
// stop short of pending events, and a byte-driven mix of closure and
// typed-handler events whose a0, a1 and p are all checked when they
// fire. (The kernel has no cancel primitive by design
// — recovery drops stale work via epoch checks in the protocol
// handlers — so cancellation is fuzzed at that layer's tests, not
// here.)
func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x09, 0x0a, 0x0b, 0x30, 0x31, 0x32, 0x33, 0x01}) // horizon straddles
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x07, 0x07}) // tie storms
	f.Add([]byte{0x41, 0x86, 0x13, 0xc8, 0x25, 0x9d, 0x5b, 0x70, 0x0c, 0x33})
	f.Fuzz(func(t *testing.T, data []byte) {
		type runner struct {
			s     scheduler
			typed bool // route some events through the typed path
			runTo func(Time)
		}
		run := func(r runner) ([]uint64, Time) {
			var log []uint64
			pos := 0
			next := func() byte {
				if pos >= len(data) {
					return 0
				}
				b := data[pos]
				pos++
				return b
			}
			// Deltas cover same-instant ties, the wheel horizon
			// (4096) and the far heap.
			deltas := []Time{0, 0, 1, 2, 5, 16, 100, 999, 4095, 4096, 4097, 20_000}
			var id uint64
			type payload struct{ id uint64 }
			h := &handlerAdapter{fn: func(a0, a1 uint64, p any) {
				if pl, ok := p.(*payload); a1 != a0*0x9e3779b97f4a7c15 || !ok || pl.id != a0 {
					t.Fatalf("typed event %d fired with a1=%#x, p=%v", a0, a1, p)
				}
				log = append(log, a0)
			}}
			var schedule func(depth int)
			schedule = func(depth int) {
				id++
				myID := id
				b := next()
				when := r.s.Now() + deltas[int(b)%len(deltas)]
				if r.typed && depth == 0 && b&0x80 != 0 {
					// Typed path for the production kernel, only for
					// leaf events whose closure body is just the log
					// append; the reference kernel (closures only)
					// consumed the same byte, so both schedule the
					// same instant with the same behavior.
					if k, ok := r.s.(*Kernel); ok {
						k.AtEvent(when, h, myID, myID*0x9e3779b97f4a7c15, &payload{myID})
						return
					}
				}
				r.s.At(when, func() {
					log = append(log, myID)
					if depth > 0 {
						for i, n := 0, int(next())%3; i < n; i++ {
							schedule(depth - 1)
						}
					}
				})
			}
			nroot := int(next())%16 + 1
			for i := 0; i < nroot; i++ {
				schedule(3)
			}
			// Chunked bounded runs interleaved with fresh schedules,
			// then drain.
			var lim Time
			for i, n := 0, int(next())%6; i < n; i++ {
				lim += Time(int(next())%9000 + 1)
				r.runTo(lim)
				schedule(1)
			}
			for i := 0; i < 1_000_000 && r.s.Step(); i++ {
			}
			return log, r.s.Now()
		}

		ref := &refKernel{}
		refLog, _ := run(runner{s: ref, runTo: func(until Time) {
			for len(ref.events) > 0 && ref.events[0].when <= until {
				ref.Step()
			}
			if ref.now < until {
				ref.now = until
			}
		}})

		k := NewKernel()
		newLog, _ := run(runner{s: k, typed: true, runTo: func(until Time) { k.Run(until) }})

		if len(refLog) != len(newLog) {
			t.Fatalf("dispatched %d events, reference dispatched %d", len(newLog), len(refLog))
		}
		for i := range refLog {
			if refLog[i] != newLog[i] {
				t.Fatalf("dispatch order diverges at %d: kernel=%d reference=%d", i, newLog[i], refLog[i])
			}
		}
		if k.Pending() != 0 {
			t.Fatalf("%d events left pending", k.Pending())
		}
	})
}
