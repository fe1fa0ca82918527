// Conservative-window parallel execution across shard kernels.
//
// A Shards group runs N kernels in lockstep lookahead windows: the
// model is partitioned so that every cross-shard interaction is a
// message with a known minimum latency L (for the torus interconnect, a
// link's serialization plus propagation delay). With window W <= L, a
// message sent during window [T, T+W) cannot arrive before T+W, so each
// shard can execute a whole window without observing the others — the
// classic conservative synchronous-window scheme (lookahead in the
// null-message tradition), applied here with barriers instead of
// per-link null messages because the torus couples every shard pair
// every window anyway.
//
// Cross-shard events travel through single-producer/single-consumer
// boundary queues (one per directed shard pair): the producing shard
// appends during its window, and the group drains every active queue at
// the next window edge, scheduling the entries into the destination
// kernels before any shard resumes. Draining preserves per-queue FIFO
// order, which together with per-link FIFO at the model layer is what
// makes the execution deterministic at any shard count (see the
// network package and DESIGN.md "Parallel intra-run DES" for the full
// argument). A per-pair lookahead table (SetLookahead) declares which
// directed pairs the model topology can couple and at what minimum
// latency: inactive pairs are pruned from the drain scan — on a 2D
// tile grid that turns the O(N^2) edge scan into O(5N) — and every
// Post is validated against its pair's floor.
//
// Global control — checkpoint orchestration, recovery, watchdog scans,
// anything that reads or writes more than one shard — runs only at
// window edges via At/After, single-threaded, with every kernel
// quiesced at the same instant. The group is therefore deterministic by
// construction: shard-local execution is sequential, cross-shard inputs
// arrive at deterministic points in deterministic order, and control
// runs at deterministic times.
package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Scheduler is the scheduling surface of global control: the current
// time, and closures at an absolute time or after a delay. Both *Kernel
// (the classic engine) and *Shards (the tile engine, where At and After
// round up to the next window edge, so closures never run inside a
// shard's window) implement it, and on either, events due in the same
// cycle fire in the order they were scheduled. Model code that needs
// global actions takes a Scheduler so it works under either engine.
type Scheduler interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
}

// PostedEvent is one cross-shard event in a boundary queue: a typed
// handler invocation addressed to a destination shard's kernel at an
// absolute time.
type PostedEvent struct {
	When   Time
	H      Handler
	A0, A1 uint64
	P      any
}

// ctlAction is one scheduled control closure; ordered by (at, seq) so
// same-edge actions run in schedule order.
type ctlAction struct {
	at  Time
	seq uint64
	fn  func()
}

// Shards executes a fixed set of kernels in conservative lockstep
// windows. Construct with NewShards, wire the model so every
// cross-shard event goes through Post, then Run.
//
// Threading contract: during a window, shard i's kernel (and any model
// state owned by shard i) is touched only by the goroutine running
// shard i; Post may be called only by the source shard's goroutine (or
// single-threaded outside Run). At/After and the hooks run
// single-threaded at window edges with all shards quiesced.
type Shards struct {
	window Time
	ks     []*Kernel
	now    Time

	// boxes[dst][src] is the SPSC boundary queue from shard src to
	// shard dst. Entries drain in (src, FIFO) order at each edge.
	boxes [][][]PostedEvent

	// look[dst][src] is the per-pair lookahead floor: the smallest
	// latency any cross-shard event on the directed pair src->dst can
	// have, or 0 when the pair is inactive (the model topology admits no
	// src->dst message; Post panics and the drain skips the queue).
	// NewShards defaults every pair to the window; SetLookahead installs
	// a model-derived table. The window is the min over active floors,
	// so a sparser topology prunes the per-edge drain scan from N^2 to
	// the active-pair count without shrinking the window.
	look [][]Time

	// srcs[dst] lists the active source shards for dst in ascending
	// order — the drain order, which matches the dense 0..N-1 scan the
	// fully-connected default performs (inactive queues are always
	// empty, so pruning them cannot change the schedule).
	srcs [][]int

	ctl    []ctlAction // min-heap by (at, seq)
	ctlSeq uint64

	// PreControl and PostControl, when non-nil, run at every window
	// edge around the scheduled control actions (PreControl first —
	// e.g. committing deferred recoveries; PostControl last — e.g.
	// granting slow-start issue tokens).
	PreControl  func(now Time)
	PostControl func(now Time)

	// preWindow hooks run as a separate parallel phase before each
	// window's execution phase (e.g. refreshing cross-shard congestion
	// mirrors from quiesced neighbor state).
	preWindow []func(shard int)

	// Worker barrier state (see run/worker): phase is bumped to release
	// workers into the job described by jobKind/jobBound; done counts
	// workers still executing it. Each worker owns a contiguous slice
	// of shards — nWorkers is capped at GOMAXPROCS because shard-to-
	// worker assignment cannot affect results (windows are independent
	// by construction), so an undersubscribed host degenerates to a
	// plain sequential loop with no barrier traffic at all. spinBudget
	// tunes the barrier: with a core per worker, spin briefly before
	// yielding (windows are microseconds; a futex round-trip is not
	// worth it); otherwise yield immediately — spinning would steal the
	// core another worker needs.
	phase      atomic.Uint64
	done       atomic.Int64
	jobKind    uint8
	jobBound   Time
	nWorkers   int
	spinBudget int
}

// Worker job kinds.
const (
	jobRunWindow = iota // RunWindow(jobBound)
	jobRunFinal         // Run(jobBound): inclusive final window
	jobDrain            // drain boundary queues into the shard's kernel
	jobPre              // preWindow hooks
	jobExit             // Run finished; workers return
)

// NewShards builds a group of n kernels advancing in windows of the
// given lookahead. All kernels start at time zero.
func NewShards(n int, window Time) *Shards {
	if n < 1 {
		panic("sim: shard count must be at least 1")
	}
	if window < 1 {
		panic("sim: shard window must be at least 1 cycle")
	}
	g := &Shards{window: window}
	g.ks = make([]*Kernel, n)
	for i := range g.ks {
		g.ks[i] = NewKernel()
	}
	g.boxes = make([][][]PostedEvent, n)
	for d := range g.boxes {
		g.boxes[d] = make([][]PostedEvent, n)
	}
	// Default topology: fully connected, every pair at the window floor.
	look := make([][]Time, n)
	for d := range look {
		look[d] = make([]Time, n)
		for s := range look[d] {
			look[d][s] = window
		}
	}
	g.SetLookahead(look)
	return g
}

// SetLookahead installs the per-pair lookahead table: look[dst][src] is
// the minimum latency of any cross-shard event on the directed pair
// src->dst, and 0 marks the pair inactive (no model message can couple
// src to dst; Post panics on it, and the edge drain skips its queue
// entirely). Self pairs count — same-shard switch-to-switch arrivals
// route through the boundary queues too, so bucket positions cannot
// depend on where a partition boundary falls.
//
// The group's window must not exceed any active floor: the window is
// exactly what guarantees a message sent during [T, T+W) cannot arrive
// before T+W, and an active pair with lookahead below W would break
// that. The min over active floors is therefore the widest legal
// window; NewShards callers derive the window from the same table.
func (g *Shards) SetLookahead(look [][]Time) {
	n := len(g.ks)
	if len(look) != n {
		panic(fmt.Sprintf("sim: lookahead table for %d shards, want %d", len(look), n))
	}
	srcs := make([][]int, n)
	for dst := range look {
		if len(look[dst]) != n {
			panic(fmt.Sprintf("sim: lookahead row %d has %d entries, want %d", dst, len(look[dst]), n))
		}
		for src, l := range look[dst] {
			if l == 0 {
				continue
			}
			if l < g.window {
				panic(fmt.Sprintf("sim: lookahead %d on pair %d->%d is below the %d-cycle window", l, src, dst, g.window))
			}
			srcs[dst] = append(srcs[dst], src)
		}
	}
	g.look, g.srcs = look, srcs
}

// N returns the number of shards.
func (g *Shards) N() int { return len(g.ks) }

// Kernel returns shard i's kernel.
func (g *Shards) Kernel(i int) *Kernel { return g.ks[i] }

// Window returns the lookahead window in cycles.
func (g *Shards) Window() Time { return g.window }

// Now returns the current edge time: every kernel sits exactly here
// between Run calls and during control.
func (g *Shards) Now() Time { return g.now }

// Post enqueues a cross-shard event: h.HandleEvent(a0, a1, p) fires at
// `when` on shard dst's kernel. Only the goroutine executing shard src
// may call it during a window. The event must respect the pair's
// lookahead floor: sent at t >= window start with latency >= the floor,
// it lands at or beyond start+floor — checked here, so a model message
// that undercuts its declared floor (or crosses an inactive pair) fails
// loudly instead of silently corrupting determinism.
func (g *Shards) Post(src, dst int, when Time, h Handler, a0, a1 uint64, p any) {
	switch l := g.look[dst][src]; {
	case l == 0:
		panic(fmt.Sprintf("sim: Post on inactive shard pair %d->%d (not in the lookahead topology)", src, dst))
	case when < g.now+l:
		panic(fmt.Sprintf("sim: Post at %d on pair %d->%d undercuts lookahead %d (window start %d)", when, src, dst, l, g.now))
	}
	g.boxes[dst][src] = append(g.boxes[dst][src], PostedEvent{When: when, H: h, A0: a0, A1: a1, P: p})
}

// PreWindow registers a hook run for every shard as a dedicated
// parallel phase before each window executes, after boundary queues
// have drained. Hooks may read any quiesced cross-shard state but may
// write only their own shard's.
func (g *Shards) PreWindow(fn func(shard int)) { g.preWindow = append(g.preWindow, fn) }

// At implements Scheduler: fn runs single-threaded at the first window
// edge at or after t. Call only from control context (hooks, other
// control actions) or while no Run is in progress.
func (g *Shards) At(t Time, fn func()) {
	g.ctlPush(ctlAction{at: t, seq: g.ctlSeq, fn: fn})
	g.ctlSeq++
}

// After implements Scheduler: fn runs at the first edge at or after
// now+d.
func (g *Shards) After(d Time, fn func()) { g.At(g.now+d, fn) }

// edge performs the single-threaded window-edge work: hooks and due
// control actions. Boundary-queue drains follow as a parallel phase
// (jobDrain) — after control, exactly where the serial drain sat, so
// the bucket-insertion order of control-scheduled events versus
// boundary arrivals at equal timestamps is unchanged.
func (g *Shards) edge() {
	if g.PreControl != nil {
		g.PreControl(g.now)
	}
	for len(g.ctl) > 0 && g.ctl[0].at <= g.now {
		g.ctlPop().fn()
	}
	if g.PostControl != nil {
		g.PostControl(g.now)
	}
}

// drain schedules shard dst's pending boundary events into its kernel,
// scanning only the active source pairs in ascending order — the same
// relative order as the dense scan, since inactive queues are always
// empty. Runs in the jobDrain phase: each shard's owner worker writes
// only that shard's kernel and reads queues the previous window's
// barrier already published, so the phase is race-free and its
// parallelism cannot reorder anything.
func (g *Shards) drain(dst int) {
	k := g.ks[dst]
	for _, src := range g.srcs[dst] {
		q := g.boxes[dst][src]
		for i := range q {
			e := &q[i]
			if e.When < g.now {
				panic(fmt.Sprintf("sim: boundary event at %d violates lookahead (edge %d, window %d)",
					e.When, g.now, g.window))
			}
			k.AtEvent(e.When, e.H, e.A0, e.A1, e.P)
		}
		clear(q)
		g.boxes[dst][src] = q[:0]
	}
}

// Run advances every shard to exactly `until`, executing windows in
// parallel and edges single-threaded. Events scheduled exactly at
// `until` still fire (matching Kernel.Run); control actions scheduled
// at `until` run at the next Run's first edge.
func (g *Shards) Run(until Time) {
	if until < g.now {
		panic(fmt.Sprintf("sim: Run(%d) before now %d", until, g.now))
	}
	g.nWorkers = len(g.ks)
	if max := runtime.GOMAXPROCS(0); g.nWorkers > max {
		g.nWorkers = max
	}
	single := g.nWorkers == 1
	if !single {
		g.startWorkers()
	}
	for {
		g.edge()
		g.parallel(jobDrain, 0, single)
		if len(g.preWindow) > 0 {
			g.parallel(jobPre, 0, single)
		}
		if end := g.now + g.window; end <= until {
			// Full window [now, end): fires events < end.
			g.parallel(jobRunWindow, end, single)
			g.now = end
			continue
		}
		// Final, possibly short, inclusive window [now, until]: it spans
		// until-now+1 <= window cycles, so sends within it still land
		// beyond until and wait in their boundary queues for a later Run.
		g.parallel(jobRunFinal, until, single)
		g.now = until
		break
	}
	if !single {
		g.release(jobExit, 0)
		g.awaitDone()
	}
}

// startWorkers spawns one goroutine per shard beyond the first; the
// calling goroutine acts as shard 0's worker. Workers live for one Run:
// Run's final jobExit release joins them before returning, so repeated
// Runs never double-subscribe a shard.
func (g *Shards) startWorkers() {
	// Spin only when the host has a core per shard (nWorkers was just
	// capped at GOMAXPROCS, so compare against the shard count).
	g.spinBudget = 64
	if runtime.GOMAXPROCS(0) < len(g.ks) {
		g.spinBudget = 0
	}
	base := g.phase.Load()
	for w := 1; w < g.nWorkers; w++ {
		go g.worker(w, base)
	}
}

// shardRange returns worker w's contiguous slice of shards.
func (g *Shards) shardRange(w int) (lo, hi int) {
	n := len(g.ks)
	lo = w * n / g.nWorkers
	hi = (w + 1) * n / g.nWorkers
	return
}

func (g *Shards) worker(w int, seen uint64) {
	for {
		seen = g.await(seen)
		kind, bound := g.jobKind, g.jobBound
		if kind == jobExit {
			g.done.Add(-1)
			return
		}
		g.doWork(w, kind, bound)
		g.done.Add(-1)
	}
}

// await spins (with Gosched backoff, so undersubscribed hosts stay
// live) until the phase counter moves past seen, returning the new
// value. Atomic loads/stores order the job fields around it.
func (g *Shards) await(seen uint64) uint64 {
	for spins := 0; ; spins++ {
		if p := g.phase.Load(); p != seen {
			return p
		}
		if spins >= g.spinBudget {
			runtime.Gosched()
		}
	}
}

// release publishes a job to the workers.
func (g *Shards) release(kind uint8, bound Time) {
	g.jobKind, g.jobBound = kind, bound
	g.done.Store(int64(g.nWorkers - 1))
	g.phase.Add(1)
}

// parallel runs one job across all shards: workers 1..nWorkers-1 take
// their shard slices, the caller runs worker 0's, then waits for the
// stragglers. With one worker it is a plain loop over every shard.
func (g *Shards) parallel(kind uint8, bound Time, single bool) {
	if !single {
		g.release(kind, bound)
	}
	g.doWork(0, kind, bound)
	if !single {
		g.awaitDone()
	}
}

// awaitDone waits for every worker to finish the current job; the
// atomic decrements order the workers' shard-state writes before the
// caller's subsequent reads.
func (g *Shards) awaitDone() {
	for spins := 0; g.done.Load() != 0; spins++ {
		if spins >= g.spinBudget {
			runtime.Gosched()
		}
	}
}

func (g *Shards) doWork(w int, kind uint8, bound Time) {
	lo, hi := g.shardRange(w)
	for shard := lo; shard < hi; shard++ {
		switch kind {
		case jobRunWindow:
			g.ks[shard].RunWindow(bound)
		case jobRunFinal:
			g.ks[shard].Run(bound)
		case jobDrain:
			g.drain(shard)
		case jobPre:
			for _, fn := range g.preWindow {
				fn(shard)
			}
		}
	}
}

// ---- control-action min-heap, ordered by (at, seq) ----

func (g *Shards) ctlPush(a ctlAction) {
	g.ctl = append(g.ctl, a)
	i := len(g.ctl) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ctlLess(g.ctl[i], g.ctl[parent]) {
			break
		}
		g.ctl[i], g.ctl[parent] = g.ctl[parent], g.ctl[i]
		i = parent
	}
}

func (g *Shards) ctlPop() ctlAction {
	h := g.ctl
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = ctlAction{}
	g.ctl = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && ctlLess(g.ctl[l], g.ctl[smallest]) {
			smallest = l
		}
		if r < n && ctlLess(g.ctl[r], g.ctl[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		g.ctl[i], g.ctl[smallest] = g.ctl[smallest], g.ctl[i]
		i = smallest
	}
	return top
}

func ctlLess(a, b ctlAction) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
