package explore

import (
	"fmt"
	"slices"
)

// idSet is a small set of transition IDs, allocated lazily.
type idSet map[uint64]struct{}

func (s *idSet) add(id uint64) {
	if *s == nil {
		*s = make(idSet, 4)
	}
	(*s)[id] = struct{}{}
}

func (s idSet) has(id uint64) bool {
	_, ok := s[id]
	return ok
}

// sleepSet holds the transitions asleep at a state. Members are
// distinct: a transition joins only after it was explored from the
// state, and the scan skips members.
type sleepSet []Transition

func (s sleepSet) has(id uint64) bool {
	for _, t := range s {
		if t.ID == id {
			return true
		}
	}
	return false
}

// frame is one state on the DFS stack.
type frame struct {
	// via is the transition that produced this state from its parent
	// (unset on the root frame).
	via Transition

	enabled []Transition
	sleep   sleepSet // asleep on entry + completed sibling subtrees
	done    idSet    // explored from this state
	blocked idSet    // back-pressured at this state
}

// task is one independent subtree of the exploration: a choice prefix
// plus the sleep set its root inherited from already-dispatched
// sibling subtrees.
type task struct {
	choices   []uint64
	rootSleep []uint64
}

// maxVisited caps the visited-state table; beyond it, new states are
// explored but no longer recorded.
const maxVisited = 1 << 20

// engine explores one subtree sequentially. Backtracking restores
// model state by replaying the choice prefix from Reset (the models
// cannot snapshot), so the stack stores choices, not states.
type engine struct {
	cfg   Config
	m     Model
	res   Result
	stack []*frame
	// base counts the task-prefix frames at the bottom of the stack:
	// replayed and part of every path, but never explored from.
	base int

	enc     Enc
	visited map[uint64][]visitedEntry
	nstates int

	ebuf     []Transition
	keybuf   []uint64
	dirty    bool // model state is past the top frame; replay before Take
	maxDepth int  // live depth budget for this task
	aborted  bool
}

type visitedEntry struct {
	d2 uint64
	// sleeps holds the canonical (content-key, sorted) sleep sets this
	// state was explored under; a revisit whose sleep set is a
	// superset of any stored one is fully covered.
	sleeps [][]uint64
}

func newEngine(cfg Config, m Model) *engine {
	return &engine{cfg: cfg, m: m}
}

// runTask explores one subtree and returns its task-local result.
func (e *engine) runTask(t task) Result {
	e.res = Result{}
	e.stack = e.stack[:0]
	e.visited = make(map[uint64][]visitedEntry)
	e.nstates = 0
	e.dirty = false
	e.aborted = false
	e.maxDepth = e.cfg.MaxDepth + len(t.choices)
	e.base = len(t.choices)

	e.m.Reset()
	e.pushFrame(Transition{}, nil)
	for _, c := range t.choices {
		st := e.safeTake(c)
		if st != Progressed {
			e.abort(fmt.Sprintf("replay of task prefix diverged at %d (step result %d)", c, st))
			return e.res
		}
		e.res.Replayed++
		e.pushFrame(e.top().enabledByID(c), nil)
	}
	root := e.top()
	for _, id := range t.rootSleep {
		if tr := root.enabledByID(id); tr.ID == id {
			root.sleep = append(root.sleep, tr)
		}
	}
	if len(root.enabled) == 0 {
		e.terminalPath()
		return e.res
	}
	e.dfs()
	return e.res
}

// enabledByID returns the enabled transition with the given ID, or the
// zero Transition.
func (f *frame) enabledByID(id uint64) Transition {
	for _, t := range f.enabled {
		if t.ID == id {
			return t
		}
	}
	return Transition{}
}

func (e *engine) top() *frame {
	if len(e.stack) == 0 {
		return nil
	}
	return e.stack[len(e.stack)-1]
}

func (e *engine) abort(desc string) {
	e.recordViolation(desc)
	e.aborted = true
}

// pushFrame records the state the model currently sits in as a new
// stack frame reached via the given transition with the given entry
// sleep set.
func (e *engine) pushFrame(via Transition, sleep sleepSet) *frame {
	e.ebuf = e.m.Enabled(e.ebuf[:0])
	f := &frame{
		via:     via,
		enabled: append([]Transition(nil), e.ebuf...),
		sleep:   sleep,
	}
	e.stack = append(e.stack, f)
	return f
}

// popFrame drops the top frame. The completed subtree puts its entry
// transition to sleep in the parent, so sibling subtrees skip it until
// a dependent transition filters it out on descent.
func (e *engine) popFrame() {
	f := e.top()
	e.stack = e.stack[:len(e.stack)-1]
	if len(e.stack) > e.base && e.cfg.Reduction != ReduceNone {
		p := e.top()
		p.sleep = append(p.sleep, f.via)
	}
	e.dirty = true
}

// nextCandidate picks the first enabled transition that still needs
// exploring from f, honoring sleep/done/blocked.
func (e *engine) nextCandidate(f *frame) (Transition, bool) {
	for _, t := range f.enabled {
		if f.done.has(t.ID) || f.sleep.has(t.ID) || f.blocked.has(t.ID) {
			continue
		}
		return t, true
	}
	return Transition{}, false
}

func (e *engine) dfs() {
	for !e.aborted && len(e.stack) > e.base {
		f := e.top()
		if e.res.Paths >= e.cfg.MaxPaths {
			e.res.Truncated = true
			return
		}
		t, ok := e.nextCandidate(f)
		if !ok {
			e.finishFrame(f)
			e.popFrame()
			continue
		}
		if e.dirty && !e.replayToTop() {
			return
		}
		st, panicMsg := e.takeRecover(t.ID)
		if panicMsg != "" {
			f.done.add(t.ID)
			e.res.Paths++
			e.res.Transitions++
			e.recordViolationAt(t, "panic: "+panicMsg)
			e.dirty = true
			if e.cfg.Reduction != ReduceNone {
				f.sleep = append(f.sleep, t)
			}
			continue
		}
		switch st {
		case Blocked:
			f.blocked.add(t.ID)
		case Detected:
			f.done.add(t.ID)
			e.res.Transitions++
			e.stack = append(e.stack, &frame{via: t})
			e.terminalPath()
			e.popFrame()
		case Progressed:
			f.done.add(t.ID)
			e.res.Transitions++
			child := e.pushFrame(t, e.childSleep(f, t))
			switch {
			case len(child.enabled) == 0:
				e.terminalPath()
				e.popFrame()
			case len(e.stack)-1 > e.maxDepth:
				e.res.Paths++
				e.recordViolation(fmt.Sprintf("exceeded depth %d", e.cfg.MaxDepth))
				e.popFrame()
			case e.cfg.Reduction == ReduceSleep && e.visitedPrune(child):
				e.res.VisitedCut++
				e.popFrame()
			}
		}
	}
}

// childSleep carries the parent's sleep set down through t, waking
// every member dependent with t.
func (e *engine) childSleep(f *frame, t Transition) sleepSet {
	if e.cfg.Reduction == ReduceNone {
		return nil
	}
	var s sleepSet
	for _, u := range f.sleep {
		if DisjointCtrl(u, t) {
			s = append(s, u)
		}
	}
	return s
}

// finishFrame classifies a frame with no remaining candidates. A frame
// that explored nothing is either a sleep-set stub (an equivalent
// interleaving was explored elsewhere) or — when every transition is
// back-pressured with none asleep — a genuinely stuck state.
func (e *engine) finishFrame(f *frame) {
	if len(f.done) > 0 || len(f.enabled) == 0 {
		return
	}
	for _, t := range f.enabled {
		if f.sleep.has(t.ID) {
			e.res.SleepCut++
			return
		}
	}
	// All enabled transitions blocked: a real deadlock. Reposition the
	// model so Finish sees this state.
	if e.dirty && !e.replayToTop() {
		return
	}
	e.terminalPath()
}

// terminalPath accounts one maximal interleaving ending at the model's
// current state.
func (e *engine) terminalPath() {
	e.res.Paths++
	out := e.m.Finish()
	switch out.Status {
	case StatusCompleted:
		e.res.Completed++
		if out.Flagged {
			e.res.Flagged++
		}
	case StatusDetected:
		e.res.Detected++
	default:
		e.res.Stuck++
	}
	if out.Err != "" {
		e.recordViolation(out.Err)
	}
	if e.cfg.CollectTerminals {
		e.enc.Reset()
		e.m.Encode(&e.enc)
		if e.res.Terminals == nil {
			e.res.Terminals = make(map[Digest]int)
		}
		e.res.Terminals[e.enc.Digest()]++
	}
	e.dirty = true
}

// visitedPrune consults and updates the visited-state table for the
// just-pushed frame. A state is covered iff it was explored before
// under a sleep set no larger than the current one (classic sleep-set
// state caching: explored-from = enabled minus sleep, so a smaller
// stored sleep explored a superset).
func (e *engine) visitedPrune(f *frame) bool {
	e.enc.Reset()
	e.m.Encode(&e.enc)
	dg := e.enc.Digest()
	cur := e.sleepKeys(f.sleep)
	entries := e.visited[dg[0]]
	for i := range entries {
		if entries[i].d2 != dg[1] {
			continue
		}
		ent := &entries[i]
		for _, stored := range ent.sleeps {
			if subsetOf(stored, cur) {
				return true
			}
		}
		if e.nstates < maxVisited {
			ent.sleeps = keepMinimal(ent.sleeps, cur)
			e.nstates++
		}
		return false
	}
	if e.nstates < maxVisited {
		e.visited[dg[0]] = append(entries, visitedEntry{
			d2:     dg[1],
			sleeps: [][]uint64{cur},
		})
		e.nstates++
	}
	return false
}

// sleepKeys canonicalizes a sleep set as the sorted content keys of
// its members — comparable across different interleavings reaching
// the same state, unlike the execution-local IDs.
func (e *engine) sleepKeys(s sleepSet) []uint64 {
	e.keybuf = e.keybuf[:0]
	for _, t := range s {
		e.keybuf = append(e.keybuf, t.Key)
	}
	slices.Sort(e.keybuf)
	return append([]uint64(nil), e.keybuf...)
}

// subsetOf reports a ⊆ b for sorted slices (multiset semantics).
func subsetOf(a, b []uint64) bool {
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i >= len(b) || b[i] != v {
			return false
		}
		i++
	}
	return true
}

// keepMinimal adds cur to the stored sleep sets, dropping stored
// supersets of cur (they are now redundant for future pruning).
func keepMinimal(stored [][]uint64, cur []uint64) [][]uint64 {
	kept := stored[:0]
	for _, s := range stored {
		if !subsetOf(cur, s) {
			kept = append(kept, s)
		}
	}
	return append(kept, cur)
}

// replayToTop repositions the model at the top frame's state by
// resetting and re-taking the stack's choice sequence.
func (e *engine) replayToTop() bool {
	e.m.Reset()
	for i := 1; i < len(e.stack); i++ {
		id := e.stack[i].via.ID
		st := e.safeTake(id)
		if st != Progressed {
			e.abort(fmt.Sprintf("replay diverged at step %d id %d (step result %d)", i, id, st))
			return false
		}
		e.res.Replayed++
	}
	e.dirty = false
	return true
}

// safeTake is Take for replay paths, where a panic means divergence.
func (e *engine) safeTake(id uint64) (st Step) {
	st = Blocked
	defer func() {
		if r := recover(); r != nil {
			st = Blocked
		}
	}()
	return e.m.Take(id)
}

func (e *engine) takeRecover(id uint64) (st Step, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	st = e.m.Take(id)
	return st, ""
}

// recordViolationAt records a violation on the current path extended
// by one final transition (used when that transition itself failed).
func (e *engine) recordViolationAt(final Transition, desc string) {
	e.stack = append(e.stack, &frame{via: final})
	e.recordViolation(desc)
	e.stack = e.stack[:len(e.stack)-1]
}

// recordViolation captures the current path, rendering each step now
// (the model's per-path descriptions do not survive the next replay).
func (e *engine) recordViolation(desc string) {
	v := Violation{Desc: desc}
	for i := 1; i < len(e.stack); i++ {
		id := e.stack[i].via.ID
		v.Path = append(v.Path, id)
		v.Trace = append(v.Trace, e.m.Describe(id))
	}
	e.res.Violations = append(e.res.Violations, v)
}
