package explore

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// toyOp is one message of the toy transition system the engine tests
// run on: executing it folds val into its controller's counter with a
// non-commutative update (so same-controller orders yield different
// states), then injects its spawn ops into the pending multiset.
type toyOp struct {
	tag   uint64 // content identity (Transition.Key)
	ctrl  int
	val   uint64
	spawn []*toyOp
	// blocked back-pressures the op while the predicate holds.
	blocked func(state []uint64) bool
	// panics makes execution panic when the predicate holds after the
	// fold — the toy analogue of an unspecified protocol transition.
	panics func(state []uint64) bool
	// detect marks the op as the designated mis-speculation: taking it
	// ends the path as Detected.
	detect bool
}

// toyModel implements Model over a set of root ops.
type toyModel struct {
	roots    []*toyOp
	nctrl    int
	state    []uint64
	pending  []uint64 // live IDs in mint order (= enumeration order)
	byID     map[uint64]*toyOp
	nextID   uint64
	detected bool
}

func newToy(nctrl int, roots []*toyOp) func() Model {
	return func() Model {
		return &toyModel{roots: roots, nctrl: nctrl}
	}
}

func (m *toyModel) Reset() {
	m.state = make([]uint64, m.nctrl)
	m.pending = m.pending[:0]
	m.byID = make(map[uint64]*toyOp)
	m.nextID = 0
	m.detected = false
	for _, op := range m.roots {
		m.inject(op)
	}
}

func (m *toyModel) inject(op *toyOp) {
	m.nextID++
	m.pending = append(m.pending, m.nextID)
	m.byID[m.nextID] = op
}

func (m *toyModel) Enabled(buf []Transition) []Transition {
	for _, id := range m.pending {
		op := m.byID[id]
		buf = append(buf, Transition{
			ID:   id,
			Key:  op.tag,
			Ctrl: int32(op.ctrl),
		})
	}
	return buf
}

func (m *toyModel) Take(id uint64) Step {
	var op *toyOp
	pos := -1
	for i, p := range m.pending {
		if p == id {
			op, pos = m.byID[id], i
			break
		}
	}
	if op == nil {
		panic(fmt.Sprintf("toy: take of non-pending id %d", id))
	}
	if op.blocked != nil && op.blocked(m.state) {
		return Blocked
	}
	m.pending = append(m.pending[:pos:pos], m.pending[pos+1:]...)
	if op.detect {
		m.detected = true
		m.pending = m.pending[:0]
		return Detected
	}
	m.state[op.ctrl] = m.state[op.ctrl]*1099511628211 + op.val
	if op.panics != nil && op.panics(m.state) {
		panic("toy: unspecified transition")
	}
	for _, sp := range op.spawn {
		m.inject(sp)
	}
	return Progressed
}

func (m *toyModel) Finish() PathOutcome {
	if m.detected {
		return PathOutcome{Status: StatusDetected}
	}
	if len(m.pending) > 0 {
		return PathOutcome{Status: StatusStuck,
			Err: fmt.Sprintf("stuck with %d ops pending", len(m.pending))}
	}
	return PathOutcome{Status: StatusCompleted}
}

func (m *toyModel) Encode(e *Enc) {
	for _, s := range m.state {
		e.U64(s)
	}
	e.Bool(m.detected)
	keys := make([]uint64, 0, len(m.pending))
	for _, id := range m.pending {
		keys = append(keys, m.byID[id].tag)
	}
	e.Multiset(keys)
}

func (m *toyModel) Describe(id uint64) string {
	if op := m.byID[id]; op != nil {
		return fmt.Sprintf("op#%d ctrl=%d val=%d", op.tag, op.ctrl, op.val)
	}
	return fmt.Sprintf("op id=%d", id)
}

var tagSeq uint64

func op(ctrl int, val uint64, spawn ...*toyOp) *toyOp {
	tagSeq++
	return &toyOp{tag: tagSeq, ctrl: ctrl, val: val, spawn: spawn}
}

func terminalKeys(t *testing.T, r Result) []Digest {
	t.Helper()
	if r.Terminals == nil {
		t.Fatal("terminals not collected")
	}
	keys := make([]Digest, 0, len(r.Terminals))
	for d := range r.Terminals {
		keys = append(keys, d)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	return keys
}

// runMode runs the toy under one reduction mode.
func runMode(t *testing.T, nm func() Model, red Reduction) Result {
	t.Helper()
	r := Run(Config{
		NewModel:         nm,
		Reduction:        red,
		CollectTerminals: true,
	})
	return r
}

// TestEquivalenceAcrossModes: every reduction mode must reach exactly
// the same set of terminal states — the soundness contract that lets
// the protocol proofs run reduced. The toy mixes same-controller
// races (order-visible), independent ops, and spawn chains.
func TestEquivalenceAcrossModes(t *testing.T) {
	roots := []*toyOp{
		op(0, 1, op(1, 7), op(2, 9)),
		op(0, 2),
		op(1, 3, op(0, 5)),
		op(2, 4),
		op(3, 8),
	}
	nm := newToy(4, roots)
	full := runMode(t, nm, ReduceNone)
	sleep := runMode(t, nm, ReduceSleep)
	for _, r := range []*Result{&full, &sleep} {
		if !r.Ok() {
			t.Fatalf("violations: %+v", r.Violations[0])
		}
		if r.Truncated {
			t.Fatal("truncated")
		}
	}
	fullT, sleepT := terminalKeys(t, full), terminalKeys(t, sleep)
	if !reflect.DeepEqual(fullT, sleepT) {
		t.Fatalf("sleep+dedup reached %d terminal states, full enumeration %d", len(sleepT), len(fullT))
	}
	if sleep.Paths >= full.Paths {
		t.Fatalf("no reduction: full=%d sleep=%d", full.Paths, sleep.Paths)
	}
	t.Logf("terminals=%d, paths: full=%d sleep=%d (cut %d+%d)",
		len(fullT), full.Paths, sleep.Paths, sleep.SleepCut, sleep.VisitedCut)
}

// TestReductionOnIndependentOps: n fully independent ops have n! full
// interleavings but a single Mazurkiewicz trace; sleep sets must
// collapse them by well over the 10x the acceptance bar asks from the
// protocol scenarios.
func TestReductionOnIndependentOps(t *testing.T) {
	var roots []*toyOp
	for i := 0; i < 6; i++ {
		roots = append(roots, op(i, uint64(i+1)))
	}
	nm := newToy(6, roots)
	full := runMode(t, nm, ReduceNone)
	sleep := runMode(t, nm, ReduceSleep)
	if full.Paths != 720 {
		t.Fatalf("full enumeration found %d paths, want 6! = 720", full.Paths)
	}
	if !sleep.Ok() || sleep.Completed == 0 {
		t.Fatalf("sleep: %+v", sleep)
	}
	if sleep.Paths*10 > full.Paths {
		t.Fatalf("sleep explored %d paths vs %d full: less than 10x reduction", sleep.Paths, full.Paths)
	}
	if !reflect.DeepEqual(terminalKeys(t, full), terminalKeys(t, sleep)) {
		t.Fatal("terminal states diverged")
	}
	t.Logf("6 independent ops: full=%d sleep=%d (%.0fx)", full.Paths, sleep.Paths,
		float64(full.Paths)/float64(sleep.Paths))
}

// TestBlockedTransitions: an op back-pressured until another op runs
// must not be misreported as stuck, and a permanently blocked op must.
func TestBlockedTransitions(t *testing.T) {
	consumer := op(1, 9)
	consumer.blocked = func(state []uint64) bool { return state[0] == 0 }
	roots := []*toyOp{op(0, 1), consumer}
	for _, red := range []Reduction{ReduceNone, ReduceSleep} {
		r := runMode(t, newToy(2, roots), red)
		if !r.Ok() {
			t.Fatalf("%v: %+v", red, r.Violations[0])
		}
		if r.Completed == 0 || r.Stuck != 0 {
			t.Fatalf("%v: completed=%d stuck=%d", red, r.Completed, r.Stuck)
		}
	}

	dead := op(0, 1)
	dead.blocked = func([]uint64) bool { return true }
	r := runMode(t, newToy(1, []*toyOp{dead}), ReduceSleep)
	if r.Stuck == 0 || r.Ok() {
		t.Fatalf("permanently blocked op not reported: %+v", r)
	}
	if r.Violations[0].Desc == "" {
		t.Fatal("stuck violation carries no description")
	}
}

// TestDetectionAndPanics: a designated detection ends paths as
// Detected in every mode; an order-dependent panic (the toy analogue
// of an unspecified transition) is found by every mode, with a
// non-empty reproducing trace.
func TestDetectionAndPanics(t *testing.T) {
	det := op(1, 5)
	det.detect = true
	roots := []*toyOp{op(0, 1), det, op(2, 3)}
	for _, red := range []Reduction{ReduceNone, ReduceSleep} {
		r := runMode(t, newToy(3, roots), red)
		if !r.Ok() {
			t.Fatalf("%v: %+v", red, r.Violations[0])
		}
		if r.Detected == 0 || r.Completed != 0 {
			t.Fatalf("%v: detected=%d completed=%d", red, r.Detected, r.Completed)
		}
	}

	// Panic only when ctrl 0 executed val 2 after val 1: exactly one
	// same-controller order is buggy.
	bomb := op(0, 2)
	bomb.panics = func(state []uint64) bool {
		return state[0] == 1*1099511628211+2
	}
	proots := []*toyOp{op(0, 1), bomb, op(1, 7)}
	for _, red := range []Reduction{ReduceNone, ReduceSleep} {
		r := runMode(t, newToy(2, proots), red)
		if r.Ok() {
			t.Fatalf("%v: order-dependent panic not found", red)
		}
		found := false
		for _, v := range r.Violations {
			if len(v.Path) == 0 || len(v.Trace) != len(v.Path) {
				t.Fatalf("%v: violation without reproducing trace: %+v", red, v)
			}
			found = true
		}
		if !found {
			t.Fatalf("%v: no violation recorded", red)
		}
	}
}

// TestMaxPathsTruncation: the budget stops the exploration and is
// reported.
func TestMaxPathsTruncation(t *testing.T) {
	var roots []*toyOp
	for i := 0; i < 6; i++ {
		roots = append(roots, op(i%2, uint64(i+1)))
	}
	r := Run(Config{NewModel: newToy(2, roots), Reduction: ReduceNone, MaxPaths: 5})
	if !r.Truncated {
		t.Fatalf("not truncated: %+v", r)
	}
}

// TestDepthGuard: a path longer than the depth limit — a protocol that
// never quiesces — is one violation naming the limit, not a hang and
// not a budget truncation.
func TestDepthGuard(t *testing.T) {
	var chain *toyOp
	for i := 0; i < 4100; i++ {
		if chain == nil {
			chain = op(0, uint64(i))
		} else {
			chain = op(0, uint64(i), chain)
		}
	}
	r := runMode(t, newToy(1, []*toyOp{chain}), ReduceSleep)
	if r.Paths != 1 || r.Truncated {
		t.Fatalf("paths=%d truncated=%v, want one untruncated path", r.Paths, r.Truncated)
	}
	if len(r.Violations) != 1 || r.Violations[0].Desc != "exceeded depth 4096" {
		t.Fatalf("violations %d, want one naming depth 4096: %+v", len(r.Violations), r.Violations)
	}
}
