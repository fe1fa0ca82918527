// Package explore is a shared explicit-state model-checking engine for
// the coherence protocols: depth-first exploration of nondeterministic
// event orders (message deliveries, bus arbitration grants), pruned by
// sleep sets and canonical state hashing.
//
// The paper motivates speculation precisely by the cost of verifying
// protocols ("the state space explosion problem ... limits the
// viability of various formal verification methods"); the snooping
// corner case of §3.2 was found only "when randomized testing happened
// to uncover it". Enumerating *every* interleaving caps the provable
// scenarios at two blocks and two or three nodes. This engine prunes
// the exploration two ways, so the same proofs reach 3 blocks and 4
// nodes:
//
//   - Sleep sets (Godefroid): once an event has been explored from a
//     state, sibling branches carry it in a "sleep set" and never
//     re-execute it until a dependent event wakes it, cutting the
//     redundant permutations of commuting events.
//   - Canonical state hashing: each reached state is encoded
//     canonically (in-flight messages as sorted multisets, cache sets
//     in LRU-rank order, no simulation timestamps or sequence
//     numbers) and already-visited states prune the subtree, with the
//     classic sleep-subset side condition.
//
// Soundness: sleep sets preserve every reachable local state and every
// maximal-trace equivalence class, *provided* the independence
// relation is sound. The engine's relation (DisjointCtrl) is
// deliberately coarse: two transitions commute only when they target
// disjoint controllers (and neither is a globally-observed event such
// as a bus grant), which holds by construction for the protocol models
// — a delivery mutates only its destination controller plus the
// in-flight message multiset. State hashing composes soundly with
// sleep sets through the stored-sleep-subset rule.
//
// Parallelism: the exploration tree is split at a fixed fork depth
// into independent subtree tasks (each carrying its entry sleep set),
// executed by a bounded worker pool on per-worker model instances and
// merged in task order — results are bit-identical for every worker
// count, because the task decomposition depends only on the tree, not
// on scheduling. This is the bounded-frontier shape of irregular
// wavefront propagation on many-core (PAPERS.md).
package explore

import "fmt"

// CtrlGlobal marks a transition observed by every controller (a
// snooping bus grant): it is dependent with every other transition.
const CtrlGlobal int32 = -1

// Transition is one enabled nondeterministic choice at a state — for
// the protocol models, delivering one specific in-flight message or
// granting one queued bus request.
type Transition struct {
	// ID names the underlying event within the current execution: the
	// model assigns it at send/submit time from a deterministic
	// counter, so replaying a choice prefix reproduces the same IDs.
	// IDs from sibling branches are NOT comparable (each branch mints
	// its own), which is why visited-state bookkeeping uses Key.
	ID uint64
	// Key is a canonical content hash of the event (message kind,
	// addresses, endpoints — no send order, no timestamps): equal
	// events reached through different interleavings share a Key.
	Key uint64
	// Ctrl is the destination controller, or CtrlGlobal for events
	// observed by all controllers. The independence relation commutes
	// transitions with distinct non-global controllers.
	Ctrl int32
}

// Step is the result of executing one transition.
type Step uint8

// Step results.
const (
	// Progressed: the transition executed and internal events drained.
	Progressed Step = iota
	// Blocked: the event cannot be consumed in this state (resource
	// back-pressure); the model state is unchanged.
	Blocked
	// Detected: the transition triggered the protocol's designated
	// mis-speculation detection; the path is terminal.
	Detected
)

// Status classifies a terminal state.
type Status uint8

// Terminal statuses.
const (
	// StatusCompleted: the scripted workload finished with no
	// transaction in flight.
	StatusCompleted Status = iota
	// StatusDetected: the path ended at the designated detection.
	StatusDetected
	// StatusStuck: events remain but none can make progress, or the
	// script ended incomplete — a liveness violation.
	StatusStuck
)

// PathOutcome is the model's verdict on a terminal state. A non-empty
// Err is recorded as a violation with the path that produced it
// (invariant breakage, an unexpected detection, a stuck protocol).
// Flagged marks a completed path that reached the race its scenario
// targets; Result.Flagged says what that means per protocol.
type PathOutcome struct {
	Status  Status
	Flagged bool
	Err     string
}

// Model is a deterministic transition system under exploration. The
// engine owns the exploration order; the model owns the semantics.
// Models are single-goroutine; parallel exploration builds one model
// per worker via Config.NewModel.
type Model interface {
	// Reset restores the initial state (the engine replays choice
	// prefixes through Take after a Reset; replays must be exact).
	Reset()
	// Enabled appends the currently enabled transitions to buf and
	// returns it, in a deterministic order. An empty result means the
	// state is terminal (call Finish).
	Enabled(buf []Transition) []Transition
	// Take executes the transition with the given ID and drains the
	// model to quiescence. On Blocked the state must be unchanged.
	Take(id uint64) Step
	// Finish classifies the current (terminal) state.
	Finish() PathOutcome
	// Encode writes the canonical state encoding (no timestamps, no
	// sequence numbers, unordered queues as sorted multisets).
	Encode(e *Enc)
	// Describe renders the event behind id for counterexample output.
	// It is called only for IDs on the current path.
	Describe(id uint64) string
}

// Reduction selects the pruning discipline.
type Reduction uint8

// Reduction modes.
const (
	// ReduceSleep (the default) is Godefroid sleep sets with
	// visited-state pruning: every state explores all its non-slept
	// transitions, so it composes soundly with state dedup and with
	// the parallel frontier — the mode the proof runs use.
	ReduceSleep Reduction = iota
	// ReduceNone is full enumeration without state dedup, kept as the
	// oracle the sleep-set equivalence tests and reduction factors are
	// measured against.
	ReduceNone
)

func (r Reduction) String() string {
	if r == ReduceSleep {
		return "sleep"
	}
	return "none"
}

// Config bounds and parameterizes an exploration.
type Config struct {
	// NewModel builds one model instance; called once per worker.
	NewModel func() Model

	Reduction Reduction

	// MaxPaths caps executed interleavings (0 = 1<<20). The cap
	// applies per subtree task — at every worker count, since the
	// frontier decomposition is independent of Workers — so a run may
	// execute up to MaxPaths × Tasks paths in total.
	MaxPaths int
	// MaxDepth caps transitions per path (0 = 4096); exceeding it is
	// recorded as a violation, like the runaway guard it replaces.
	MaxDepth int

	// Workers bounds the worker pool (0 or 1 = serial execution of
	// the same task decomposition — results are identical for every
	// value).
	Workers int
	// ForkDepth is the frontier split depth (0 = 2). A negative value
	// does not fork: one task rooted at the initial state explores the
	// whole tree, so sleep sets and the visited table act across it —
	// the unforked tree the reduction factors are measured on. The
	// fork zone explores every transition not pruned by sleep-set
	// propagation, so the task decomposition depends only on the tree;
	// state dedup applies within tasks.
	ForkDepth int

	// CollectTerminals records the multiset of terminal-state digests
	// (tests compare them across Reduction modes: every mode must
	// reach the same terminal states).
	CollectTerminals bool
}

func (c Config) withDefaults() Config {
	if c.MaxPaths == 0 {
		c.MaxPaths = 1 << 20
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 4096
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.ForkDepth == 0 {
		c.ForkDepth = 2
	} else if c.ForkDepth < 0 {
		c.ForkDepth = 0 // single task rooted at the initial state
	}
	return c
}

// DisjointCtrl is the independence relation: two transitions commute
// iff both target specific, distinct controllers. It is sound for the
// protocol models because a delivery mutates only its destination
// controller and appends to the (order-free) in-flight message
// multiset.
func DisjointCtrl(a, b Transition) bool {
	return a.Ctrl != CtrlGlobal && b.Ctrl != CtrlGlobal && a.Ctrl != b.Ctrl
}

// Violation is one incorrect outcome with its reproducing path.
type Violation struct {
	// Path is the transition ID sequence from the initial state.
	Path []uint64
	// Trace renders each path step via Model.Describe.
	Trace []string
	// Desc is the failure: an invariant error, a panic (an
	// unspecified protocol transition), a stuck state, ...
	Desc string
}

// String renders the violation with its reproducing trace, one
// numbered step per line.
func (v Violation) String() string {
	s := fmt.Sprintf("path %v: %s", v.Path, v.Desc)
	for i, step := range v.Trace {
		s += fmt.Sprintf("\n      %2d. %s", i+1, step)
	}
	return s
}

// Digest is a 128-bit canonical state fingerprint.
type Digest [2]uint64

// Result summarizes an exploration.
type Result struct {
	// Paths counts maximal interleavings executed to a terminal state.
	Paths     int
	Completed int
	Detected  int
	Stuck     int
	// Flagged counts completed paths that reached the race the
	// scenario targets — evidence the exploration covers it. For the
	// directory protocol: the §3.1 writeback race fired (its WBRaces
	// counter grew). For the snooping protocol: the Full variant
	// absorbed the §3.2 corner through its specified transition
	// (CornerHandled grew), the race the Spec variant leaves to
	// speculation.
	Flagged int

	// SleepCut counts subtrees pruned because every remaining choice
	// was asleep (covered by an equivalent explored interleaving);
	// VisitedCut counts subtrees pruned at an already-visited state.
	// Each cut stands for at least one — usually many — interleavings
	// that full enumeration would have executed.
	SleepCut   int
	VisitedCut int

	// Transitions counts executed transitions on explored paths;
	// Replayed counts transitions re-executed to reposition the model
	// after backtracking (the price of snapshot-free state restore).
	Transitions uint64
	Replayed    uint64

	// Tasks is the number of parallel subtree tasks (1 when serial).
	Tasks     int
	Truncated bool

	Violations []Violation

	// Terminals is the terminal-state digest multiset, when collected.
	Terminals map[Digest]int
}

// Ok reports whether no violations were found.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// merge folds task-local results in deterministic task order.
func (r *Result) merge(t *Result) {
	r.Paths += t.Paths
	r.Completed += t.Completed
	r.Detected += t.Detected
	r.Stuck += t.Stuck
	r.Flagged += t.Flagged
	r.SleepCut += t.SleepCut
	r.VisitedCut += t.VisitedCut
	r.Transitions += t.Transitions
	r.Replayed += t.Replayed
	r.Truncated = r.Truncated || t.Truncated
	r.Violations = append(r.Violations, t.Violations...)
	if t.Terminals != nil {
		if r.Terminals == nil {
			r.Terminals = make(map[Digest]int, len(t.Terminals))
		}
		for d, n := range t.Terminals {
			r.Terminals[d] += n
		}
	}
}
