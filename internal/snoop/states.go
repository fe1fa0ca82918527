package snoop

import (
	"fmt"

	"specsimp/internal/mem"
)

// Variant selects the full or speculatively simplified snooping protocol.
type Variant uint8

// Protocol variants.
const (
	// Full specifies the writeback double-race corner case.
	Full Variant = iota
	// Spec treats the corner case as a mis-speculation (paper §3.2).
	Spec
)

func (v Variant) String() string {
	if v == Full {
		return "full"
	}
	return "spec"
}

// SState is a snooping cache controller state.
type SState uint8

// Snooping cache states. Ownership and obligations bind at bus order.
// The stable states, the only ones a cache array holds, take their
// values from mem's MOSI numbering.
const (
	SI SState = mem.I
	SS SState = mem.S
	SO SState = mem.O
	SM SState = mem.M

	SISad SState = iota // GetS issued, awaiting own order
	SISd                // own GetS ordered, awaiting data
	SIMad               // GetM issued, awaiting own order (covers upgrades from S)
	SIMd                // own GetM ordered, awaiting data; queues supply obligations
	SOMad               // GetM issued while owner (O); serves forwards meanwhile

	SWBa  // PutM issued from M/O, still owner until a foreign GetM or own order
	SWBai // ownership transferred while PutM pending — the §3.2 transient

	numSStates
)

var sStateNames = [...]string{
	"I", "S", "O", "M",
	"IS_AD", "IS_D", "IM_AD", "IM_D", "OM_AD",
	"WB_A", "WB_AI",
}

func (s SState) String() string {
	if int(s) < len(sStateNames) {
		return sStateNames[s]
	}
	return fmt.Sprintf("SState(%d)", uint8(s))
}

// SEvent is a snooping cache controller event.
type SEvent uint8

// Snooping events. Own* are observations of this node's own ordered
// requests; Foreign* are other nodes'.
const (
	SEvLoad SEvent = iota
	SEvStore
	SEvReplace
	SEvOwnGetS
	SEvOwnGetM
	SEvOwnPutM
	SEvForeignGetS
	SEvForeignGetM
	SEvForeignPutM
	SEvData

	numSEvents
)

var sEventNames = [...]string{
	"Load", "Store", "Replace",
	"OwnGetS", "OwnGetM", "OwnPutM",
	"ForeignGetS", "ForeignGetM", "ForeignPutM",
	"Data",
}

func (e SEvent) String() string {
	if int(e) < len(sEventNames) {
		return sEventNames[e]
	}
	return fmt.Sprintf("SEvent(%d)", uint8(e))
}

type sKey struct {
	s SState
	e SEvent
}

// snoopSpecified lists each variant's specified (state, event) pairs.
// The single difference is {WB_AI, ForeignGetM}: the corner case the
// paper's designers initially overlooked. The Full variant specifies it
// (correctly, a no-op: ownership already moved to the first requestor);
// the Spec variant detects it and recovers.
//
//detlint:allow edgecontrol registration table filled once in init, read-only afterwards
var snoopSpecified = map[Variant]map[sKey]bool{}

func init() {
	common := []sKey{
		{SI, SEvLoad}, {SI, SEvStore},
		{SS, SEvLoad}, {SS, SEvStore}, {SS, SEvReplace},
		{SO, SEvLoad}, {SO, SEvStore}, {SO, SEvReplace},
		{SM, SEvLoad}, {SM, SEvStore}, {SM, SEvReplace},

		// Foreign requests at stable states.
		{SS, SEvForeignGetM},
		{SO, SEvForeignGetS}, {SO, SEvForeignGetM},
		{SM, SEvForeignGetS}, {SM, SEvForeignGetM},

		// Own-request ordering.
		{SISad, SEvOwnGetS},
		{SIMad, SEvOwnGetM},
		{SOMad, SEvOwnGetM},
		{SWBa, SEvOwnPutM},
		{SWBai, SEvOwnPutM},

		// Foreign requests during transients.
		{SISad, SEvForeignGetM}, // invalidates the S copy being upgraded? no: doom note below
		{SISd, SEvForeignGetM},  // dooms the incoming S copy
		{SIMad, SEvForeignGetM}, // invalidates a held S copy pre-order
		{SIMd, SEvForeignGetS},  // queue supply obligation
		{SIMd, SEvForeignGetM},  // queue supply obligation, close queue
		{SOMad, SEvForeignGetS}, // still owner: supply
		{SOMad, SEvForeignGetM}, // supply and lose ownership
		{SWBa, SEvForeignGetS},  // still owner: supply
		{SWBa, SEvForeignGetM},  // supply; ownership transfers -> WB_AI
		{SWBai, SEvForeignGetS}, // not owner; new owner supplies

		// Data arrival.
		{SISd, SEvData}, {SIMd, SEvData},
	}
	fullOnly := []sKey{
		// The overlooked transition: a second foreign RequestReadWrite
		// while the writeback is still unordered. Correct handling is a
		// no-op, but it must be *specified* to be handled.
		{SWBai, SEvForeignGetM},
	}
	snoopSpecified[Spec] = makeSSet(common)
	snoopSpecified[Full] = makeSSet(append(append([]sKey{}, common...), fullOnly...))
}

func makeSSet(keys []sKey) map[sKey]bool {
	m := make(map[sKey]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// Complexity counts states and specified transitions per variant
// (ablation A1 in DESIGN.md).
type Complexity struct {
	Variant     Variant
	States      int
	Transitions int
}

// ComplexityOf counts the specified transitions of a variant.
func ComplexityOf(v Variant) Complexity {
	states := map[SState]bool{}
	for k := range snoopSpecified[v] {
		states[k.s] = true
	}
	return Complexity{Variant: v, States: len(states), Transitions: len(snoopSpecified[v])}
}
