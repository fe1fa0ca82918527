// Package directory implements the paper §3.1 MOSI directory cache
// coherence protocol in two variants:
//
//   - Full: a complete protocol for an unordered interconnect. It handles
//     the Writeback/ForwardedRequest race explicitly, which costs an extra
//     transient state (II_F), an extra message flavor (stale Writeback-
//     Acks), transaction-tagged duplicate-data tolerance at requestors,
//     and directory-side data forwarding on racing writebacks.
//   - Spec: the speculatively simplified protocol. It *relies* on
//     point-to-point ordering of the ForwardedRequest virtual network; a
//     cache without a valid copy that receives a forwarded request has
//     witnessed a violated ordering assumption and reports it as a
//     mis-speculation (paper §3.1 feature 2: "one specific invalid
//     transition in a cache coherence controller").
//
// Controllers keep transient state in transaction buffers (TBEs):
// request TBEs for in-flight GetS/GetM and a writeback TBE for in-flight
// PutM. Cache arrays hold only stable lines. The directory is blocking:
// while a transaction is in flight it queues later requests for the same
// block and completes on the requestor's FinalAck (the paper's fourth
// virtual network).
package directory

import (
	"fmt"

	"specsimp/internal/mem"
)

// Variant selects the full or the speculatively simplified protocol.
type Variant uint8

// Protocol variants.
const (
	// Full handles every race of the unordered network.
	Full Variant = iota
	// Spec relies on point-to-point ordering per virtual network and
	// treats its violation as a mis-speculation.
	Spec
)

func (v Variant) String() string {
	if v == Full {
		return "full"
	}
	return "spec"
}

// CState is a cache controller state (stable states live in the cache
// array; transients live in TBEs).
type CState uint8

// Cache controller states. The stable states, the only ones a cache
// array holds, take their values from mem's MOSI numbering.
const (
	CInv CState = mem.I // I
	CS   CState = mem.S // S: shared, clean
	CO   CState = mem.O // O: owned, dirty, sharers may exist
	CM   CState = mem.M // M: modified, exclusive

	// Request TBE states.
	CISd  CState = iota // IS_D: GetS issued, awaiting Data
	CIMad               // IM_AD: GetM issued, awaiting Data and acks
	CIMa                // IM_A: Data received, awaiting acks
	CSMad               // SM_AD: upgrade from S, awaiting Data and acks
	CSMa                // SM_A
	COMad               // OM_AD: upgrade from O (still owner), awaiting ack count
	COMa                // OM_A

	// Writeback TBE states.
	CWBa // WB_A: PutM issued, still owner until WBAck
	CIIa // II_A: served a FwdGetM while writing back; awaiting WBAck

	// Full-variant-only state.
	CIIf // II_F: got a stale WBAck; awaiting the doomed forward

	numCStates
)

var cStateNames = [...]string{
	"I", "S", "O", "M",
	"IS_D", "IM_AD", "IM_A", "SM_AD", "SM_A", "OM_AD", "OM_A",
	"WB_A", "II_A", "II_F",
}

func (s CState) String() string {
	if int(s) < len(cStateNames) {
		return cStateNames[s]
	}
	return fmt.Sprintf("CState(%d)", uint8(s))
}

// CEvent is a cache controller event.
type CEvent uint8

// Cache controller events.
const (
	EvLoad CEvent = iota
	EvStore
	EvReplace // eviction chosen this line as victim
	EvFwdGetS
	EvFwdGetM
	EvInv
	EvWBAck      // plain Writeback-Ack
	EvWBAckStale // Full only: WBAck flagged "a forward to you is still in flight"
	EvData
	EvDataDup // Full only: duplicate Data for an already-satisfied transaction
	EvAck

	numCEvents
)

var cEventNames = [...]string{
	"Load", "Store", "Replace", "FwdGetS", "FwdGetM", "Inv",
	"WBAck", "WBAckStale", "Data", "DataDup", "Ack",
}

func (e CEvent) String() string {
	if int(e) < len(cEventNames) {
		return cEventNames[e]
	}
	return fmt.Sprintf("CEvent(%d)", uint8(e))
}

// DState is a directory controller stable state. The directory also has
// a busy condition (transaction in flight, requests queued), tracked
// outside the entry so checkpoints only ever capture stable states.
type DState uint8

// Directory states.
const (
	DInv DState = iota // no cached copies
	DS                 // shared by >=1 caches, memory up to date
	DM                 // exclusively owned, memory stale
	DO                 // owned with sharers, memory stale

	numDStates
)

var dStateNames = [...]string{"DI", "DS", "DM", "DO"}

func (s DState) String() string {
	if int(s) < len(dStateNames) {
		return dStateNames[s]
	}
	return fmt.Sprintf("DState(%d)", uint8(s))
}

// DEvent is a directory controller event.
type DEvent uint8

// Directory events. PutMRace is a PutM arriving while the directory is
// busy with a transaction whose forward targets the PutM sender — the
// §3.1 race. The two variants handle it differently.
const (
	DEvGetS DEvent = iota
	DEvGetM
	DEvPutMOwner // PutM from the recorded owner
	DEvPutMStale // PutM from a node that is no longer owner
	DEvPutMRace  // PutM racing an in-flight forward to the sender
	DEvFinalAck

	numDEvents
)

var dEventNames = [...]string{"GetS", "GetM", "PutM(owner)", "PutM(stale)", "PutM(race)", "FinalAck"}

func (e DEvent) String() string {
	if int(e) < len(dEventNames) {
		return dEventNames[e]
	}
	return fmt.Sprintf("DEvent(%d)", uint8(e))
}

type cKey struct {
	s CState
	e CEvent
}

type dKey struct {
	s DState
	e DEvent
}

// cacheSpecified lists every (state, event) pair the cache controller of
// each variant specifies. A pair outside this table is, for the Spec
// variant's designated signature, a detected mis-speculation; anything
// else is a protocol bug. The table is the source of truth for the
// complexity comparison (DESIGN.md experiment A1).
//
//detlint:allow edgecontrol registration table filled once in init, read-only afterwards
var cacheSpecified = map[Variant]map[cKey]bool{}

// dirSpecified is the directory controller analogue.
//
//detlint:allow edgecontrol registration table filled once in init, read-only afterwards
var dirSpecified = map[Variant]map[dKey]bool{}

func init() {
	common := []cKey{
		// Processor-initiated, stable states.
		{CInv, EvLoad}, {CInv, EvStore},
		{CS, EvLoad}, {CS, EvStore}, {CS, EvReplace},
		{CO, EvLoad}, {CO, EvStore}, {CO, EvReplace},
		{CM, EvLoad}, {CM, EvStore}, {CM, EvReplace},

		// Forwarded requests at owners.
		{CM, EvFwdGetS}, {CM, EvFwdGetM},
		{CO, EvFwdGetS}, {CO, EvFwdGetM},
		// Forwarded requests during an owner upgrade (OM_AD holds O).
		{COMad, EvFwdGetS}, {COMad, EvFwdGetM},
		// Forwarded requests during writeback: still owner until WBAck.
		{CWBa, EvFwdGetS}, {CWBa, EvFwdGetM},

		// Invalidations (stale ones can arrive at any pre-ownership
		// transient because S evictions are silent).
		{CInv, EvInv}, {CS, EvInv},
		{CISd, EvInv}, {CIMad, EvInv}, {CSMad, EvInv},

		// Data and ack collection.
		{CISd, EvData},
		{CIMad, EvData}, {CIMad, EvAck},
		{CIMa, EvAck},
		{CSMad, EvData}, {CSMad, EvAck},
		{CSMa, EvAck},
		{COMad, EvData}, {COMad, EvAck},
		{COMa, EvAck},

		// Writeback completion.
		{CWBa, EvWBAck}, {CIIa, EvWBAck},
	}
	fullOnly := []cKey{
		// Race handling on the unordered network: the stale WBAck warns
		// that a forward is still in flight; II_F absorbs it.
		{CWBa, EvWBAckStale},
		{CIIa, EvWBAckStale},
		{CIIf, EvFwdGetS}, {CIIf, EvFwdGetM},
		// Duplicate data tolerance: the directory may also have
		// responded with the written-back data.
		{CIMa, EvDataDup}, {CSMa, EvDataDup}, {CM, EvDataDup}, {CO, EvDataDup},
	}
	cacheSpecified[Spec] = makeCSet(common)
	cacheSpecified[Full] = makeCSet(append(append([]cKey{}, common...), fullOnly...))

	dcommon := []dKey{
		{DInv, DEvGetS}, {DS, DEvGetS}, {DM, DEvGetS}, {DO, DEvGetS},
		{DInv, DEvGetM}, {DS, DEvGetM}, {DM, DEvGetM}, {DO, DEvGetM},
		{DM, DEvPutMOwner}, {DO, DEvPutMOwner},
		{DInv, DEvPutMStale}, {DS, DEvPutMStale},
		{DM, DEvPutMStale}, {DO, DEvPutMStale},
		// PutMRace and FinalAck occur while busy; the stable state at
		// busy time is recorded per transaction kind.
		{DM, DEvPutMRace}, {DO, DEvPutMRace},
		{DInv, DEvFinalAck}, {DS, DEvFinalAck}, {DM, DEvFinalAck}, {DO, DEvFinalAck},
	}
	dirSpecified[Spec] = makeDSet(dcommon)
	dirSpecified[Full] = makeDSet(dcommon)
}

func makeCSet(keys []cKey) map[cKey]bool {
	m := make(map[cKey]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func makeDSet(keys []dKey) map[dKey]bool {
	m := make(map[dKey]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// Complexity summarizes a variant's controller complexity for the A1
// ablation: the paper's argument is that the speculative protocol needs
// fewer states and transitions.
type Complexity struct {
	Variant          Variant
	CacheStates      int
	CacheTransitions int
	DirStates        int
	DirTransitions   int
	MessageKinds     int
}

// ComplexityOf counts states and specified transitions for a variant.
func ComplexityOf(v Variant) Complexity {
	states := map[CState]bool{}
	for k := range cacheSpecified[v] {
		states[k.s] = true
	}
	msgs := 10 // GetS GetM PutM FwdGetS FwdGetM Inv WBAck Data Ack FinalAck
	if v == Full {
		msgs += 2 // stale WBAck flavor, TID-tagged duplicate data
	}
	return Complexity{
		Variant:          v,
		CacheStates:      len(states),
		CacheTransitions: len(cacheSpecified[v]),
		DirStates:        int(numDStates),
		DirTransitions:   len(dirSpecified[v]),
		MessageKinds:     msgs,
	}
}
