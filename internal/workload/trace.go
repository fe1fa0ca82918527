// Compact binary trace format: record a live run's per-node reference
// streams once, replay them bit-identically forever. A trace freezes
// the workload side of an experiment — replays produce byte-identical
// sweep artifacts at every -shards setting because the replay generator
// is just another Generator (deterministic, snapshot/restorable), so
// the conservative-window shard schedule sees exactly the stream the
// classic build does.
//
// Wire format (all integers are encoding/binary varints):
//
//	magic   "SPWT1"                      versioned: bump the digit
//	name    uvarint length + bytes       recorded workload's name
//	nodes   uvarint
//	per node:
//	  ops     uvarint                    record count (>= 1)
//	  bytes   uvarint                    encoded stream length
//	  stream  bytes
//
// Each record is uvarint(think<<1 | storeBit) followed by the
// zigzag-varint delta of the referenced *block* from the previous
// record's block (first record deltas from block 0). Block deltas
// rather than raw addresses keep sequential and hot streams to 2-3
// bytes per reference.
package workload

import (
	"encoding/binary"
	"fmt"
	"os"

	"specsimp/internal/coherence"
	"specsimp/internal/sim"
)

// traceMagic versions the wire format.
const traceMagic = "SPWT1"

// Trace is a decoded trace file: the recorded workload's name and one
// encoded reference stream per node. Streams stay varint-encoded in
// memory — the replay generator decodes on the fly, so a Trace costs
// its file size and replay snapshots are a byte offset.
type Trace struct {
	Name    string
	Nodes   int
	counts  []uint64 // records per node
	streams [][]byte
}

// Ops returns the number of recorded references for the given node
// (modulo the trace's node count, matching replay assignment).
func (t *Trace) Ops(node int) uint64 { return t.counts[node%t.Nodes] }

// Encode renders the trace in the wire format.
func (t *Trace) Encode() []byte {
	buf := []byte(traceMagic)
	buf = binary.AppendUvarint(buf, uint64(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = binary.AppendUvarint(buf, uint64(t.Nodes))
	for i := 0; i < t.Nodes; i++ {
		buf = binary.AppendUvarint(buf, t.counts[i])
		buf = binary.AppendUvarint(buf, uint64(len(t.streams[i])))
		buf = append(buf, t.streams[i]...)
	}
	return buf
}

// WriteFile writes the encoded trace to path.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}

// ReadTrace decodes and validates a trace image. Every stream is walked
// once here so replay can decode without error paths.
func ReadTrace(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic (want %q)", traceMagic)
	}
	data = data[len(traceMagic):]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated header")
		}
		data = data[n:]
		return v, nil
	}
	nameLen, err := next()
	if err != nil {
		return nil, err
	}
	if nameLen > uint64(len(data)) {
		return nil, fmt.Errorf("trace: truncated name")
	}
	t := &Trace{Name: string(data[:nameLen])}
	data = data[nameLen:]
	nodes, err := next()
	if err != nil {
		return nil, err
	}
	// Every node's stream takes at least one byte, so a count past the
	// bytes left is corrupt; checking it first keeps a few garbage bytes
	// from allocating tables for a million nodes.
	if nodes == 0 || nodes > 1<<20 || nodes > uint64(len(data)) {
		return nil, fmt.Errorf("trace: implausible node count %d", nodes)
	}
	t.Nodes = int(nodes)
	t.counts = make([]uint64, t.Nodes)
	t.streams = make([][]byte, t.Nodes)
	for i := 0; i < t.Nodes; i++ {
		ops, err := next()
		if err != nil {
			return nil, err
		}
		if ops == 0 {
			return nil, fmt.Errorf("trace: node %d has no records", i)
		}
		size, err := next()
		if err != nil {
			return nil, err
		}
		if size > uint64(len(data)) {
			return nil, fmt.Errorf("trace: node %d stream truncated", i)
		}
		t.counts[i] = ops
		t.streams[i] = data[:size]
		data = data[size:]
		if err := checkStream(t.streams[i], ops); err != nil {
			return nil, fmt.Errorf("trace: node %d: %w", i, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after the last stream", len(data))
	}
	return t, nil
}

// checkStream fully decodes one stream, verifying record count, varint
// framing, and that block numbers never go negative.
func checkStream(data []byte, ops uint64) error {
	var off uint64
	var block int64
	for rec := uint64(0); rec < ops; rec++ {
		_, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fmt.Errorf("record %d: bad think varint", rec)
		}
		off += uint64(n)
		delta, n := binary.Varint(data[off:])
		if n <= 0 {
			return fmt.Errorf("record %d: bad block varint", rec)
		}
		off += uint64(n)
		block += delta
		if block < 0 {
			return fmt.Errorf("record %d: negative block %d", rec, block)
		}
	}
	if off != uint64(len(data)) {
		return fmt.Errorf("stream has %d trailing bytes", uint64(len(data))-off)
	}
	return nil
}

// FromTrace loads a trace file as a workload Profile. The profile's
// Name is "trace:" plus the *recorded* workload's name — not the path —
// so replay artifacts are byte-identical wherever the file lives.
func FromTrace(path string) (Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Profile{}, fmt.Errorf("trace: %w", err)
	}
	t, err := ReadTrace(data)
	if err != nil {
		return Profile{}, fmt.Errorf("%s: %w", path, err)
	}
	return Profile{
		Name:        tracePrefix + t.Name,
		Description: fmt.Sprintf("recorded %s trace (%d nodes)", t.Name, t.Nodes),
		trace:       t,
	}, nil
}

// encodeOp appends one record to a stream, returning the new buffer and
// the op's block (the next record's delta baseline).
func encodeOp(buf []byte, op Op, prevBlock int64) ([]byte, int64) {
	store := uint64(0)
	if op.Kind == coherence.Store {
		store = 1
	}
	buf = binary.AppendUvarint(buf, uint64(op.Think)<<1|store)
	block := int64(op.Addr / coherence.BlockBytes)
	buf = binary.AppendVarint(buf, block-prevBlock)
	return buf, block
}

// TraceRecorder captures the streams a run consumes. Wrap each node's
// generator before handing it to the processor; every Advance into new
// territory logs the op it consumed. The log is the stream's high-water
// mark, not just its committed tail: SafetyNet rollbacks rewind the
// position but keep the records, because a replay of the run retraces
// the lost work too — ops consumed and then rolled back near the end of
// the recording must still be in the trace, or the replay runs off the
// stream mid-rollback and diverges. Re-execution after a rollback is
// deterministic, so the already-logged records match what is re-consumed.
type TraceRecorder struct {
	name  string
	nodes int
	logs  [][]Op
	pos   []uint64 // each node's current position in its log
	gens  []Generator
}

// NewTraceRecorder records a run of the named workload across nodes.
func NewTraceRecorder(name string, nodes int) *TraceRecorder {
	return &TraceRecorder{
		name:  name,
		nodes: nodes,
		logs:  make([][]Op, nodes),
		pos:   make([]uint64, nodes),
		gens:  make([]Generator, nodes),
	}
}

// Wrap returns a recording view of g for the given node.
func (r *TraceRecorder) Wrap(node int, g Generator) Generator {
	r.gens[node] = g
	return &recGen{rec: r, node: node, inner: g}
}

// Trace encodes everything recorded so far, plus each generator's
// still-pending op (peeked, never advanced) where the position sits at
// the high-water mark. Without the pending op a replay over the
// recording's own horizon would run out of records one op early and
// wrap, and the tail of the run would diverge; with it, a replay run
// reproduces the recording run's Results exactly.
func (r *TraceRecorder) Trace() *Trace {
	t := &Trace{Name: r.name, Nodes: r.nodes,
		counts: make([]uint64, r.nodes), streams: make([][]byte, r.nodes)}
	for i := 0; i < r.nodes; i++ {
		var buf []byte
		var prev int64
		n := uint64(0)
		for _, op := range r.logs[i] {
			buf, prev = encodeOp(buf, op, prev)
			n++
		}
		if r.gens[i] != nil && r.pos[i] == uint64(len(r.logs[i])) {
			buf, _ = encodeOp(buf, r.gens[i].Peek(), prev)
			n++
		}
		t.counts[i] = n
		t.streams[i] = buf
	}
	return t
}

// recGen interposes on a generator to log consumed ops. pos mirrors the
// inner generator's position; a Peek at the log's high-water mark
// appends (the op is observable the moment it is peeked — it can be
// issued to the protocol and then rolled back without ever advancing,
// and a faithful replay must retrace that too), while peeks below the
// mark (re-execution after a rollback) re-yield already-logged records.
type recGen struct {
	rec   *TraceRecorder
	node  int
	inner Generator
}

func (g *recGen) Name() string { return g.inner.Name() }

func (g *recGen) Peek() Op {
	op := g.inner.Peek()
	r, n := g.rec, g.node
	if r.pos[n] == uint64(len(r.logs[n])) {
		r.logs[n] = append(r.logs[n], op)
	}
	return op
}

func (g *recGen) Advance() {
	g.Peek() // the current op is logged even if never separately peeked
	g.rec.pos[g.node]++
	g.inner.Advance()
}

func (g *recGen) Snapshot() Snapshot { return g.inner.Snapshot() }

func (g *recGen) Restore(s Snapshot) {
	g.inner.Restore(s)
	g.rec.pos[g.node] = s.pos
}

// traceGen replays one node's recorded stream, decoding varints on the
// fly. Snapshot state is the byte offset (aux0) and previous block
// (aux1) — flat, like every other generator. A replay that outlives the
// recording wraps to the stream's start.
type traceGen struct {
	p    Profile
	data []byte
	cur  Op
	pos  uint64
	off  uint64 // byte offset of the next record
	prev int64  // previous record's block (delta baseline)
}

func newTraceGen(p Profile, node int) *traceGen {
	t := p.trace
	g := &traceGen{p: p, data: t.streams[node%t.Nodes]}
	g.generate()
	return g
}

// Name implements Generator.
func (g *traceGen) Name() string { return g.p.Name }

// Peek implements Generator.
func (g *traceGen) Peek() Op { return g.cur }

// Advance implements Generator.
func (g *traceGen) Advance() {
	g.pos++
	g.generate()
}

func (g *traceGen) generate() {
	if g.off >= uint64(len(g.data)) { // wrap: replay outlived the recording
		g.off, g.prev = 0, 0
	}
	tw, n := binary.Uvarint(g.data[g.off:])
	g.off += uint64(n)
	delta, n := binary.Varint(g.data[g.off:])
	g.off += uint64(n)
	g.prev += delta
	kind := coherence.Load
	if tw&1 == 1 {
		kind = coherence.Store
	}
	g.cur = Op{
		Addr:  coherence.Addr(g.prev) * coherence.BlockBytes,
		Kind:  kind,
		Think: sim.Time(tw >> 1),
	}
}

// Snapshot implements Generator.
func (g *traceGen) Snapshot() Snapshot {
	return Snapshot{cur: g.cur, pos: g.pos, aux0: g.off, aux1: uint64(g.prev)}
}

// Restore implements Generator.
func (g *traceGen) Restore(s Snapshot) {
	g.cur = s.cur
	g.pos = s.pos
	g.off = s.aux0
	g.prev = int64(s.aux1)
}
