package main

// CPU-profile aggregation: a runtime/pprof profile (gzipped protobuf)
// reduced to the benchmark's per-layer table. Standard library only —
// the protobuf subset the profile format uses is decoded by hand.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// stackSample is one profile sample: its call stack as function names,
// leaf first with inlined frames expanded, and its CPU time.
type stackSample struct {
	funcs []string
	nanos int64
}

// profileTable is the per-layer view of one or more CPU profiles. Every
// share is a fraction of the profiles' total CPU time.
//
//   - Self charges each sample to its innermost repo frame's layer (the
//     internal/ package, or "perfbench" for the benchmark's own code), so
//     map lookups and allocations count against the layer that made
//     them; samples with no repo frame go to "runtime.gc" or
//     "runtime.sched". Self shares sum to 1.
//   - Leaf shares count samples by leaf frame alone ("runtime.maps",
//     "runtime.malloc"), whoever called them; they overlap Self.
//   - Under holds cumulative CPU time under the named phases (a sample
//     counts once per phase however many of its frames match).
type profileTable struct {
	TotalNanos int64              `json:"total_ns"`
	Self       map[string]float64 `json:"self"`
	Leaf       map[string]float64 `json:"leaf"`
	Under      map[string]int64   `json:"under_ns"`
}

// phaseFuncs names the frames whose cumulative time makes up each phase.
var phaseFuncs = map[string][]string{
	"sim.window":           {"specsimp/internal/sim.(*Kernel).RunWindow", "specsimp/internal/sim.(*Kernel).Run"},
	"sim.barrier":          {"specsimp/internal/sim.(*Shards).await", "specsimp/internal/sim.(*Shards).awaitDone"},
	"sim.drain":            {"specsimp/internal/sim.(*Shards).drain"},
	"sim.edge":             {"specsimp/internal/sim.(*Shards).edge"},
	"core.recovery":        {"specsimp/internal/core.(*Coordinator).TriggerMisSpeculationAt"},
	"safetynet.checkpoint": {"specsimp/internal/safetynet.(*Manager).TakeCheckpoint", "specsimp/internal/safetynet.(*Manager).TakeCheckpointWindow"},
}

// Leaf-frame classes, by function-name prefix.
var (
	mapPrefixes    = []string{"runtime.map", "internal/runtime/maps."}
	mallocPrefixes = []string{
		"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.nextFreeFast", "runtime.memclrNoHeapPointers", "runtime.heapSetType",
		"runtime.(*mcache).", "runtime.(*mcentral).", "runtime.(*mheap).", "runtime.(*mspan).",
	}
	gcPrefixes = []string{
		"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork).", "runtime.(*gcControllerState).",
	}
)

func hasPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerOf returns the repo layer a frame belongs to: its internal/
// package, "perfbench" for the rest of the repository (the benchmark's
// own main package), or "" for frames outside the repository.
func layerOf(fn string) string {
	const internal = "specsimp/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "specsimp."), strings.HasPrefix(fn, "specsimp/"):
		return "perfbench"
	}
	return ""
}

// aggregate reduces profile samples to the per-layer table.
func aggregate(samples []stackSample) profileTable {
	t := profileTable{Self: map[string]float64{}, Leaf: map[string]float64{}, Under: map[string]int64{}}
	self := map[string]int64{}
	leaf := map[string]int64{}
	for _, s := range samples {
		t.TotalNanos += s.nanos
		self[selfLayer(s.funcs)] += s.nanos
		if len(s.funcs) > 0 {
			switch {
			case hasPrefix(s.funcs[0], mapPrefixes):
				leaf["runtime.maps"] += s.nanos
			case hasPrefix(s.funcs[0], mallocPrefixes):
				leaf["runtime.malloc"] += s.nanos
			}
		}
		for phase, names := range phaseFuncs {
			if anyFrame(s.funcs, names) {
				t.Under[phase] += s.nanos
			}
		}
	}
	if t.TotalNanos > 0 {
		for k, v := range self {
			t.Self[k] = float64(v) / float64(t.TotalNanos)
		}
		for k, v := range leaf {
			t.Leaf[k] = float64(v) / float64(t.TotalNanos)
		}
	}
	return t
}

// selfLayer is the layer a sample's self time is charged to.
func selfLayer(funcs []string) string {
	for _, f := range funcs {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	for _, f := range funcs {
		if hasPrefix(f, gcPrefixes) {
			return "runtime.gc"
		}
	}
	return "runtime.sched"
}

func anyFrame(funcs, names []string) bool {
	for _, f := range funcs {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// share returns the fraction of the table's CPU time under a phase.
func (t profileTable) share(phase string) float64 {
	if t.TotalNanos == 0 {
		return 0
	}
	return float64(t.Under[phase]) / float64(t.TotalNanos)
}

// layers returns the table's self-time layers in sorted order.
func (t profileTable) layers() []string {
	names := make([]string, 0, len(t.Self))
	for k := range t.Self {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ---- pprof protobuf decoding ----

var errMalformed = errors.New("profile: malformed protobuf")

// decodeProfile parses a CPU profile as runtime/pprof writes it
// (gzipped or raw protobuf) into stack samples weighted by CPU time.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	// Strings come last in the encoding, so collect the sub-messages
	// first and resolve names afterwards.
	var sampleTypes, samples, locations, functions [][]byte
	var strs []string
	err := pbFields(data, func(num int, _ uint64, raw []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, raw)
		case 2:
			samples = append(samples, raw)
		case 4:
			locations = append(locations, raw)
		case 5:
			functions = append(functions, raw)
		case 6:
			strs = append(strs, string(raw))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// The CPU-time value is the sample type named "cpu"; fall back to
	// the last value (pprof's default sample type).
	valueIdx := len(sampleTypes) - 1
	for i, raw := range sampleTypes {
		var typ uint64
		if err := pbFields(raw, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			valueIdx = i
		}
	}

	funcName := map[uint64]string{}
	for _, raw := range functions {
		var id, name uint64
		if err := pbFields(raw, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		funcName[id] = str(name)
	}

	// A location's lines run innermost first: inlined callees precede
	// the function they were inlined into.
	locFuncs := map[uint64][]string{}
	for _, raw := range locations {
		var id uint64
		var names []string
		if err := pbFields(raw, func(num int, v uint64, line []byte) error {
			switch num {
			case 1:
				id = v
			case 4:
				return pbFields(line, func(num int, v uint64, _ []byte) error {
					if num == 1 {
						names = append(names, funcName[v])
					}
					return nil
				})
			}
			return nil
		}); err != nil {
			return nil, err
		}
		locFuncs[id] = names
	}

	out := make([]stackSample, 0, len(samples))
	for _, raw := range samples {
		var locs, values []uint64
		if err := pbFields(raw, func(num int, v uint64, packed []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = pbUints(locs, v, packed)
			case 2:
				values, err = pbUints(values, v, packed)
			}
			return err
		}); err != nil {
			return nil, err
		}
		if valueIdx < 0 || valueIdx >= len(values) {
			return nil, fmt.Errorf("profile: sample has %d values, want index %d", len(values), valueIdx)
		}
		s := stackSample{nanos: int64(values[valueIdx])}
		for _, l := range locs {
			s.funcs = append(s.funcs, locFuncs[l]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// pbFields calls fn for each field of one protobuf message: varint and
// fixed-width fields pass their value, length-delimited fields their
// bytes (nil for the other wire types).
func pbFields(b []byte, fn func(num int, v uint64, raw []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var raw []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			raw, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errMalformed
		}
		if err := fn(num, v, raw); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, whether it was
// encoded packed (raw holds the varints) or as one value per field.
func pbUints(dst []uint64, v uint64, raw []byte) ([]uint64, error) {
	if raw == nil {
		return append(dst, v), nil
	}
	for len(raw) > 0 {
		x, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, errMalformed
		}
		dst, raw = append(dst, x), raw[n:]
	}
	return dst, nil
}
