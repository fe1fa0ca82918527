package directory

import (
	"fmt"
	"math/bits"
)

// SharerFormat selects the directory entry's sharer-set representation.
// The paper's machine (4×4) and the 8×8 scaling point fit a full bitmap;
// larger machines must trade precision for width using the classic
// directory-entry formats from the limited-directory literature:
// limited-pointer with broadcast on overflow (Dir_i_B) or a coarse
// vector with one bit per node cluster. Both are conservative — the
// represented set is always a superset of the true sharers — which the
// protocol already tolerates (silent S evictions leave stale sharers).
type SharerFormat uint8

// Sharer-set formats. FullBitmap is the zero value so existing configs
// keep their exact ≤64-node behavior bit for bit.
const (
	// FullBitmap tracks sharers exactly in one 64-bit mask; legal only
	// up to 64 nodes.
	FullBitmap SharerFormat = iota
	// LimitedPointer (Dir_i_B) stores up to SharerPointers exact node
	// pointers; adding one more overflows the entry into broadcast mode,
	// where every node is a potential sharer until the set is cleared.
	LimitedPointer
	// CoarseVector keeps one bit per cluster of SharerClusterSize
	// consecutive nodes; membership is exact at cluster granularity and
	// conservative within a cluster.
	CoarseVector
)

func (f SharerFormat) String() string {
	switch f {
	case FullBitmap:
		return "bitmap"
	case LimitedPointer:
		return "limited"
	case CoarseVector:
		return "coarse"
	}
	return fmt.Sprintf("SharerFormat(%d)", uint8(f))
}

// DefaultSharerFormat picks the format a machine geometry needs: exact
// bitmaps up to 64 nodes, limited pointers (with broadcast overflow)
// beyond.
func DefaultSharerFormat(nodes int) SharerFormat {
	if nodes <= 64 {
		return FullBitmap
	}
	return LimitedPointer
}

// maxSharerPointers bounds the limited-pointer array so sharerSet stays
// a small flat value (directory entries are copied into undo-log
// closures and busy-transaction completions).
const maxSharerPointers = 8

// defaultSharerPointers is the classic Dir_4_B configuration.
const defaultSharerPointers = 4

// sharerLayout is the resolved, protocol-wide interpretation of every
// sharerSet: format plus its sizing parameters. It lives on the
// Protocol, not in each entry, so entries stay cheap to copy.
type sharerLayout struct {
	format   SharerFormat
	nodes    int
	pointers int // LimitedPointer: exact pointers before overflow
	cluster  int // CoarseVector: nodes per vector bit
}

// imprecise reports whether s may name nodes that never shared the
// block: an overflowed limited-pointer entry (broadcast mode) or any
// multi-node coarse cluster. Exact sets keep the protocol's
// illegal-transition detection points armed; imprecise fan-outs must be
// tolerated by their targets.
func (l sharerLayout) imprecise(s sharerSet) bool {
	switch l.format {
	case LimitedPointer:
		return s.broadcast()
	case CoarseVector:
		return l.cluster > 1
	default:
		return false
	}
}

// sharerSet is one directory entry's sharer set under some
// sharerLayout. The zero value is the empty set in every format. It is
// a flat value type: copying it (undo logging, busy completions) copies
// the set.
type sharerSet struct {
	// bits is the node bitmap (FullBitmap) or the cluster bitmap
	// (CoarseVector); unused by LimitedPointer.
	bits uint64
	// ptrs[:n] are the exact node pointers (LimitedPointer).
	ptrs [maxSharerPointers]uint16
	n    uint8
	// over marks a limited-pointer entry that overflowed to broadcast
	// mode: every node is conservatively a sharer.
	over bool
}

// isEmpty reports whether the set represents no sharers (format-
// independent: broadcast mode is never empty).
func (s sharerSet) isEmpty() bool {
	return s.bits == 0 && s.n == 0 && !s.over
}

// broadcast reports whether the set has degraded to all-nodes mode.
func (s sharerSet) broadcast() bool { return s.over }

// with returns the set with node added. A limited-pointer set out of
// free pointers overflows to broadcast mode (Dir_i_B).
func (s sharerSet) with(l sharerLayout, node int) sharerSet {
	switch l.format {
	case LimitedPointer:
		if s.over || s.ptrContains(node) {
			return s
		}
		if int(s.n) < l.pointers {
			s.ptrs[s.n] = uint16(node)
			s.n++
			return s
		}
		s.over = true
		return s
	case CoarseVector:
		s.bits |= 1 << uint(node/l.cluster)
		return s
	default:
		s.bits |= 1 << uint(node)
		return s
	}
}

// without returns the set with node removed, where the format can
// express that: exact formats drop the member; a coarse vector cannot
// clear a cluster bit on behalf of one node and a broadcast-mode
// limited-pointer set cannot recover precision, so both stay
// conservative supersets (the protocol only ever bulk-clears them).
func (s sharerSet) without(l sharerLayout, node int) sharerSet {
	switch l.format {
	case LimitedPointer:
		if s.over {
			return s
		}
		for i := 0; i < int(s.n); i++ {
			if s.ptrs[i] == uint16(node) {
				s.n--
				s.ptrs[i] = s.ptrs[s.n]
				s.ptrs[s.n] = 0
				return s
			}
		}
		return s
	case CoarseVector:
		return s
	default:
		s.bits &^= 1 << uint(node)
		return s
	}
}

// mayContain reports conservative membership: true whenever node could
// be a sharer. Exact for FullBitmap and non-overflowed LimitedPointer.
func (s sharerSet) mayContain(l sharerLayout, node int) bool {
	switch l.format {
	case LimitedPointer:
		return s.over || s.ptrContains(node)
	case CoarseVector:
		return s.bits&(1<<uint(node/l.cluster)) != 0
	default:
		return s.bits&(1<<uint(node)) != 0
	}
}

func (s sharerSet) ptrContains(node int) bool {
	for i := 0; i < int(s.n); i++ {
		if s.ptrs[i] == uint16(node) {
			return true
		}
	}
	return false
}

// appendMembers appends every (conservative) member in ascending node
// order — the invalidation fan-out order, identical to the historical
// bitmap iteration. buf is reused by the caller, so steady-state
// fan-out allocates nothing.
func (s sharerSet) appendMembers(l sharerLayout, buf []int) []int {
	switch l.format {
	case LimitedPointer:
		if s.over {
			for n := 0; n < l.nodes; n++ {
				buf = append(buf, n)
			}
			return buf
		}
		// Pointers are unordered; n is at most maxSharerPointers, so a
		// selection scan keeps ascending order without sorting storage.
		last := -1
		for k := 0; k < int(s.n); k++ {
			best := -1
			for i := 0; i < int(s.n); i++ {
				p := int(s.ptrs[i])
				if p > last && (best == -1 || p < best) {
					best = p
				}
			}
			buf = append(buf, best)
			last = best
		}
		return buf
	case CoarseVector:
		for c := s.bits; c != 0; c &= c - 1 {
			cluster := bits.TrailingZeros64(c)
			lo := cluster * l.cluster
			hi := lo + l.cluster
			if hi > l.nodes {
				hi = l.nodes
			}
			for n := lo; n < hi; n++ {
				buf = append(buf, n)
			}
		}
		return buf
	default:
		for b := s.bits; b != 0; b &= b - 1 {
			buf = append(buf, bits.TrailingZeros64(b))
		}
		return buf
	}
}

// sharerLayout resolves the configured sharer-set parameters, applying
// defaults (Dir_4_B pointers; the narrowest cluster that fits 64 bits)
// and validating that the format can actually represent Nodes nodes.
func (c Config) sharerLayout() (sharerLayout, error) {
	l := sharerLayout{format: c.Sharers, nodes: c.Nodes, pointers: c.SharerPointers, cluster: c.SharerClusterSize}
	switch c.Sharers {
	case FullBitmap:
		if c.Nodes > 64 {
			return l, fmt.Errorf("directory: full-bitmap sharer sets cap at 64 nodes (have %d); configure LimitedPointer or CoarseVector", c.Nodes)
		}
	case LimitedPointer:
		if l.pointers == 0 {
			l.pointers = defaultSharerPointers
		}
		if l.pointers < 1 || l.pointers > maxSharerPointers {
			return l, fmt.Errorf("directory: SharerPointers must be 1..%d (have %d)", maxSharerPointers, l.pointers)
		}
		if c.Nodes > 1<<16 {
			return l, fmt.Errorf("directory: limited-pointer sharer sets cap at %d nodes (have %d)", 1<<16, c.Nodes)
		}
	case CoarseVector:
		if l.cluster == 0 {
			l.cluster = (c.Nodes + 63) / 64
		}
		if l.cluster < 1 {
			return l, fmt.Errorf("directory: SharerClusterSize must be positive (have %d)", l.cluster)
		}
		if (c.Nodes+l.cluster-1)/l.cluster > 64 {
			return l, fmt.Errorf("directory: coarse vector needs at most 64 clusters; %d nodes / cluster size %d needs %d",
				c.Nodes, l.cluster, (c.Nodes+l.cluster-1)/l.cluster)
		}
	default:
		return l, fmt.Errorf("directory: unknown sharer format %d", c.Sharers)
	}
	return l, nil
}

// DescribeSharers renders the resolved sharer-set layout — format plus
// effective sizing parameters after defaulting — for display (Table 2).
func (c Config) DescribeSharers() string {
	l, err := c.sharerLayout()
	if err != nil {
		return err.Error()
	}
	switch l.format {
	case LimitedPointer:
		return fmt.Sprintf("limited-pointer Dir_%d_B (broadcast on overflow)", l.pointers)
	case CoarseVector:
		return fmt.Sprintf("coarse vector, %d nodes/bit", l.cluster)
	default:
		return "full bitmap (exact, up to 64 nodes)"
	}
}

// Validate reports a descriptive error for unusable configurations —
// in particular a node count the configured sharer-set format cannot
// represent. Callers that build whole machines should validate before
// constructing kernels and networks (see system.BuildChecked).
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("directory: need at least 1 node (have %d)", c.Nodes)
	}
	_, err := c.sharerLayout()
	return err
}
