package mem

import (
	"fmt"
	"math/bits"

	"specsimp/internal/coherence"
)

// BlockIndex is an exact host-side index of two node sets per block:
// the holders, whose L2 holds a valid line of the block, and the busy
// nodes, which have a transaction on it. A Hier given the index keeps
// its node's holder bits (Fill, Drop, the rollback restore and
// FinishRollback), and the Ctrl around it keeps the busy bits. It
// moves no simulated state: the snooping protocol reads it to deliver
// each ordered request only to the controllers the request can change.
//
// A node set is a bitmask of as many 64-bit words as the node count
// needs, so every machine size has one. The sets live in pages of
// pageBlocks consecutive blocks, made when a block in them first gets a
// bit and kept from then on; a page directory, an open-addressing table
// keyed by page number, finds them. Memory therefore follows the pages
// touched, not the largest block number, which a trace may set
// anywhere: 2 × words × 8 bytes per block of a touched page.
type BlockIndex struct {
	words int        // mask words per node set
	keys  []uint64   // page directory: 0 marks an empty slot, else page number + 1
	pages [][]uint64 // pages[i] is keys[i]'s: per block, the holders, then the busy nodes
	used  int        // occupied directory slots
	shift uint       // 64 - log2(len(keys)), for the multiplicative hash
}

const (
	pageShift  = 6
	pageBlocks = 1 << pageShift
	// initialPages is the directory's size before its first growth; it
	// doubles whenever it would pass half full.
	initialPages = 64
)

// NewBlockIndex returns an empty index over nodes nodes.
func NewBlockIndex(nodes int) *BlockIndex {
	x := &BlockIndex{words: (nodes + 63) / 64}
	x.alloc(initialPages)
	return x
}

// Words returns the mask words of one node set, the length Concerned
// fills.
func (x *BlockIndex) Words() int { return x.words }

func (x *BlockIndex) alloc(n int) {
	x.keys = make([]uint64, n)
	x.pages = make([][]uint64, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// page returns the sets of block a's page and the offset of a's sets
// in it. A page not yet made is nil, unless create makes it.
func (x *BlockIndex) page(a coherence.Addr, create bool) ([]uint64, int) {
	blk := uint64(a) / coherence.BlockBytes
	key := blk>>pageShift + 1
	off := int(blk&(pageBlocks-1)) * 2 * x.words
	mask := len(x.keys) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> x.shift); ; i = (i + 1) & mask {
		switch x.keys[i] {
		case key:
			return x.pages[i], off
		case 0:
			if !create {
				return nil, off
			}
			if 2*(x.used+1) > len(x.keys) {
				x.grow()
				return x.page(a, create)
			}
			x.keys[i] = key
			x.pages[i] = make([]uint64, pageBlocks*2*x.words)
			x.used++
			return x.pages[i], off
		}
	}
}

// grow doubles the directory and re-places every page.
func (x *BlockIndex) grow() {
	keys, pages := x.keys, x.pages
	x.alloc(2 * len(keys))
	mask := len(x.keys) - 1
	for j, key := range keys {
		if key == 0 {
			continue
		}
		i := int((key * 0x9e3779b97f4a7c15) >> x.shift)
		for x.keys[i] != 0 {
			i = (i + 1) & mask
		}
		x.keys[i], x.pages[i] = key, pages[j]
	}
}

// set turns on node's bit in a set of block a: the holders if first is
// 0, the busy nodes if it is words.
func (x *BlockIndex) set(a coherence.Addr, first, node int) {
	p, off := x.page(a, true)
	p[off+first+node>>6] |= 1 << (node & 63)
}

// clear turns off node's bit in a set (see set); a block whose page was
// never made has no bits to clear.
func (x *BlockIndex) clear(a coherence.Addr, first, node int) {
	if p, off := x.page(a, false); p != nil {
		p[off+first+node>>6] &^= 1 << (node & 63)
	}
}

func (x *BlockIndex) setHolder(a coherence.Addr, node int)   { x.set(a, 0, node) }
func (x *BlockIndex) clearHolder(a coherence.Addr, node int) { x.clear(a, 0, node) }

// Holds reports whether the index names node a holder of block a.
func (x *BlockIndex) Holds(a coherence.Addr, node int) bool {
	p, off := x.page(a, false)
	return p != nil && p[off+node>>6]>>(node&63)&1 != 0
}

func (x *BlockIndex) setBusy(a coherence.Addr, node int)   { x.set(a, x.words, node) }
func (x *BlockIndex) clearBusy(a coherence.Addr, node int) { x.clear(a, x.words, node) }

// Concerned writes into dst, of length Words, the union of block a's
// holders and busy nodes: node i is bit i%64 of dst[i/64].
func (x *BlockIndex) Concerned(a coherence.Addr, dst []uint64) {
	p, off := x.page(a, false)
	if p == nil {
		clear(dst)
		return
	}
	s := p[off : off+2*x.words]
	for w := range dst {
		dst[w] = s[w] | s[x.words+w]
	}
}

// Audit reports the first holder bit whose node's L2 lacks the block,
// where hs[i] is node i's hierarchy, or the first busy bit at all. Call
// it only at a quiescent point, where no node has a transaction left.
// With a check that every L2 line has its holder bit, which needs a
// walk of the caches that the coherence audit already makes, it checks
// the index exactly.
func (x *BlockIndex) Audit(hs []*Hier) error {
	for i, key := range x.keys {
		if key == 0 {
			continue
		}
		p := x.pages[i]
		for b := 0; b < pageBlocks; b++ {
			a := coherence.Addr(((key-1)<<pageShift | uint64(b)) * coherence.BlockBytes)
			s := p[b*2*x.words : (b+1)*2*x.words]
			for w := 0; w < x.words; w++ {
				for m := s[w]; m != 0; m &= m - 1 {
					n := w<<6 | bits.TrailingZeros64(m)
					if hs[n].L2.Peek(a) == nil {
						return fmt.Errorf("block %#x: index names node %d a holder, but its L2 lacks the block", uint64(a), n)
					}
				}
				if m := s[x.words+w]; m != 0 {
					return fmt.Errorf("block %#x: index keeps node %d busy at a quiescent point", uint64(a), w<<6|bits.TrailingZeros64(m))
				}
			}
		}
	}
	return nil
}
