package snoop

import (
	"fmt"

	"specsimp/internal/coherence"
	"specsimp/internal/mem"
)

// BlockVersion returns the globally current version of a block at a
// quiescent point: the owner's copy if one exists, else memory's.
func (p *Protocol) BlockVersion(a coherence.Addr) uint64 {
	a = coherence.BlockAddr(a)
	for _, c := range p.caches {
		if l := c.L2.Peek(a); l != nil {
			s := SState(l.State)
			if s == SM || s == SO {
				return l.Version
			}
		}
	}
	return p.mems[p.Home(a)].h.Mem.Read(a)
}

// CacheState returns the controller-visible state of a block at a node.
func (p *Protocol) CacheState(node coherence.NodeID, a coherence.Addr) SState {
	c := p.caches[node]
	a = coherence.BlockAddr(a)
	if t := c.req(); t != nil && t.Addr == a {
		return t.state
	}
	if w := c.wb(); w != nil && w.Addr == a {
		return w.state
	}
	if l := c.L2.Peek(a); l != nil {
		return SState(l.State)
	}
	return SI
}

// MemVersion returns memory's copy of the block at its home node.
func (p *Protocol) MemVersion(a coherence.Addr) uint64 {
	a = coherence.BlockAddr(a)
	return p.mems[p.Home(a)].h.Mem.Read(a)
}

// AuditInvariants verifies coherence invariants at a quiescent point:
// single writer, equal versions across copies, memory currency when
// unowned, and agreement between the memory controller's owner tracking
// and actual cache contents. It also checks the delivery index: the
// holder bits must name exactly the L2s that hold each block, and no
// TBE bit may outlive its transaction.
func (p *Protocol) AuditInvariants() error {
	if n := p.InFlight(); n != 0 {
		return fmt.Errorf("audit requires quiescence; %d transactions in flight", n)
	}
	hs := make([]*mem.Hier, len(p.caches))
	for i, c := range p.caches {
		hs[i] = &c.Hier
	}
	if err := p.idx.Audit(hs); err != nil {
		return err
	}
	var tracked []coherence.Addr
	for _, m := range p.mems {
		for a := range m.owner {
			tracked = append(tracked, a)
		}
	}
	return mem.Audit(hs, tracked, p.MemVersion, func(a coherence.Addr, owner int, cs []mem.Copy) error {
		for _, c := range cs {
			if !p.idx.Holds(a, c.Node) {
				return fmt.Errorf("block %#x: the L2 of node %d holds it, but the index does not say so", uint64(a), c.Node)
			}
		}
		if t := p.mems[p.Home(a)].ownerOf(a); t != owner {
			if owner < 0 {
				return fmt.Errorf("block %#x: memory tracks owner %d but no cache owns", uint64(a), t)
			}
			return fmt.Errorf("block %#x: memory tracks owner %d but node %d owns", uint64(a), t, owner)
		}
		return nil
	})
}
