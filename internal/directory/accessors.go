package directory

import "specsimp/internal/coherence"

// BlockVersion returns the globally current data version of a block:
// the owner's cached copy if one exists (including one parked in a
// writeback TBE), otherwise memory's copy at the home node. Intended
// for verification at quiescent points.
func (p *Protocol) BlockVersion(a coherence.Addr) uint64 {
	a = coherence.BlockAddr(a)
	for _, c := range p.caches {
		if l := c.L2.Peek(a); l != nil {
			s := CState(l.State)
			if s == CM || s == CO {
				return l.Version
			}
		}
		if w := c.wb(); w != nil && w.Addr == a && w.state == CWBa {
			return w.version
		}
	}
	return p.dirs[p.Home(a)].h.Mem.Read(a)
}

// CacheState returns the controller-visible coherence state of a block
// at a node (stable array state, TBE transient, or I).
func (p *Protocol) CacheState(node coherence.NodeID, a coherence.Addr) CState {
	return p.caches[node].stateOf(coherence.BlockAddr(a))
}

// DirState returns the home directory's stable state for a block and
// whether a transaction is currently in flight for it.
func (p *Protocol) DirState(a coherence.Addr) (DState, bool) {
	a = coherence.BlockAddr(a)
	d := p.dirs[p.Home(a)]
	e := d.entries[a]
	if e == nil {
		return DInv, d.busy[a] != nil
	}
	return e.state, d.busy[a] != nil
}

// MemVersion returns main memory's version of a block at its home.
func (p *Protocol) MemVersion(a coherence.Addr) uint64 {
	a = coherence.BlockAddr(a)
	return p.dirs[p.Home(a)].h.Mem.Read(a)
}
