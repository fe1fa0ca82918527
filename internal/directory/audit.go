package directory

import (
	"fmt"

	"specsimp/internal/coherence"
	"specsimp/internal/mem"
)

// AuditInvariants checks the protocol's global correctness invariants.
// It must be called at a quiescent point (InFlight()==0):
//
//   - Single writer: at most one cache holds a block in M or O.
//   - Value coherence: every valid cached copy of a block has the same
//     data version.
//   - Memory currency: with no owner, memory's version equals the cached
//     version (and is never newer than any copy).
//   - Directory accuracy: DM/DO imply the recorded owner really holds
//     the block in M/O; DS/DInv imply no dirty copy exists anywhere;
//     the recorded sharer set is a superset of the actual S holders
//     (silent evictions leave stale sharers, never missing ones).
//
// It returns nil if all invariants hold.
func (p *Protocol) AuditInvariants() error {
	if n := p.InFlight(); n != 0 {
		return fmt.Errorf("audit requires quiescence; %d transactions in flight", n)
	}
	hs := make([]*mem.Hier, len(p.caches))
	for i, c := range p.caches {
		hs[i] = &c.Hier
	}
	// Every block the directory knows about is audited, plus every
	// cached block (which must be known to its home).
	var known []coherence.Addr
	for _, d := range p.dirs {
		for a := range d.entries {
			known = append(known, a)
		}
	}
	return mem.Audit(hs, known, p.MemVersion, func(a coherence.Addr, owner int, cs []mem.Copy) error {
		e := p.dirs[p.Home(a)].entries[a]
		if e == nil {
			if len(cs) > 0 {
				return fmt.Errorf("block %#x: cached with no directory entry", uint64(a))
			}
			return nil
		}
		switch e.state {
		case DM, DO:
			if owner < 0 || owner != e.owner {
				return fmt.Errorf("block %#x: dir %s owner=%d but caches show owner node %d",
					uint64(a), e.state, e.owner, owner)
			}
		case DS, DInv:
			if owner >= 0 {
				return fmt.Errorf("block %#x: dir %s but node %d holds a dirty copy", uint64(a), e.state, owner)
			}
		}
		// Sharer bookkeeping: every actual S holder must be recorded
		// (stale extras are fine: S evictions are silent, and the
		// limited-pointer / coarse-vector formats are conservative
		// supersets by construction).
		for _, c := range cs {
			if CState(c.State) == CS && !e.sharers.mayContain(p.lay, c.Node) && e.owner != c.Node {
				return fmt.Errorf("block %#x: node %d holds S but is not in dir sharer set", uint64(a), c.Node)
			}
		}
		if e.state == DInv && len(cs) > 0 {
			return fmt.Errorf("block %#x: dir DInv but %d cached copies", uint64(a), len(cs))
		}
		return nil
	})
}
