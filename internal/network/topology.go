package network

// NodeID identifies an endpoint/switch position in the torus,
// row-major: node = y*Width + x.
type NodeID int

// Port numbers at each switch. Local is the node interface; the four
// directions are the neighbor links.
const (
	Local = iota
	North // y-1 (wrapping)
	East  // x+1 (wrapping)
	South // y+1 (wrapping)
	West  // x-1 (wrapping)
	numPorts
)

var portNames = [numPorts]string{"local", "north", "east", "south", "west"}

// PortName returns a human-readable port name for traces.
func PortName(p int) string {
	if p >= 0 && p < numPorts {
		return portNames[p]
	}
	return "?"
}

// topo is the torus's coordinate arithmetic. Build uses it to generate
// the routing tables (routes, each switch's neighbours and dateline
// links), and tests use it as their oracle; routing itself reads the
// tables, so no hop divides.
type topo struct {
	w, h int
}

func (t topo) nodes() int { return t.w * t.h }

func (t topo) xy(n NodeID) (int, int) { return int(n) % t.w, int(n) / t.w }

func (t topo) node(x, y int) NodeID {
	x = ((x % t.w) + t.w) % t.w
	y = ((y % t.h) + t.h) % t.h
	return NodeID(y*t.w + x)
}

// neighbor returns the node adjacent to n in direction dir.
func (t topo) neighbor(n NodeID, dir int) NodeID {
	x, y := t.xy(n)
	switch dir {
	case North:
		return t.node(x, y-1)
	case East:
		return t.node(x+1, y)
	case South:
		return t.node(x, y+1)
	case West:
		return t.node(x-1, y)
	}
	return n
}

// opposite returns the port on the receiving switch for a message sent
// out of dir on the sending switch.
func opposite(dir int) int {
	switch dir {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// ringDist returns the minimal distance and preferred step (+1/-1) from
// a to b on a ring of size n. On ties (exactly halfway) both directions
// are minimal; the returned step is +1 and tie reports true.
func ringDist(a, b, n int) (dist, step int, tie bool) {
	fwd := ((b-a)%n + n) % n
	bwd := n - fwd
	if fwd == 0 {
		return 0, 0, false
	}
	switch {
	case fwd < bwd:
		return fwd, 1, false
	case bwd < fwd:
		return bwd, -1, false
	default:
		return fwd, 1, true
	}
}

// dist returns the minimal hop distance between two nodes on the torus.
func (t topo) dist(a, b NodeID) int {
	ax, ay := t.xy(a)
	bx, by := t.xy(b)
	dx, _, _ := ringDist(ax, bx, t.w)
	dy, _, _ := ringDist(ay, by, t.h)
	return dx + dy
}

// productiveInto returns every direction that reduces the minimal
// distance from cur to dst (both wrap directions on ties), in
// deterministic order: it fills buf and returns the occupied prefix.
// Arbitration calls it per message, so the candidate list must not
// escape to the heap.
func (t topo) productiveInto(cur, dst NodeID, buf *[4]int) []int {
	n := 0
	cx, cy := t.xy(cur)
	dx, dy := t.xy(dst)
	if xd, xstep, xtie := ringDist(cx, dx, t.w); xd > 0 {
		if xstep == 1 || xtie {
			buf[n] = East
			n++
		}
		if xstep == -1 || xtie {
			buf[n] = West
			n++
		}
	}
	if yd, ystep, ytie := ringDist(cy, dy, t.h); yd > 0 {
		if ystep == 1 || ytie {
			buf[n] = South
			n++
		}
		if ystep == -1 || ytie {
			buf[n] = North
			n++
		}
	}
	return buf[:n]
}

// staticNext returns the single dimension-order (X then Y) next hop
// direction, with deterministic tie-breaking (East/South preferred),
// and whether that hop crosses the dateline of its dimension.
//
// The dateline sits on the wrap link between coordinate w-1 and 0; a
// message that crosses it switches to virtual channel 1, which breaks
// the ring's channel-dependence cycle (Dally's scheme, paper's [7]).
func (t topo) staticNext(cur, dst NodeID) (dir int, crossesDateline bool) {
	cx, cy := t.xy(cur)
	dx, dy := t.xy(dst)
	if xd, xstep, _ := ringDist(cx, dx, t.w); xd > 0 {
		if xstep == 1 {
			return East, cx == t.w-1
		}
		return West, cx == 0
	}
	if yd, ystep, _ := ringDist(cy, dy, t.h); yd > 0 {
		if ystep == 1 {
			return South, cy == t.h-1
		}
		return North, cy == 0
	}
	return Local, false
}

// crossesDatelineDir reports whether taking dir from cur wraps around
// the torus edge (used by adaptive routing's VC selection as well).
func (t topo) crossesDatelineDir(cur NodeID, dir int) bool {
	x, y := t.xy(cur)
	switch dir {
	case East:
		return x == t.w-1
	case West:
		return x == 0
	case South:
		return y == t.h-1
	case North:
		return y == 0
	}
	return false
}

// coord is a node's (x, y) position on the torus.
type coord struct{ x, y int }

// ringSteps lists the directions that shorten a route along one ring
// for one offset, in candidate order: both on a tie, East or South
// first.
type ringSteps struct {
	n    int
	dirs [2]int
}

// routes is topo's routing arithmetic as tables, built once at O(nodes
// + width + height): each node's coordinates, and for each forward
// offset along the X and Y rings, that ring's productive directions.
type routes struct {
	w, h   int
	xy     []coord
	xSteps []ringSteps // indexed by (dst.x - cur.x) mod w
	ySteps []ringSteps // indexed by (dst.y - cur.y) mod h
}

func newRoutes(t topo) routes {
	r := routes{w: t.w, h: t.h, xy: make([]coord, t.nodes()),
		xSteps: make([]ringSteps, t.w), ySteps: make([]ringSteps, t.h)}
	for i := range r.xy {
		x, y := t.xy(NodeID(i))
		r.xy[i] = coord{x, y}
	}
	// From node 0, a destination at (off, 0) differs in X alone and one
	// at (0, off) in Y alone, so topo lists exactly that ring's steps.
	var buf [4]int
	for off := range r.xSteps {
		r.xSteps[off].n = copy(r.xSteps[off].dirs[:], t.productiveInto(0, t.node(off, 0), &buf))
	}
	for off := range r.ySteps {
		r.ySteps[off].n = copy(r.ySteps[off].dirs[:], t.productiveInto(0, t.node(0, off), &buf))
	}
	return r
}

// ringOffset maps a coordinate difference in (-n, n) to its forward
// offset in [0, n) without dividing.
func ringOffset(d, n int) int {
	if d < 0 {
		d += n
	}
	return d
}

// steps returns the X and Y ring steps from cur towards dst.
func (r *routes) steps(cur, dst NodeID) (x, y *ringSteps) {
	c, d := r.xy[cur], r.xy[dst]
	return &r.xSteps[ringOffset(d.x-c.x, r.w)], &r.ySteps[ringOffset(d.y-c.y, r.h)]
}

// productiveInto returns every direction that reduces the minimal
// distance from cur to dst, in topo.productiveInto's order: it fills
// buf and returns the occupied prefix.
func (r *routes) productiveInto(cur, dst NodeID, buf *[4]int) []int {
	xs, ys := r.steps(cur, dst)
	// Copying both slots of each ring needs no branch: xs.n <= 2, so
	// the Y pair still fits.
	buf[0], buf[1] = xs.dirs[0], xs.dirs[1]
	n := xs.n
	buf[n], buf[n+1] = ys.dirs[0], ys.dirs[1]
	return buf[:n+ys.n]
}

// staticNext returns the dimension-order (X then Y) next hop from cur
// to dst, which is the first productive direction: topo.staticNext
// breaks ties towards East and South exactly as the ring steps list
// them. It returns Local at the destination.
func (r *routes) staticNext(cur, dst NodeID) int {
	xs, ys := r.steps(cur, dst)
	switch {
	case xs.n > 0:
		return xs.dirs[0]
	case ys.n > 0:
		return ys.dirs[0]
	}
	return Local
}
