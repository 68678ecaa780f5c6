package geom

import (
	"cmp"
	"slices"
)

// Polyline is an open chain of vertices. D-tree partitions are stored as one
// or more polylines; the chain representation lets shared interior vertices
// be counted (and serialized) once rather than per segment.
type Polyline []Point

// Len returns the total Euclidean length of the chain.
func (pl Polyline) Len() float64 {
	var s float64
	for i := 0; i+1 < len(pl); i++ {
		s += pl[i].Dist(pl[i+1])
	}
	return s
}

// Chainer stitches an unordered set of segments into maximal polylines.
// Segments are joined wherever endpoints coincide (within Eps) and each
// vertex joins exactly two segments; junction vertices of degree > 2 act as
// chain breaks, and closed loops are returned with the first vertex repeated
// at the end. The D-tree partition builder scores every partition style by
// its point count (Count) and turns only the winner's pruned boundary-edge
// set into the polylines stored in tree nodes (Chain).
//
// Endpoints are grouped by sorting (quantized x, quantized y, endpoint)
// records, where endpoint 2i is segment i's A and 2i+1 its B. Within a
// group the records stay in endpoint order, which is the order a hash map
// from quantized point to appended segment indices would list them, so the
// walk visits segments in the same order as that map-based stitcher and
// emits the same chains. The buffers are reused across calls: once warm,
// Count allocates nothing and Chain allocates only its result. A Chainer is
// not safe for concurrent use; the zero value is ready.
type Chainer struct {
	ends   []chainEnd
	start  []int32 // per endpoint: index in ends of its group's first record
	deg    []int32 // per endpoint: size of its group, the vertex degree
	used   []bool  // per segment
	pts    []Point // emitted vertices of every chain, back to back
	breaks []int   // start of each chain in pts
}

type chainEnd struct {
	x, y int64
	e    int32
}

// quantize maps a point to the 1/(4·Eps) lattice on which endpoints are
// considered coincident.
func quantize(p Point) (int64, int64) {
	const q = 1 / (4 * Eps)
	return int64(p.X*q + 0.5*signOf(p.X)), int64(p.Y*q + 0.5*signOf(p.Y))
}

// Count returns the total number of vertices Chain would emit for segs,
// without building the chains.
func (c *Chainer) Count(segs []Segment) int {
	return c.walk(segs, false)
}

// Chain returns the maximal polylines of segs. The polylines share one
// freshly allocated backing array (each capped at its own length), so the
// caller owns them and may rewrite their vertices in place.
func (c *Chainer) Chain(segs []Segment) []Polyline {
	if len(segs) == 0 {
		return nil
	}
	c.pts, c.breaks = c.pts[:0], c.breaks[:0]
	total := c.walk(segs, true)
	pts := make([]Point, total)
	copy(pts, c.pts)
	out := make([]Polyline, len(c.breaks))
	for k, lo := range c.breaks {
		hi := total
		if k+1 < len(c.breaks) {
			hi = c.breaks[k+1]
		}
		out[k] = Polyline(pts[lo:hi:hi])
	}
	return out
}

// walk groups the endpoints, then grows chains: first from junction and
// terminal vertices, so that maximal chains end at natural break points,
// then around the remaining closed loops of degree-2 vertices. It returns
// the vertex total and, when emit is set, records the chains in pts/breaks.
func (c *Chainer) walk(segs []Segment, emit bool) int {
	n := len(segs)
	if n == 0 {
		return 0
	}
	c.ends = c.ends[:0]
	for i, s := range segs {
		ax, ay := quantize(s.A)
		bx, by := quantize(s.B)
		c.ends = append(c.ends, chainEnd{ax, ay, int32(2 * i)}, chainEnd{bx, by, int32(2*i + 1)})
	}
	slices.SortFunc(c.ends, func(a, b chainEnd) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		if a.y != b.y {
			return cmp.Compare(a.y, b.y)
		}
		return cmp.Compare(a.e, b.e)
	})
	c.start = slices.Grow(c.start[:0], 2*n)[:2*n]
	c.deg = slices.Grow(c.deg[:0], 2*n)[:2*n]
	for g := 0; g < len(c.ends); {
		h := g + 1
		for h < len(c.ends) && c.ends[h].x == c.ends[g].x && c.ends[h].y == c.ends[g].y {
			h++
		}
		for _, r := range c.ends[g:h] {
			c.start[r.e], c.deg[r.e] = int32(g), int32(h-g)
		}
		g = h
	}
	c.used = slices.Grow(c.used[:0], n)[:n]
	clear(c.used)

	total := 0
	for i := range segs {
		a, b := int32(2*i), int32(2*i+1)
		if c.used[i] || (c.deg[a] == 2 && c.deg[b] == 2) {
			continue // used, or interior of a chain or loop: handled below
		}
		if c.deg[a] == 2 { // grow from the terminal end
			a, b = b, a
		}
		total += c.chainFrom(segs, a, b, emit)
	}
	for i := range segs {
		if !c.used[i] {
			total += c.chainFrom(segs, int32(2*i), int32(2*i+1), emit)
		}
	}
	return total
}

// chainFrom starts a chain along the segment of endpoints a and b, in that
// direction, extends it from b, and returns its vertex count.
func (c *Chainer) chainFrom(segs []Segment, a, b int32, emit bool) int {
	c.used[a>>1] = true
	if emit {
		c.breaks = append(c.breaks, len(c.pts))
		c.pts = append(c.pts, endpoint(segs, a), endpoint(segs, b))
	}
	count := 2
	e := b
	for {
		// Stop at a vertex of degree other than 2, or once every incident
		// segment is used.
		lo, d := c.start[e], c.deg[e]
		next := int32(-1)
		for _, r := range c.ends[lo : lo+d] {
			if !c.used[r.e>>1] {
				next = r.e >> 1
				break
			}
		}
		if next == -1 || d != 2 {
			return count
		}
		c.used[next] = true
		// Step to the far endpoint of next as seen from e's vertex.
		if c.start[2*next] == lo {
			e = 2*next + 1
		} else {
			e = 2 * next
		}
		if emit {
			c.pts = append(c.pts, endpoint(segs, e))
		}
		count++
	}
}

func endpoint(segs []Segment, e int32) Point {
	if e&1 == 0 {
		return segs[e>>1].A
	}
	return segs[e>>1].B
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
