// Package traptree implements the trapezoidal-map point-location structure
// (de Berg et al., Computational Geometry ch. 6) built by randomized
// incremental insertion — the paper's second object-decomposition baseline,
// which it calls the trap-tree. The search structure is a DAG of x-nodes
// (vertex abscissae) and y-nodes (segments) whose leaves are trapezoids of
// the refined subdivision, each mapped to the data region containing it.
//
// Degeneracies (shared endpoints, several endpoints on one vertical line —
// ubiquitous on the service-area border) are handled with the standard
// symbolic shear: points are ordered lexicographically by (x, y), and
// on-segment ties during location are broken by comparing slopes.
// Exactly-vertical interior segments are rejected; they cannot arise from
// Voronoi scopes of sites in general position.
package traptree

import (
	"fmt"
	"math/rand"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// mapSeg is an inserted segment, directed so that P is lexicographically
// smaller than Q, with the data regions above and below it.
type mapSeg struct {
	P, Q geom.Point
}

func (s *mapSeg) slope() float64 { return (s.Q.Y - s.P.Y) / (s.Q.X - s.P.X) }

// yAt returns the segment line's y at abscissa x.
func (s *mapSeg) yAt(x float64) float64 {
	t := (x - s.P.X) / (s.Q.X - s.P.X)
	return s.P.Y + t*(s.Q.Y-s.P.Y)
}

// orient returns the exact-float sign of the query point against the
// segment: +1 above, -1 below, 0 on the line through it. No epsilon is
// used: structural decisions must be deterministic and self-consistent, not
// geometrically tolerant.
func (s *mapSeg) orient(p geom.Point) int {
	v := (s.Q.X-s.P.X)*(p.Y-s.P.Y) - (s.Q.Y-s.P.Y)*(p.X-s.P.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

func lexLess(a, b geom.Point) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// trap is one trapezoid: bounded above and below by segments, left and
// right by the vertical walls through two vertices.
type trap struct {
	top, bottom   *mapSeg
	leftp, rightp geom.Point
	leaf          *dnode
	region        int
}

func (t *trap) leafNode() *dnode {
	if t.leaf == nil {
		t.leaf = &dnode{kind: leafNode, trap: t}
	}
	return t.leaf
}

type nodeKind uint8

const (
	xNode nodeKind = iota
	yNode
	leafNode
)

// dnode is a search-DAG node. For an x-node, left holds points
// lexicographically smaller than pt; for a y-node, left is above the
// segment and right below.
type dnode struct {
	kind        nodeKind
	pt          geom.Point
	seg         *mapSeg
	left, right *dnode
	trap        *trap
	id          int // dense id over x/y nodes, assigned after construction
}

// Map is the trapezoidal map plus its search DAG.
type Map struct {
	Sub   *region.Subdivision
	root  *dnode
	traps map[*trap]bool
	// Nodes lists the x/y DAG nodes in breadth-first order (broadcast order).
	Nodes []*dnode
	segs  []*mapSeg
}

// Build constructs the trapezoidal map of the subdivision's interior edges
// in random insertion order drawn from rng.
func Build(sub *region.Subdivision, rng *rand.Rand) (*Map, error) {
	edges := sub.UniqueEdges()
	var segs []*mapSeg
	for _, e := range edges {
		if onSameBorder(e.A, e.B, sub.Area) {
			continue // border edges coincide with the bounding trapezoid
		}
		if e.A.X == e.B.X {
			return nil, fmt.Errorf("traptree: exactly vertical interior segment at x=%g; jitter the sites", e.A.X)
		}
		segs = append(segs, &mapSeg{P: e.A, Q: e.B})
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })

	// Bounding box slightly inflated so border vertices are interior.
	pad := 0.01 * (sub.Area.W() + sub.Area.H())
	bb := geom.Rect{
		MinX: sub.Area.MinX - pad, MinY: sub.Area.MinY - pad,
		MaxX: sub.Area.MaxX + pad, MaxY: sub.Area.MaxY + pad,
	}
	top := &mapSeg{P: geom.Pt(bb.MinX, bb.MaxY), Q: geom.Pt(bb.MaxX, bb.MaxY)}
	bottom := &mapSeg{P: geom.Pt(bb.MinX, bb.MinY), Q: geom.Pt(bb.MaxX, bb.MinY)}
	first := &trap{top: top, bottom: bottom, leftp: bottom.P, rightp: top.Q, region: -1}
	m := &Map{
		Sub:   sub,
		traps: map[*trap]bool{first: true},
		root:  first.leafNode(),
		segs:  segs,
	}
	for _, s := range segs {
		if err := m.insert(s); err != nil {
			return nil, err
		}
	}
	m.assignRegions()
	m.assignIDs()
	return m, nil
}

func onSameBorder(a, b geom.Point, r geom.Rect) bool {
	return (a.X == r.MinX && b.X == r.MinX) || (a.X == r.MaxX && b.X == r.MaxX) ||
		(a.Y == r.MinY && b.Y == r.MinY) || (a.Y == r.MaxY && b.Y == r.MaxY)
}

// locate descends the DAG for a query point. slope breaks ties when the
// point lies exactly on a y-node's segment (it is then the left endpoint of
// the segment being inserted, which continues rightward with that slope).
// biasRight breaks x-node ties to the right regardless of lexicographic
// order, which is what the insertion walk needs when stepping across a wall.
func (m *Map) locate(p geom.Point, slope float64, biasRight bool) *trap {
	n := m.root
	for n.kind != leafNode {
		switch n.kind {
		case xNode:
			var goLeft bool
			if biasRight {
				goLeft = p.X < n.pt.X
			} else {
				goLeft = lexLess(p, n.pt)
			}
			if goLeft {
				n = n.left
			} else {
				n = n.right
			}
		case yNode:
			switch n.seg.orient(p) {
			case 1:
				n = n.left
			case -1:
				n = n.right
			default:
				// On the segment: the inserted segment shares an endpoint
				// with it; the steeper slope passes above.
				if slope > n.seg.slope() {
					n = n.left
				} else {
					n = n.right
				}
			}
		}
	}
	return n.trap
}

// crossedTraps returns the trapezoids intersected by s, left to right,
// using repeated point location just beyond each crossed wall.
func (m *Map) crossedTraps(s *mapSeg) ([]*trap, error) {
	d := m.locate(s.P, s.slope(), false)
	out := []*trap{d}
	guard := 0
	for lexLess(d.rightp, s.Q) {
		guard++
		if guard > len(m.traps)+8 {
			return nil, fmt.Errorf("traptree: walk for segment %v-%v did not terminate", s.P, s.Q)
		}
		r := geom.Pt(d.rightp.X, s.yAt(d.rightp.X))
		nd := m.locate(r, s.slope(), true)
		if nd == d {
			return nil, fmt.Errorf("traptree: walk stuck at wall %v for segment %v-%v", d.rightp, s.P, s.Q)
		}
		d = nd
		out = append(out, d)
	}
	return out, nil
}

// insert adds one segment, splitting the trapezoids it crosses and merging
// the upper and lower fragments that share a bounding segment.
func (m *Map) insert(s *mapSeg) error {
	ds, err := m.crossedTraps(s)
	if err != nil {
		return err
	}
	k := len(ds)

	var L, R *trap
	if lexLess(ds[0].leftp, s.P) {
		L = &trap{top: ds[0].top, bottom: ds[0].bottom, leftp: ds[0].leftp, rightp: s.P}
	}
	if lexLess(s.Q, ds[k-1].rightp) {
		R = &trap{top: ds[k-1].top, bottom: ds[k-1].bottom, leftp: s.Q, rightp: ds[k-1].rightp}
	}

	uppers := make([]*trap, k)
	lowers := make([]*trap, k)
	var curU, curL *trap
	for i, d := range ds {
		sep := s.P
		if i > 0 {
			sep = ds[i-1].rightp
		}
		if curU == nil || curU.top != d.top {
			if curU != nil {
				curU.rightp = sep
			}
			curU = &trap{top: d.top, bottom: s, leftp: sep}
		}
		uppers[i] = curU
		if curL == nil || curL.bottom != d.bottom {
			if curL != nil {
				curL.rightp = sep
			}
			curL = &trap{top: s, bottom: d.bottom, leftp: sep}
		}
		lowers[i] = curL
	}
	curU.rightp = s.Q
	curL.rightp = s.Q

	// Update the trapezoid registry.
	for _, d := range ds {
		delete(m.traps, d)
	}
	for _, t := range []*trap{L, R} {
		if t != nil {
			m.traps[t] = true
		}
	}
	for i := range ds {
		m.traps[uppers[i]] = true
		m.traps[lowers[i]] = true
	}

	// Replace each crossed trapezoid's leaf with its local subtree.
	for i, d := range ds {
		sub := &dnode{kind: yNode, seg: s, left: uppers[i].leafNode(), right: lowers[i].leafNode()}
		if i == k-1 && R != nil {
			sub = &dnode{kind: xNode, pt: s.Q, left: sub, right: R.leafNode()}
		}
		if i == 0 && L != nil {
			sub = &dnode{kind: xNode, pt: s.P, left: L.leafNode(), right: sub}
		}
		*d.leaf = *sub // in-place: every DAG parent of the old leaf sees the subtree
	}
	return nil
}

// assignRegions maps every surviving trapezoid to the data region
// containing its center (clamped into the service area; trapezoids of the
// inflated margin map to the nearest border region, which no in-area query
// ever reaches incorrectly).
func (m *Map) assignRegions() {
	a := m.Sub.Area
	eps := 1e-7 * (a.W() + a.H())
	for t := range m.traps {
		cx := (t.leftp.X + t.rightp.X) / 2
		cy := (t.top.yAt(cx) + t.bottom.yAt(cx)) / 2
		cx = clamp(cx, a.MinX+eps, a.MaxX-eps)
		cy = clamp(cy, a.MinY+eps, a.MaxY-eps)
		t.region = m.Sub.Locate(geom.Pt(cx, cy))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// assignIDs numbers the x/y nodes breadth-first from the root.
func (m *Map) assignIDs() {
	m.Nodes = m.Nodes[:0]
	if m.root.kind == leafNode {
		return
	}
	seen := map[*dnode]bool{m.root: true}
	queue := []*dnode{m.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.id = len(m.Nodes)
		m.Nodes = append(m.Nodes, n)
		for _, c := range []*dnode{n.left, n.right} {
			if c.kind != leafNode && !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
}
