package core

import (
	"math"

	"airindex/internal/geom"
)

// side decides which child of node n, whose partition lives in ft's pools,
// a query at p descends to: Algorithm 2 with the RMC/LMC early termination
// of Section 4.4, over band limits derived exactly as a client derives them
// from the node's bytes. It is the one side decision of the D-tree: the
// arena walk calls it on its records, and the wire client on each node it
// decodes into a one-node arena (codec.go).
//
// A point at or left of n.lo goes left, at or right of n.hi right. The
// arena's records hold the whole node's band (setBand); a client that has
// read only a node's first packet holds the band its header fields give
// (firstBand) and no partition yet. Strictly inside the band (in), the
// point goes left when a rightward ray from it crosses the partition an
// odd number of times; this is exactly when a query reads the node's
// remaining packets.
func (ft *FlatTree) side(n *FlatNode, p geom.Point) (left, in bool) {
	cx := canonX(n.Dim, p)
	switch {
	case cx <= float64(n.lo):
		return true, false
	case cx >= float64(n.hi):
		return false, false
	}
	return ft.crossesOdd(n, p), true
}

// firstBand sets node n's band limits from the fields a client reads before
// the partition: the explicit LMC and a multi-packet node's RMC, no limit
// where the header carries none. For a multi-packet node, which always
// carries both, it is the band setBand derives.
func firstBand(n *FlatNode) {
	n.lo, n.hi = float32(math.Inf(-1)), float32(math.Inf(1))
	if n.hdr&hdrLMC != 0 {
		n.lo = n.CutLo
	}
	if n.hdr&hdrMulti != 0 {
		n.hi = n.CutHi
	}
}

// setBand derives node n's band limits from its header and partition as a
// client does from the node's bytes: the lower limit is the explicit LMC, or
// else the minimum of a truncated partition (which starts at the CutLo
// line), or else none; the upper one is the RMC, or else the partition's
// maximum. An untruncated partition need not reach the CutLo line (the
// righthand subspace may reach further left along the node's outer
// boundary), so its minimum is no lower limit, and the wire carries CutLo
// only as an LMC. A node without polylines has disjoint extents, so its
// explicit LMC decides alone.
func (ft *FlatTree) setBand(n *FlatNode) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, sp := range ft.polys[n.PolyFirst:n.PolyEnd] {
		for _, q := range ft.pts[sp.Off : sp.Off+sp.N] {
			x := float64(q.X)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	switch {
	case n.hdr&hdrLMC != 0:
		lo = float64(n.CutLo)
	case n.hdr&hdrTruncated == 0:
		lo = math.Inf(-1)
	}
	if n.hdr&hdrMulti != 0 {
		hi = float64(n.CutHi)
	}
	n.lo, n.hi = float32(lo), float32(hi)
}

// crossesOdd reports whether a rightward ray from p crosses node n's
// partition an odd number of times (in the node's canonical frame).
func (ft *FlatTree) crossesOdd(n *FlatNode, p geom.Point) bool {
	cp := canon(n.Dim, p)
	odd := false
	for _, sp := range ft.polys[n.PolyFirst:n.PolyEnd] {
		pts := ft.pts[sp.Off : sp.Off+sp.N]
		for i := 1; i < len(pts); i++ {
			if (geom.Segment{A: pts[i-1].point(), B: pts[i].point()}).CrossesRightwardRay(cp) {
				odd = !odd
			}
		}
	}
	return odd
}

// Descend is the arena point query for a broadcast organization that pages
// the nodes itself (distributed indexing). It returns the data bucket;
// visit sees every node on the path, in order, by its BFS id, with whether
// the query read the node's packets past its first (p inside the band of a
// multi-packet node).
func (ft *FlatTree) Descend(p geom.Point, visit func(node int, rest bool)) int {
	if len(ft.nodes) == 0 {
		return 0 // single-region subdivision
	}
	ref := int32(0)
	for ref >= 0 {
		n := &ft.nodes[ref]
		left, in := ft.side(n, p)
		visit(int(ref), in && n.hdr&hdrMulti != 0)
		if left {
			ref = n.Left
		} else {
			ref = n.Right
		}
	}
	return int(^ref)
}
