// Package core implements the D-tree, the paper's primary contribution: a
// binary height-balanced index over a planar subdivision of data regions
// that stores neither decompositions nor approximations of the regions, but
// the divisions (polylines) between complementary halves of the region set.
//
// The package provides the recursive partition algorithm (Section 4.2,
// Algorithm 1) with its four/eight partition styles and inter-prob
// tie-breaking, point-query processing (Section 4.3, Algorithm 2), and the
// top-down packet paging of Section 4.4 with the RMC/LMC arrangement that
// lets queries outside a large node's interlocking band terminate after the
// node's first packet.
package core

import (
	"airindex/internal/geom"
	"airindex/internal/region"
)

// Dimension is the overall orientation of a partition (Section 4.1): a
// y-dimensional partition is a roughly vertical polyline separating a
// lefthand from a righthand subspace (regions sorted on x-coordinates); an
// x-dimensional partition is roughly horizontal, separating an upper from a
// lower subspace (regions sorted on y-coordinates).
type Dimension uint8

const (
	// DimY is a y-dimensional partition (left/right split).
	DimY Dimension = iota
	// DimX is an x-dimensional partition (upper/lower split).
	DimX
)

func (d Dimension) String() string {
	if d == DimX {
		return "x"
	}
	return "y"
}

// canon maps a point into the canonical frame in which every partition is
// y-dimensional: identity for DimY; the rotation (x, y) -> (-y, x) for DimX,
// which sends the upper subspace to the canonical "left". The map is a
// rigid rotation, so intersection parity and areas are preserved.
func canon(d Dimension, p geom.Point) geom.Point {
	if d == DimX {
		return geom.Point{X: -p.Y, Y: p.X}
	}
	return p
}

// uncanon inverts canon.
func uncanon(d Dimension, p geom.Point) geom.Point {
	if d == DimX {
		return geom.Point{X: p.Y, Y: -p.X}
	}
	return p
}

// canonX returns the canonical x-coordinate of p under dimension d.
func canonX(d Dimension, p geom.Point) float64 {
	if d == DimX {
		return -p.Y
	}
	return p.X
}

// ChildRef points to either a child node or a data bucket (the paper's
// pointer with a type flag, Table 1).
type ChildRef struct {
	Node *Node // nil when the reference is a data pointer
	Data int   // region / data-bucket id, valid when Node is nil
}

// IsData reports whether the reference points to a data bucket.
func (c ChildRef) IsData() bool { return c.Node == nil }

// Node is one D-tree node: the partition dividing the node's space into two
// complementary subspaces plus the two child references (Figure 7/Table 1).
type Node struct {
	ID  int // breadth-first id, assigned after construction
	Dim Dimension

	// Polylines is the partition: the pruned, truncated boundary of the
	// canonical-left subspace, in real coordinates.
	Polylines []geom.Polyline

	// CutLo and CutHi delimit the interlocking band in canonical
	// x-coordinates: CutLo is the canonical leftmost coordinate of the
	// righthand subspace (Algorithm 1's right_lmc) and CutHi the canonical
	// rightmost coordinate of the lefthand subspace (left_rmc). Queries at
	// or below CutLo resolve left and at or above CutHi resolve right
	// without consulting the partition — the early-termination information
	// a large node's first packet carries (Section 4.4).
	CutLo, CutHi float64

	Left, Right ChildRef

	// Pruned reports whether Algorithm 1 removed anything from the extent;
	// Truncated whether some segment was cut at the CutLo line (in which
	// case the partition's leftmost coordinate equals CutLo). Together they
	// decide whether the wire format must carry CutLo explicitly: a pruned
	// but untruncated partition no longer reveals CutLo (see codec.go).
	Pruned, Truncated bool

	// NumRegions is the number of data regions below this node.
	NumRegions int
	// InterProb is the fraction of the node's space inside the interlocking
	// band (the tie-break quantity of Section 4.2). It is computed lazily —
	// only when a partition-size tie forced the comparison — and is zero
	// otherwise; both the from-scratch and incremental builders follow the
	// same rule, so marshals stay byte-identical.
	InterProb float64

	// src marks a node an incremental rebuild spliced from the previous
	// generation: the previous BFS id + 1, or 0 for freshly built nodes.
	// FlattenPatched uses it to bulk-copy the node's canonical point range
	// from the previous arena instead of re-deriving it.
	src int32
}

// PartitionPoints returns the total number of points across the partition's
// polylines — the paper's partition-size measure.
func (n *Node) PartitionPoints() int {
	var s int
	for _, pl := range n.Polylines {
		s += len(pl)
	}
	return s
}

// Tree is a built D-tree over a subdivision.
type Tree struct {
	Root *Node
	Sub  *region.Subdivision
	// Nodes lists all nodes in breadth-first order; Nodes[i].ID == i.
	Nodes []*Node

	opts buildOptions
}

// Stats summarizes structural properties of a tree.
type Stats struct {
	Nodes           int
	Height          int // levels of internal nodes; single-region trees have 0
	PartitionPoints int
	MaxNodePoints   int
}

// Height returns the maximum number of nodes on a root-to-leaf path.
func (t *Tree) Height() int {
	var h func(c ChildRef) int
	h = func(c ChildRef) int {
		if c.IsData() {
			return 0
		}
		l, r := h(c.Node.Left), h(c.Node.Right)
		return 1 + max(l, r)
	}
	return h(ChildRef{Node: t.Root})
}

// Stats computes summary statistics.
func (t *Tree) Stats() Stats {
	st := Stats{Nodes: len(t.Nodes), Height: t.Height()}
	for _, n := range t.Nodes {
		p := n.PartitionPoints()
		st.PartitionPoints += p
		if p > st.MaxNodePoints {
			st.MaxNodePoints = p
		}
	}
	return st
}
