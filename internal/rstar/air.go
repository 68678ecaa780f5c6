package rstar

import (
	"fmt"

	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/wire"
)

// AirIndex is the paper's broadcast adaptation of the R*-tree (Section 3.2):
// the tree over region MBRs plus an added bottom layer holding the exact
// region polygons, so containment tests do not require fetching the 1 KB
// data instances. Tree nodes are sized to fit one packet each; the tree is
// broadcast depth-first with each leaf's shape nodes inlined right after it
// (greedily packed), which keeps the backtracking search moving forward on
// the channel.
type AirIndex struct {
	Tree   *Tree
	Sub    *region.Subdivision
	Params wire.Params

	nodePacket   map[*node]int
	shapePackets [][]int // region id -> packet offsets of its shape node
	packetCount  int
	occupied     []int
}

// EntrySize is the wire size of one R*-tree entry: an MBR (4 coordinates)
// plus a child/shape pointer.
func EntrySize(p wire.Params) int { return 4*p.CoordSize + p.PointerSize }

// NodeCapacity returns the maximal entries per node for the packet size.
func NodeCapacity(p wire.Params) int {
	return (p.PacketCapacity - p.BidSize) / EntrySize(p)
}

// shapeNodeSize is the wire size of one added-layer node: the data pointer,
// a vertex count, and the polygon's coordinates.
func shapeNodeSize(p wire.Params, poly geom.Polygon) int {
	return p.PointerSize + 2 + len(poly)*p.PointSize()
}

// BuildAir constructs the R*-tree over the subdivision's region MBRs and
// lays it out for broadcast under the given parameters.
func BuildAir(sub *region.Subdivision, params wire.Params) (*AirIndex, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	capacity := NodeCapacity(params)
	if capacity < 2 {
		return nil, fmt.Errorf("rstar: packet capacity %d holds %d entries (< 2)", params.PacketCapacity, capacity)
	}
	t, err := New(capacity, 0)
	if err != nil {
		return nil, err
	}
	for i := range sub.Regions {
		t.Insert(sub.Regions[i].Bounds(), i)
	}
	a := &AirIndex{
		Tree:         t,
		Sub:          sub,
		Params:       params,
		nodePacket:   make(map[*node]int),
		shapePackets: make([][]int, sub.N()),
	}
	a.layout()
	return a, nil
}

// layout assigns packets in depth-first order: one packet per tree node,
// followed (for leaves) by the leaf's shape nodes packed greedily.
func (a *AirIndex) layout() {
	next := 0
	var walk func(n *node)
	walk = func(n *node) {
		a.nodePacket[n] = next
		a.occupied = append(a.occupied, a.Params.BidSize+len(n.entries)*EntrySize(a.Params))
		next++
		if n.isLeaf() {
			// Pack this leaf's shape nodes greedily into packets.
			specs := make([]wire.NodeSpec, 0, len(n.entries))
			for _, e := range n.entries {
				specs = append(specs, wire.NodeSpec{
					ID:   e.Data,
					Size: shapeNodeSize(a.Params, a.Sub.Regions[e.Data].Poly),
					Leaf: true,
				})
			}
			lay, err := wire.Greedy(specs, a.Params.PacketCapacity)
			if err != nil {
				panic(fmt.Sprintf("rstar: shape layout: %v", err)) // sizes are positive by construction
			}
			for _, e := range n.entries {
				pks := lay.PacketsOf(e.Data)
				shifted := make([]int, len(pks))
				for i, pk := range pks {
					shifted[i] = next + int(pk)
				}
				a.shapePackets[e.Data] = shifted
			}
			a.occupied = append(a.occupied, lay.Occupied...)
			next += lay.PacketCount
			return
		}
		for _, e := range n.entries {
			walk(e.Child)
		}
	}
	walk(a.Tree.root)
	a.packetCount = next
}

// IndexPackets returns the broadcast size of the index (tree plus added
// shape layer) in packets.
func (a *AirIndex) IndexPackets() int { return a.packetCount }

// SizeBytes returns the occupied bytes across all index packets.
func (a *AirIndex) SizeBytes() int {
	var s int
	for _, o := range a.occupied {
		s += o
	}
	return s
}

// Locate answers a point query and returns the containing region's id plus
// the packet offsets downloaded, in access order: the depth-first search
// descends every candidate subtree whose MBR contains the query point and,
// at leaves, fetches candidate shape nodes for exact containment tests,
// terminating at the first hit.
func (a *AirIndex) Locate(p geom.Point) (int, []int) {
	return a.LocateInto(p, nil)
}

// LocateInto is Locate appending the downloaded packet offsets into trace
// (reset to length zero first), so Monte Carlo drivers can reuse one
// buffer across millions of queries without per-query allocation. The
// returned slice aliases trace's backing array when capacity suffices.
func (a *AirIndex) LocateInto(p geom.Point, trace []int) (int, []int) {
	w := airWalker{a: a, p: p, trace: trace[:0]}
	id := w.walk(a.Tree.root)
	return id, w.trace
}

// airWalker carries the depth-first search state so the recursive walk
// appends to one trace without boxing it in a closure.
type airWalker struct {
	a     *AirIndex
	p     geom.Point
	trace []int
}

func (w *airWalker) walk(n *node) int {
	a := w.a
	w.trace = wire.AppendTraceOnce(w.trace, a.nodePacket[n])
	for _, e := range n.entries {
		if !e.Rect.Contains(w.p) {
			continue
		}
		if n.isLeaf() {
			for _, pk := range a.shapePackets[e.Data] {
				w.trace = wire.AppendTraceOnce(w.trace, pk)
			}
			if a.Sub.Regions[e.Data].Poly.Contains(w.p) {
				return e.Data
			}
			continue
		}
		if got := w.walk(e.Child); got >= 0 {
			return got
		}
	}
	return -1
}
