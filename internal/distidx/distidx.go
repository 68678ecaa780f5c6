// Package distidx implements the distributed-indexing broadcast
// organization of Imielinski, Viswanathan & Badrinath (the paper's
// reference [15]) for the D-tree, as an alternative to the (1, m) scheme
// the paper evaluates. Instead of replicating the whole index m times, the
// tree is cut at a chosen depth: the part above the cut (the "replicated
// part") is transmitted before every data segment, while each subtree below
// the cut (the "local part") is transmitted exactly once, directly in front
// of the data buckets it indexes — which requires the buckets to be ordered
// by the tree's leaf traversal. Cycles shrink from m·I + D to
// m·R + (I - R) + D, trading slightly longer client paths for materially
// lower access latency.
package distidx

import (
	"fmt"
	"math"
	"sort"

	"airindex/internal/core"
	"airindex/internal/geom"
	"airindex/internal/wire"
)

// segment is one data segment: the local subtree in front of it and the
// buckets (region ids, in leaf order) it covers.
type segment struct {
	root    core.ChildRef
	local   *wire.Layout // nil for a bare data-pointer segment
	buckets []int
	// Cycle geometry, in slots relative to the segment block's start:
	// [replicated part][local part][buckets].
	blockStart int // absolute slot of the block's replicated part
	localStart int
	dataStart  int
}

// Index is a D-tree broadcast under distributed indexing.
type Index struct {
	Tree     *core.Tree
	Params   wire.Params
	CutDepth int

	flat     *core.FlatTree // the tree's arena; clients descend it
	rep      *wire.Layout
	nodeSeg  []int // node id -> its segment, or -1 in the replicated part
	segments []segment
	segOf    map[int]int // region id -> segment index
	posOf    map[int]int // region id -> absolute slot of its first data packet
	cycleLen int
}

// New builds the distributed organization with the latency-minimizing cut
// depth (searched exhaustively; the tree has O(log N) levels).
func New(tree *core.Tree, params wire.Params) (*Index, error) {
	if tree.Root == nil {
		return nil, fmt.Errorf("distidx: single-region trees need no index")
	}
	height := tree.Height()
	flat := tree.Flatten(params)
	var best *Index
	var bestScore float64
	for d := 1; d < height; d++ {
		idx, err := newWithDepth(tree, flat, params, d)
		if err != nil {
			return nil, err
		}
		// Expected latency ~ wait for the next block's replicated part
		// (cycle/m / 2) plus wait for the target segment (cycle / 2).
		m := float64(len(idx.segments))
		score := float64(idx.cycleLen)/(2*m) + float64(idx.cycleLen)/2
		if best == nil || score < bestScore {
			best, bestScore = idx, score
		}
	}
	if best == nil {
		return newWithDepth(tree, flat, params, 1)
	}
	return best, nil
}

// newWithDepth builds the organization with an explicit cut depth over the
// tree and its arena: nodes at depth < cutDepth are replicated in every
// block; each child crossing the cut becomes a segment.
func newWithDepth(tree *core.Tree, flat *core.FlatTree, params wire.Params, cutDepth int) (*Index, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if tree.Root == nil {
		return nil, fmt.Errorf("distidx: single-region trees need no index")
	}
	if cutDepth < 1 {
		return nil, fmt.Errorf("distidx: cut depth %d must be >= 1", cutDepth)
	}
	idx := &Index{
		Tree: tree, Params: params, CutDepth: cutDepth, flat: flat,
		nodeSeg: make([]int, len(tree.Nodes)),
		segOf:   make(map[int]int),
		posOf:   make(map[int]int),
	}

	// Split the tree: replicated nodes above the cut, segment roots below,
	// in left-to-right order so buckets come out in leaf order.
	var repSpecs []wire.NodeSpec
	var walk func(c core.ChildRef, depth, parent int)
	walk = func(c core.ChildRef, depth, parent int) {
		if depth >= cutDepth || c.IsData() {
			idx.segments = append(idx.segments, segment{root: c})
			return
		}
		n := c.Node
		idx.nodeSeg[n.ID] = -1
		var children []int
		for _, ch := range []core.ChildRef{n.Left, n.Right} {
			if !ch.IsData() && depth+1 < cutDepth {
				children = append(children, ch.Node.ID)
			}
		}
		repSpecs = append(repSpecs, wire.NodeSpec{
			ID: n.ID, Size: core.NodeSize(n, params), Parent: parent,
			Children: children, Leaf: len(children) == 0,
		})
		walk(n.Left, depth+1, n.ID)
		walk(n.Right, depth+1, n.ID)
	}
	walk(core.ChildRef{Node: tree.Root}, 0, -1)

	// The replicated specs must be in a parent-before-child order for the
	// pager; the pre-order walk above guarantees it.
	rep, err := wire.TopDown(repSpecs, params.PacketCapacity)
	if err != nil {
		return nil, fmt.Errorf("distidx: paging replicated part: %w", err)
	}
	idx.rep = rep

	// Page each segment's local subtree and collect its buckets in order.
	for si := range idx.segments {
		seg := &idx.segments[si]
		var leaves []int
		var collect func(c core.ChildRef)
		collect = func(c core.ChildRef) {
			if c.IsData() {
				leaves = append(leaves, c.Data)
				return
			}
			idx.nodeSeg[c.Node.ID] = si
			collect(c.Node.Left)
			collect(c.Node.Right)
		}
		collect(seg.root)
		seg.buckets = leaves
		for _, b := range leaves {
			idx.segOf[b] = si
		}
		if !seg.root.IsData() {
			specs := subtreeSpecs(seg.root.Node, params)
			local, err := wire.TopDown(specs, params.PacketCapacity)
			if err != nil {
				return nil, fmt.Errorf("distidx: paging segment %d: %w", si, err)
			}
			seg.local = local
		}
	}

	// Lay out the cycle.
	bp := params.DataBucketPackets()
	pos := 0
	for si := range idx.segments {
		seg := &idx.segments[si]
		seg.blockStart = pos
		pos += rep.PacketCount
		seg.localStart = pos
		if seg.local != nil {
			pos += seg.local.PacketCount
		}
		seg.dataStart = pos
		for _, b := range seg.buckets {
			idx.posOf[b] = pos
			pos += bp
		}
	}
	idx.cycleLen = pos
	return idx, nil
}

// subtreeSpecs lists a subtree's nodes breadth-first for paging.
func subtreeSpecs(root *core.Node, params wire.Params) []wire.NodeSpec {
	var specs []wire.NodeSpec
	parent := map[int]int{root.ID: -1}
	queue := []*core.Node{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		var children []int
		for _, c := range []core.ChildRef{n.Left, n.Right} {
			if !c.IsData() {
				children = append(children, c.Node.ID)
				parent[c.Node.ID] = n.ID
				queue = append(queue, c.Node)
			}
		}
		specs = append(specs, wire.NodeSpec{
			ID: n.ID, Size: core.NodeSize(n, params), Parent: parent[n.ID],
			Children: children, Leaf: len(children) == 0,
		})
	}
	return specs
}

// CycleLen returns the broadcast cycle length in packets.
func (x *Index) CycleLen() int { return x.cycleLen }

// Segments returns the number of data segments (the organization's m).
func (x *Index) Segments() int { return len(x.segments) }

// TotalIndexPackets returns index packets per cycle (replicated and local).
func (x *Index) TotalIndexPackets() int {
	total := len(x.segments) * x.rep.PacketCount
	for i := range x.segments {
		if x.segments[i].local != nil {
			total += x.segments[i].local.PacketCount
		}
	}
	return total
}

// Cost is the outcome of one simulated access.
type Cost struct {
	Bucket    int
	Latency   float64 // packet slots from query issue to the data's end
	TuneProbe int
	TuneIndex int
	TuneData  int
}

// TotalTuning returns the parsed-packet count across protocol steps.
func (c Cost) TotalTuning() int { return c.TuneProbe + c.TuneIndex + c.TuneData }

// Access simulates the client protocol for a query at point p issued at
// absolute time t: probe, doze to the next block's replicated part, route
// through it, doze to the target segment's local part (every block carries
// the same replicated part, so the routing stays valid), finish the search
// there, and download the bucket that follows in the same block.
func (x *Index) Access(p geom.Point, t float64) (Cost, error) {
	bucket, repOffsets, localOffsets := x.search(p)
	seg := x.segOf[bucket]

	cost := Cost{Bucket: bucket}
	cur := float64(int(t) + 1) // finish the in-flight packet
	cost.TuneProbe = 1

	// Replicated part of the next block.
	_, blockStart := x.nextBlock(cur)
	for _, off := range repOffsets {
		slot := float64(blockStart + off)
		if slot+1 < cur {
			return cost, fmt.Errorf("distidx: replicated packet %d not monotone", off)
		}
		cur = slot + 1
		cost.TuneIndex++
	}

	// The target segment's local part, at its next occurrence.
	s := &x.segments[seg]
	localAbs := x.nextOccurrence(s.localStart, cur)
	for _, off := range localOffsets {
		slot := localAbs + float64(off)
		if slot+1 < cur {
			return cost, fmt.Errorf("distidx: local packet %d not monotone", off)
		}
		cur = slot + 1
		cost.TuneIndex++
	}

	// The bucket follows inside the same block instance.
	blockAbs := localAbs - float64(s.localStart-s.blockStart)
	dataSlot := blockAbs + float64(x.posOf[bucket]-s.blockStart)
	if dataSlot+1e-9 < cur {
		return cost, fmt.Errorf("distidx: bucket slot %g precedes cursor %g", dataSlot, cur)
	}
	bp := x.Params.DataBucketPackets()
	end := dataSlot + float64(bp)
	cost.TuneData = bp
	cost.Latency = end - t
	return cost, nil
}

// nextOccurrence returns the smallest absolute slot congruent to offset
// (mod cycle) that is >= after.
func (x *Index) nextOccurrence(offset int, after float64) float64 {
	L := float64(x.cycleLen)
	base := float64(offset)
	k := math.Ceil((after - base) / L)
	if k < 0 {
		k = 0
	}
	return base + k*L
}

// nextBlock returns the index and absolute start of the first block whose
// replicated part begins at or after cur.
func (x *Index) nextBlock(cur float64) (int, int) {
	L := float64(x.cycleLen)
	k := math.Floor(cur / L)
	within := cur - k*L
	starts := make([]int, len(x.segments))
	for i := range x.segments {
		starts[i] = x.segments[i].blockStart
	}
	i := sort.SearchInts(starts, int(math.Ceil(within-1e-9)))
	if i < len(starts) {
		return i, int(k)*x.cycleLen + starts[i]
	}
	return 0, (int(k)+1)*x.cycleLen + starts[0]
}

// search descends the tree's arena for p and returns the bucket with the
// replicated-part and local-part packet offsets the client reads (sorted,
// de-duplicated). The arena walk applies the RMC/LMC early termination of
// core.FlatPaged.Locate: only queries inside a node's interlocking band
// read past its first packet.
func (x *Index) search(p geom.Point) (bucket int, rep, local []int) {
	bucket = x.flat.Descend(p, func(node int, rest bool) {
		layout, out := x.rep, &rep
		if si := x.nodeSeg[node]; si >= 0 {
			layout, out = x.segments[si].local, &local
		}
		packets := layout.PacketsOf(node)
		if !rest {
			packets = packets[:1]
		}
		for _, pk := range packets {
			*out = wire.AppendTraceOnce(*out, int(pk))
		}
	})
	sort.Ints(rep)
	sort.Ints(local)
	return bucket, rep, local
}
