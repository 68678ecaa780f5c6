package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// Test-side references for the shipped forms: the DTRE encoding is the
// identity suites' canonical image of a pointer tree, CheckInvariants their
// structural checker, ExpectedDepth the weighted-tree measure,
// Paged.EncodePackets the pointer-side encoder the flat arena's packets are
// compared against, and Tree.Locate / Paged.Locate the float64 pointer
// descents (Algorithm 2 on the built tree, before the wire's float32
// narrowing) the build and paging tests check against ground truth.

// DTRE: a compact binary image of the built D-tree (topology, partitions,
// band limits at full float64 precision), so two trees are equal exactly
// when their images are. The subdivision is not embedded.
//
// Layout (little endian): magic "DTRE", version u16, region count u32,
// node count u32, then nodes in breadth-first order:
//
//	dim u8 · flags u8 (bit0 pruned, bit1 truncated) ·
//	cutLo f64 · cutHi f64 · interProb f64 · numRegions u32 ·
//	left u32 · right u32 (bit31 = data pointer; else node id) ·
//	polyline count u16 · per polyline: point count u16 + f64 x,y pairs

const (
	marshalMagic   = "DTRE"
	marshalVersion = 1
)

// Marshal encodes the tree.
func (t *Tree) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(marshalMagic)
	le := binary.LittleEndian
	w := func(v interface{}) { binary.Write(&buf, le, v) } //nolint:errcheck
	w(uint16(marshalVersion))
	var treeFlags uint8
	if t.opts.weights != nil {
		treeFlags |= 1 // unbalanced (access-weighted) tree
	}
	w(treeFlags)
	w(uint32(t.Sub.N()))
	w(uint32(len(t.Nodes)))
	ref := func(c ChildRef) uint32 {
		if c.IsData() {
			return 1<<31 | uint32(c.Data)
		}
		return uint32(c.Node.ID)
	}
	for _, n := range t.Nodes {
		w(uint8(n.Dim))
		var flags uint8
		if n.Pruned {
			flags |= 1
		}
		if n.Truncated {
			flags |= 2
		}
		w(flags)
		w(n.CutLo)
		w(n.CutHi)
		w(n.InterProb)
		w(uint32(n.NumRegions))
		w(ref(n.Left))
		w(ref(n.Right))
		if len(n.Polylines) >= 1<<16 {
			return nil, fmt.Errorf("core: node %d has %d polylines", n.ID, len(n.Polylines))
		}
		w(uint16(len(n.Polylines)))
		for _, pl := range n.Polylines {
			if len(pl) >= 1<<16 {
				return nil, fmt.Errorf("core: polyline with %d points", len(pl))
			}
			w(uint16(len(pl)))
			for _, p := range pl {
				w(p.X)
				w(p.Y)
			}
		}
	}
	return buf.Bytes(), nil
}

// CheckInvariants verifies the four structural properties of Section 4.1:
// every node has two children, left/right spatial separation (checked via
// region membership), height balance, and consistent region counts.
func (t *Tree) CheckInvariants() error {
	if t.Root == nil {
		if t.Sub.N() != 1 {
			return fmt.Errorf("core: nil root with %d regions", t.Sub.N())
		}
		return nil
	}
	var walk func(c ChildRef) (depthMin, depthMax, regions int, err error)
	walk = func(c ChildRef) (int, int, int, error) {
		if c.IsData() {
			if c.Data < 0 || c.Data >= t.Sub.N() {
				return 0, 0, 0, fmt.Errorf("core: data pointer %d out of range", c.Data)
			}
			return 0, 0, 1, nil
		}
		n := c.Node
		if len(n.Polylines) == 0 && n.CutHi > n.CutLo+geom.Eps {
			return 0, 0, 0, fmt.Errorf("core: node %d has empty partition but a non-empty interlocking band", n.ID)
		}
		lMin, lMax, lN, err := walk(n.Left)
		if err != nil {
			return 0, 0, 0, err
		}
		rMin, rMax, rN, err := walk(n.Right)
		if err != nil {
			return 0, 0, 0, err
		}
		if lN+rN != n.NumRegions {
			return 0, 0, 0, fmt.Errorf("core: node %d region count %d != %d+%d", n.ID, n.NumRegions, lN, rN)
		}
		if diff := lN - rN; t.opts.weights == nil && (diff < -1 || diff > 1) {
			return 0, 0, 0, fmt.Errorf("core: node %d unbalanced split %d/%d", n.ID, lN, rN)
		}
		return 1 + min(lMin, rMin), 1 + max(lMax, rMax), lN + rN, nil
	}
	dMin, dMax, n, err := walk(ChildRef{Node: t.Root})
	if err != nil {
		return err
	}
	if n != t.Sub.N() {
		return fmt.Errorf("core: tree covers %d of %d regions", n, t.Sub.N())
	}
	// Weighted trees intentionally trade height balance for expected depth.
	if t.opts.weights == nil && dMax-dMin > 1 {
		return fmt.Errorf("core: leaf levels differ by %d (> 1)", dMax-dMin)
	}
	return nil
}

// ExpectedDepth returns the expected number of nodes visited by a point
// query when region r is queried with probability weights[r] (normalized
// internally). With nil weights the access distribution is uniform over
// regions.
func (t *Tree) ExpectedDepth(weights []float64) float64 {
	if t.Root == nil {
		return 0
	}
	var total float64
	w := func(r int) float64 {
		if weights == nil {
			return 1
		}
		return weights[r]
	}
	for r := 0; r < t.Sub.N(); r++ {
		total += w(r)
	}
	if total == 0 {
		return 0
	}
	var sum float64
	var walk func(c ChildRef, depth int)
	walk = func(c ChildRef, depth int) {
		if c.IsData() {
			sum += w(c.Data) * float64(depth)
			return
		}
		walk(c.Node.Left, depth+1)
		walk(c.Node.Right, depth+1)
	}
	walk(ChildRef{Node: t.Root}, 0)
	return sum / total
}

// EncodePackets serializes the paged tree into real fixed-size packets.
// The root starts at byte 0 of packet 0.
func (pg *Paged) EncodePackets() ([][]byte, error) {
	capacity := pg.Params.PacketCapacity
	out := make([][]byte, pg.Layout.PacketCount)
	for k := range out {
		out[k] = make([]byte, capacity)
	}
	if pg.Tree.Root == nil {
		return out, nil
	}
	// Compute each node's (packet, offset) from the layout's byte order.
	type pos struct{ packet, off int }
	offsets := make(map[int]pos, len(pg.Tree.Nodes))
	remaining := make(map[int]int, len(pg.Tree.Nodes))
	for _, n := range pg.Tree.Nodes {
		remaining[n.ID] = NodeSize(n, pg.Params)
	}
	for k, ids := range pg.Layout.PacketNodes {
		cursor := 0
		for _, id := range ids {
			if _, seen := offsets[id]; !seen {
				offsets[id] = pos{k, cursor}
			}
			take := min(remaining[id], capacity-cursor)
			cursor += take
			remaining[id] -= take
		}
	}
	for id, r := range remaining {
		if r != 0 {
			return nil, fmt.Errorf("core: node %d has %d unplaced bytes", id, r)
		}
	}

	ref := func(c ChildRef) (uint32, error) {
		if c.IsData() {
			if c.Data < 0 || c.Data >= 1<<31 {
				return 0, fmt.Errorf("core: bucket id %d out of range", c.Data)
			}
			return 1<<31 | uint32(c.Data), nil
		}
		p := offsets[c.Node.ID]
		if p.packet >= 1<<15 || p.off >= 1<<16 {
			return 0, fmt.Errorf("core: pointer target (%d, %d) out of range", p.packet, p.off)
		}
		return uint32(p.packet)<<16 | uint32(p.off), nil
	}

	for _, n := range pg.Tree.Nodes {
		buf, err := pg.encodeNode(n, ref)
		if err != nil {
			return nil, err
		}
		if len(buf) != NodeSize(n, pg.Params) {
			return nil, fmt.Errorf("core: node %d encoded to %d bytes, size model says %d",
				n.ID, len(buf), NodeSize(n, pg.Params))
		}
		// Copy across the node's packets.
		p := offsets[n.ID]
		pk, off := p.packet, p.off
		for len(buf) > 0 {
			nw := copy(out[pk][off:], buf)
			buf = buf[nw:]
			pk, off = pk+1, 0
		}
	}
	return out, nil
}

func (pg *Paged) encodeNode(n *Node, ref func(ChildRef) (uint32, error)) ([]byte, error) {
	if len(n.Polylines) >= 1<<12 {
		return nil, fmt.Errorf("core: node %d has %d polylines (max 4095)", n.ID, len(n.Polylines))
	}
	multi := NodeSize(n, pg.Params) > pg.Params.PacketCapacity
	explicitLMC := multi || needsExplicitLMC(n)

	var hdr uint16
	if n.Dim == DimX {
		hdr |= hdrDimX
	}
	if multi {
		hdr |= hdrMulti
	}
	if explicitLMC {
		hdr |= hdrLMC
	}
	if n.Truncated {
		hdr |= hdrTruncated
	}
	hdr |= uint16(len(n.Polylines)) << hdrCountShft

	buf := make([]byte, 0, NodeSize(n, pg.Params))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(n.ID))
	buf = binary.LittleEndian.AppendUint16(buf, hdr)
	for _, c := range []ChildRef{n.Left, n.Right} {
		v, err := ref(c)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	if multi {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(n.CutHi)))
	}
	if explicitLMC {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(n.CutLo)))
	}
	for _, pl := range n.Polylines {
		if len(pl) >= 1<<16 {
			return nil, fmt.Errorf("core: polyline with %d points", len(pl))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(pl)))
		for _, p := range pl {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(p.X)))
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(p.Y)))
		}
	}
	return buf, nil
}

// side decides which subspace of node n the query point belongs to
// (Algorithm 2, lines 4-26) at float64 precision: the canonical
// x-coordinate against the band limits first, then the rightward-ray
// crossing parity against the partition polylines for points inside the
// interlocking band.
func (n *Node) side(p geom.Point) ChildRef {
	cx := canonX(n.Dim, p)
	if cx <= n.CutLo {
		return n.Left
	}
	if cx >= n.CutHi {
		return n.Right
	}
	if n.rayParityLeft(p) {
		return n.Left
	}
	return n.Right
}

// rayParityLeft reports whether a rightward ray (in the canonical frame)
// from p crosses the partition an odd number of times, i.e. whether p lies
// inside the lefthand subspace's extent.
func (n *Node) rayParityLeft(p geom.Point) bool {
	cp := canon(n.Dim, p)
	num := 0
	for _, pl := range n.Polylines {
		for i := 0; i+1 < len(pl); i++ {
			s := geom.Segment{A: canon(n.Dim, pl[i]), B: canon(n.Dim, pl[i+1])}
			if s.CrossesRightwardRay(cp) {
				num++
			}
		}
	}
	return num%2 == 1
}

// Locate returns the id of the data region containing p by descending the
// pointer tree from the root.
func (t *Tree) Locate(p geom.Point) int {
	if t.Root == nil {
		return 0 // single-region subdivision
	}
	ref := ChildRef{Node: t.Root}
	for !ref.IsData() {
		ref = ref.Node.side(p)
	}
	return ref.Data
}

// Locate answers a point query over the paged pointer tree with the
// early-termination trace: a node's first packet always, its remaining
// packets only for a query inside the interlocking band.
func (pg *Paged) Locate(p geom.Point) (int, []int) {
	return pg.LocateInto(p, nil)
}

// LocateInto is Locate appending into a reused trace buffer.
func (pg *Paged) LocateInto(p geom.Point, trace []int) (int, []int) {
	trace = trace[:0]
	if pg.Tree.Root == nil {
		return 0, trace
	}
	ref := ChildRef{Node: pg.Tree.Root}
	for !ref.IsData() {
		n := ref.Node
		packets := pg.Layout.PacketsOf(n.ID)
		trace = wire.AppendTraceOnce(trace, int(packets[0]))
		if cx := canonX(n.Dim, p); cx > n.CutLo && cx < n.CutHi {
			for _, pk := range packets[1:] {
				trace = wire.AppendTraceOnce(trace, int(pk))
			}
		}
		ref = n.side(p)
	}
	return ref.Data, trace
}
