package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// This file implements the flat, cache-conscious arena representation of a
// built D-tree. The pointer tree of dtree.go remains the construction
// intermediate (Algorithm 1 needs mutable nodes) and the correctness oracle;
// once built, Flatten packs every node into one contiguous slab of
// fixed-size 64-byte records in breadth-first order, with int32 indices in
// place of pointers and all partition points pooled into a single point
// arena. A root-to-leaf descent then touches a handful of cache lines laid
// out in broadcast order instead of chasing heap pointers, and the whole
// index serializes into a single versioned snapshot (snapshot.go) that a
// restarting server loads without re-running construction.

// Flat node flags.
const (
	flatPruned    uint8 = 1 << 0
	flatTruncated uint8 = 1 << 1
)

// FlatNode is one D-tree node as a fixed 64-byte arena record — exactly one
// cache line on the machines this targets. Child references are indices into
// the node slab; a negative reference ^r encodes data bucket r. The
// partition polylines live in the tree's shared pools: polys[PolyFirst:
// PolyEnd] are this node's polyline spans into the point arena.
type FlatNode struct {
	CutLo, CutHi       float64 // interlocking band limits, canonical frame
	Left, Right        int32   // child index, or ^bucket when negative
	PolyFirst, PolyEnd int32   // span into FlatTree.polys
	NumRegions         int32
	Dim                Dimension
	Flags              uint8
	_                  [26]byte // pad to 64 bytes
}

// polySpan locates one polyline inside the shared point arena.
type polySpan struct {
	Off, N int32
}

// FlatTree is the arena form of a built D-tree. Points are stored
// pre-canonicalized (canon is a rigid rotation by sign flip and swap, exact
// in float64 both ways), so the parity test never rotates partition points
// at query time and uncanon recovers the original coordinates bit-for-bit
// for wire encoding.
type FlatTree struct {

	// N is the number of data regions below the root.
	N int

	nodes []FlatNode
	polys []polySpan
	pts   []geom.Point // canonical frame

	// adj is the optional region-adjacency table (SetAdjacency) that turns
	// the broadcast into a continuous-query medium: it is appended to the
	// snapshot and prefixed to the index packets when present.
	adj *Adjacency
}

// flatRef converts a pointer-tree child reference into an arena reference.
func flatRef(c ChildRef) int32 {
	if c.IsData() {
		return ^int32(c.Data)
	}
	return int32(c.Node.ID)
}

// Flatten packs the built tree into its arena form. Nodes land in
// breadth-first order (Nodes[i].ID == i already), so arena index == node id.
func (t *Tree) Flatten() *FlatTree {
	ft := &FlatTree{N: t.Sub.N()}
	if t.Root == nil {
		return ft
	}
	ft.nodes = make([]FlatNode, len(t.Nodes))
	var npts, npolys int
	for _, n := range t.Nodes {
		npolys += len(n.Polylines)
		npts += n.PartitionPoints()
	}
	ft.polys = make([]polySpan, 0, npolys)
	ft.pts = make([]geom.Point, 0, npts)
	for i, n := range t.Nodes {
		fn := &ft.nodes[i]
		fn.CutLo, fn.CutHi = n.CutLo, n.CutHi
		fn.Dim = n.Dim
		fn.NumRegions = int32(n.NumRegions)
		if n.Pruned {
			fn.Flags |= flatPruned
		}
		if n.Truncated {
			fn.Flags |= flatTruncated
		}
		fn.Left = flatRef(n.Left)
		fn.Right = flatRef(n.Right)
		fn.PolyFirst = int32(len(ft.polys))
		for _, pl := range n.Polylines {
			off := int32(len(ft.pts))
			for _, p := range pl {
				ft.pts = append(ft.pts, canon(n.Dim, p))
			}
			ft.polys = append(ft.polys, polySpan{Off: off, N: int32(len(pl))})
		}
		fn.PolyEnd = int32(len(ft.polys))
	}
	return ft
}

// FlattenPatched packs the tree into its arena form, bulk-copying the point
// ranges of nodes an incremental rebuild spliced from the previous
// generation's arena instead of re-canonicalizing them point by point. The
// result is identical to Flatten (same slab, spans, and point values); prev
// must be the arena of the generation the tree was rebuilt from (node point
// ranges are contiguous in arenas produced by Flatten or FlattenPatched —
// the bulk copy falls back to the per-point path if not). A nil prev is a
// plain Flatten.
func (t *Tree) FlattenPatched(prev *FlatTree) *FlatTree {
	if prev == nil {
		return t.Flatten()
	}
	ft := &FlatTree{N: t.Sub.N()}
	if t.Root == nil {
		return ft
	}
	ft.nodes = make([]FlatNode, len(t.Nodes))
	var npts, npolys int
	for _, n := range t.Nodes {
		npolys += len(n.Polylines)
		npts += n.PartitionPoints()
	}
	ft.polys = make([]polySpan, 0, npolys)
	ft.pts = make([]geom.Point, 0, npts)
	for i, n := range t.Nodes {
		fn := &ft.nodes[i]
		fn.CutLo, fn.CutHi = n.CutLo, n.CutHi
		fn.Dim = n.Dim
		fn.NumRegions = int32(n.NumRegions)
		if n.Pruned {
			fn.Flags |= flatPruned
		}
		if n.Truncated {
			fn.Flags |= flatTruncated
		}
		fn.Left = flatRef(n.Left)
		fn.Right = flatRef(n.Right)
		fn.PolyFirst = int32(len(ft.polys))
		if !t.copyFlatSpans(ft, prev, n) {
			for _, pl := range n.Polylines {
				off := int32(len(ft.pts))
				for _, p := range pl {
					ft.pts = append(ft.pts, canon(n.Dim, p))
				}
				ft.polys = append(ft.polys, polySpan{Off: off, N: int32(len(pl))})
			}
		}
		fn.PolyEnd = int32(len(ft.polys))
	}
	return ft
}

// copyFlatSpans bulk-copies a spliced node's canonical points and spans from
// the previous arena; false means the node is fresh (or the previous range
// is not contiguous) and the caller must take the per-point path.
func (t *Tree) copyFlatSpans(ft, prev *FlatTree, n *Node) bool {
	if n.src <= 0 || int(n.src) > len(prev.nodes) {
		return false
	}
	pn := &prev.nodes[n.src-1]
	if int(pn.PolyEnd-pn.PolyFirst) != len(n.Polylines) {
		return false
	}
	if pn.PolyEnd == pn.PolyFirst {
		return true
	}
	first := prev.polys[pn.PolyFirst]
	at := first.Off
	for pi := pn.PolyFirst; pi < pn.PolyEnd; pi++ {
		if prev.polys[pi].Off != at {
			return false
		}
		at += prev.polys[pi].N
	}
	base := int32(len(ft.pts))
	ft.pts = append(ft.pts, prev.pts[first.Off:at]...)
	for pi := pn.PolyFirst; pi < pn.PolyEnd; pi++ {
		sp := prev.polys[pi]
		ft.polys = append(ft.polys, polySpan{Off: base + (sp.Off - first.Off), N: sp.N})
	}
	return true
}

// rayParityLeft is Node.rayParityLeft over the arena: points are already
// canonical, so only the query rotates.
func (ft *FlatTree) rayParityLeft(n *FlatNode, p geom.Point) bool {
	cp := canon(n.Dim, p)
	num := 0
	for pi := n.PolyFirst; pi < n.PolyEnd; pi++ {
		sp := ft.polys[pi]
		pts := ft.pts[sp.Off : sp.Off+sp.N]
		for i := 0; i+1 < len(pts); i++ {
			if (geom.Segment{A: pts[i], B: pts[i+1]}).CrossesRightwardRay(cp) {
				num++
			}
		}
	}
	return num%2 == 1
}

// Locate returns the id of the data region containing p (Algorithm 2 over
// the arena). Allocation-free; bit-identical to Tree.Locate.
func (ft *FlatTree) Locate(p geom.Point) int {
	if len(ft.nodes) == 0 {
		return 0 // single-region subdivision
	}
	ref := int32(0)
	for ref >= 0 {
		n := &ft.nodes[ref]
		cx := canonX(n.Dim, p)
		switch {
		case cx <= n.CutLo:
			ref = n.Left
		case cx >= n.CutHi:
			ref = n.Right
		default:
			if ft.rayParityLeft(n, p) {
				ref = n.Left
			} else {
				ref = n.Right
			}
		}
	}
	return int(^ref)
}

// FlatPaged is the arena form of a paged D-tree: the flat tree plus pooled
// packet tables replacing the layout's per-node slices. It answers the same
// queries as Paged with identical traces, re-encodes the identical on-air
// packets, and round-trips through the binary snapshot of snapshot.go.
type FlatPaged struct {
	Flat   *FlatTree
	Params wire.Params

	packetCount int
	// Packets of node i are pkts[pktIdx[i]:pktIdx[i+1]], ascending.
	pktIdx []int32
	pkts   []int32
	// Nodes placed in packet k, in byte order: packetNodes[pnIdx[k]:pnIdx[k+1]].
	pnIdx       []int32
	packetNodes []int32
	occupied    []int32
}

// Flatten converts a paged tree into its arena form.
func (pg *Paged) Flatten() *FlatPaged {
	return pg.flattenWith(pg.Tree.Flatten())
}

// FlattenPatched converts a paged tree into its arena form, reusing the
// previous generation's node arena for spliced subtrees (Tree.FlattenPatched).
// The packet tables are always rebuilt from this generation's layout.
func (pg *Paged) FlattenPatched(prev *FlatPaged) *FlatPaged {
	var pf *FlatTree
	if prev != nil {
		pf = prev.Flat
	}
	return pg.flattenWith(pg.Tree.FlattenPatched(pf))
}

// flattenWith builds the pooled packet tables of a FlatPaged around an
// already-flattened node arena.
func (pg *Paged) flattenWith(ft *FlatTree) *FlatPaged {
	fp := &FlatPaged{Flat: ft, Params: pg.Params, packetCount: pg.Layout.PacketCount}
	n := len(ft.nodes)
	fp.pktIdx = make([]int32, n+1)
	for i := 0; i < n; i++ {
		fp.pktIdx[i+1] = fp.pktIdx[i] + int32(len(pg.Layout.PacketsOf(i)))
	}
	fp.pkts = make([]int32, fp.pktIdx[n])
	for i := 0; i < n; i++ {
		copy(fp.pkts[fp.pktIdx[i]:fp.pktIdx[i+1]], pg.Layout.PacketsOf(i))
	}
	fp.pnIdx = make([]int32, fp.packetCount+1)
	for k, ids := range pg.Layout.PacketNodes {
		fp.pnIdx[k+1] = fp.pnIdx[k] + int32(len(ids))
	}
	fp.packetNodes = make([]int32, fp.pnIdx[fp.packetCount])
	for k, ids := range pg.Layout.PacketNodes {
		at := fp.pnIdx[k]
		for i, id := range ids {
			fp.packetNodes[at+int32(i)] = int32(id)
		}
	}
	fp.occupied = make([]int32, fp.packetCount)
	for k, o := range pg.Layout.Occupied {
		fp.occupied[k] = int32(o)
	}
	return fp
}

// IndexPackets returns the size of the paged index in packets.
func (fp *FlatPaged) IndexPackets() int { return fp.packetCount }

// SizeBytes returns the occupied (pre-padding) index bytes across packets.
func (fp *FlatPaged) SizeBytes() int {
	var s int
	for _, o := range fp.occupied {
		s += int(o)
	}
	return s
}

// PacketsOf returns the packet offsets of node i, ascending.
func (fp *FlatPaged) PacketsOf(i int) []int32 {
	return fp.pkts[fp.pktIdx[i]:fp.pktIdx[i+1]]
}

// Locate answers a point query; see Paged.Locate for the trace semantics.
func (fp *FlatPaged) Locate(p geom.Point) (int, []int) {
	return fp.LocateInto(p, nil)
}

// LocateInto is the allocation-free fast path: the descent runs over the
// node slab and the pooled packet table, appending downloaded packet
// offsets into the caller's trace buffer. Bit-identical to Paged.LocateInto.
func (fp *FlatPaged) LocateInto(p geom.Point, trace []int) (int, []int) {
	trace = trace[:0]
	ft := fp.Flat
	if len(ft.nodes) == 0 {
		return 0, trace
	}
	ref := int32(0)
	for ref >= 0 {
		n := &ft.nodes[ref]
		packets := fp.pkts[fp.pktIdx[ref]:fp.pktIdx[ref+1]]
		trace = wire.AppendTraceOnce(trace, int(packets[0]))
		cx := canonX(n.Dim, p)
		switch {
		case cx <= n.CutLo:
			ref = n.Left
		case cx >= n.CutHi:
			ref = n.Right
		default:
			// Inside the interlocking band: the whole partition is needed.
			for _, pk := range packets[1:] {
				trace = wire.AppendTraceOnce(trace, int(pk))
			}
			if ft.rayParityLeft(n, p) {
				ref = n.Left
			} else {
				ref = n.Right
			}
		}
	}
	return int(^ref), trace
}

// flatNodeSize mirrors NodeSize over the arena record.
func (ft *FlatTree) flatNodeSize(i int32, p wire.Params) int {
	n := &ft.nodes[i]
	base := p.BidSize + p.HeaderSize + 2*p.PointerSize
	for pi := n.PolyFirst; pi < n.PolyEnd; pi++ {
		base += 2 + int(ft.polys[pi].N)*p.PointSize()
	}
	explicitLMC := n.Flags&flatPruned != 0 && n.Flags&flatTruncated == 0
	if explicitLMC {
		base += p.CoordSize
	}
	if base > p.PacketCapacity {
		base += p.CoordSize // RMC
		if !explicitLMC {
			base += p.CoordSize // LMC
		}
	}
	return base
}

// EncodePackets serializes the arena into on-air packets, byte-identical to
// Paged.EncodePackets on the tree it was flattened from — which is what lets
// a server restored from a snapshot broadcast the same cycle bytes as one
// that built the index from scratch.
func (fp *FlatPaged) EncodePackets() ([][]byte, error) {
	capacity := fp.Params.PacketCapacity
	out := make([][]byte, fp.packetCount)
	for k := range out {
		out[k] = make([]byte, capacity)
	}
	ft := fp.Flat
	nn := len(ft.nodes)
	if nn == 0 {
		return out, nil
	}

	type pos struct{ packet, off int32 }
	offsets := make([]pos, nn)
	remaining := make([]int, nn)
	placed := make([]bool, nn)
	for i := range ft.nodes {
		remaining[i] = ft.flatNodeSize(int32(i), fp.Params)
	}
	for k := 0; k < fp.packetCount; k++ {
		cursor := 0
		for _, id := range fp.packetNodes[fp.pnIdx[k]:fp.pnIdx[k+1]] {
			if !placed[id] {
				placed[id] = true
				offsets[id] = pos{int32(k), int32(cursor)}
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

	ref := func(c int32) (uint32, error) {
		if c < 0 {
			d := ^c
			return 1<<31 | uint32(d), nil
		}
		p := offsets[c]
		if p.packet >= 1<<15 || p.off >= 1<<16 {
			return 0, fmt.Errorf("core: pointer target (%d, %d) out of range", p.packet, p.off)
		}
		return uint32(p.packet)<<16 | uint32(p.off), nil
	}

	var buf []byte
	for i := range ft.nodes {
		n := &ft.nodes[i]
		size := ft.flatNodeSize(int32(i), fp.Params)
		nPoly := int(n.PolyEnd - n.PolyFirst)
		if nPoly >= 1<<12 {
			return nil, fmt.Errorf("core: node %d has %d polylines (max 4095)", i, nPoly)
		}
		multi := size > capacity
		explicitLMC := multi || n.Flags&flatPruned != 0 && n.Flags&flatTruncated == 0

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
		if n.Flags&flatTruncated != 0 {
			hdr |= hdrTruncated
		}
		hdr |= uint16(nPoly) << hdrCountShft

		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(i))
		buf = binary.LittleEndian.AppendUint16(buf, hdr)
		for _, c := range []int32{n.Left, n.Right} {
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
		for pi := n.PolyFirst; pi < n.PolyEnd; pi++ {
			sp := ft.polys[pi]
			if sp.N >= 1<<16 {
				return nil, fmt.Errorf("core: polyline with %d points", sp.N)
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sp.N))
			for _, cp := range ft.pts[sp.Off : sp.Off+sp.N] {
				p := uncanon(n.Dim, cp) // stored canonical; the wire carries originals
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(p.X)))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(p.Y)))
			}
		}
		if len(buf) != size {
			return nil, fmt.Errorf("core: node %d encoded to %d bytes, size model says %d", i, len(buf), size)
		}
		p := offsets[i]
		pk, off := int(p.packet), int(p.off)
		rest := buf
		for len(rest) > 0 {
			if pk >= len(out) {
				// Unreachable for layouts produced by paging; a hand-damaged
				// snapshot could place a node's bytes non-contiguously.
				return nil, fmt.Errorf("core: node %d spills past the packet table", i)
			}
			nw := copy(out[pk][off:], rest)
			rest = rest[nw:]
			pk, off = pk+1, 0
		}
	}
	return out, nil
}
