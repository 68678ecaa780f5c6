package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// This file implements the flat, cache-conscious arena representation of a
// built D-tree — the form every served index takes. The pointer tree of
// dtree.go is only the construction intermediate (Algorithm 1 needs mutable
// nodes). Flatten packs every node into one contiguous slab of fixed-size
// 64-byte records in breadth-first order, with int32 indices in place of
// pointers and all partition points pooled into a single point arena. A
// root-to-leaf descent then touches a handful of cache lines laid out in
// broadcast order instead of chasing heap pointers.
//
// The arena holds exactly what the wire carries: partition points and band
// limits are stored at float32 precision, the coordinate size of the packet
// format (Table 2), a record keeps the band limits only where its wire
// header announces them, and that header is the record's own. Its descent
// (query.go) runs through the same side kernel as the wire client, so the
// arena answers every query with the region and the packet trace a client
// decoding the broadcast gets. The snapshot (snapshot.go) is therefore just
// the encoded packets: a restarting server decodes them back into the arena
// without re-running construction.

// FlatNode is one D-tree node as a fixed 64-byte arena record — exactly one
// cache line on the machines this targets. Child references are indices into
// the node slab; a negative reference ^r encodes data bucket r. The
// partition polylines live in the tree's shared pools: polys[PolyFirst:
// PolyEnd] are this node's polyline spans into the point arena.
type FlatNode struct {
	// CutLo and CutHi are the band limits the wire carries, in the
	// canonical frame: CutLo when hdr announces an LMC, CutHi (the RMC) on
	// a multi-packet node; zero otherwise.
	CutLo, CutHi       float32
	Left, Right        int32 // child index, or ^bucket when negative
	PolyFirst, PolyEnd int32 // span into FlatTree.polys
	// Derived for one paging (flatten, decodeIndex, setFirstPackets): lo
	// and hi are the band limits a client derives from the whole node's
	// bytes (setBand); pkt0 is the first packet the node occupies.
	lo, hi float32
	pkt0   int32
	// hdr is the node's wire header (codec.go) without the polyline count:
	// its dimension, truncated, LMC and multi-packet bits.
	hdr uint16
	Dim Dimension
	_   [25]byte // pad to 64 bytes
}

// wirePt is one partition point as the arena stores it: the coordinates the
// wire carries (float32, Table 2), rotated into its node's canonical frame.
type wirePt struct{ X, Y float32 }

// canonWire rotates the wire coordinates (x, y) into d's canonical frame;
// the rotation is a sign flip and swap, exact at any precision.
func canonWire(d Dimension, x, y float32) wirePt {
	if d == DimX {
		return wirePt{X: -y, Y: x}
	}
	return wirePt{X: x, Y: y}
}

// wire inverts canonWire.
func (q wirePt) wire(d Dimension) (x, y float32) {
	if d == DimX {
		return q.Y, -q.X
	}
	return q.X, q.Y
}

// point widens q to a geom.Point (exactly).
func (q wirePt) point() geom.Point { return geom.Pt(float64(q.X), float64(q.Y)) }

// polySpan locates one polyline inside the shared point arena.
type polySpan struct {
	Off, N int32
}

// FlatTree is the arena form of a built D-tree. Points are stored as the
// wire's float32 coordinates, pre-canonicalized (canonWire), so the parity
// test never rotates partition points at query time and the encoder
// recovers the coordinates the wire carries bit-for-bit.
type FlatTree struct {

	// N is the number of data regions below the root.
	N int

	nodes []FlatNode
	polys []polySpan
	pts   []wirePt

	// adj is the optional region-adjacency table (SetAdjacency) that turns
	// the broadcast into a continuous-query medium: when present it is
	// prefixed to the index packets, on the air and in the snapshot.
	adj *Adjacency
}

// flatRef converts a pointer-tree child reference into an arena reference.
func flatRef(c ChildRef) int32 {
	if c.IsData() {
		return ^int32(c.Data)
	}
	return int32(c.Node.ID)
}

// Flatten packs the built tree into its arena form for nodes encoded with
// params. Nodes land in breadth-first order (Nodes[i].ID == i already), so
// arena index == node id.
func (t *Tree) Flatten(params wire.Params) *FlatTree { return t.flatten(nil, params) }

// flatten packs the tree into its arena form, bulk-copying the point ranges
// of nodes an incremental rebuild spliced from the previous generation's
// arena instead of re-deriving them point by point. The result is identical
// to a plain flatten (same slab, spans, and point values); prev must be the
// arena of the generation the tree was rebuilt from (node point ranges are
// contiguous in arenas built here — the bulk copy falls back to the
// per-point path if not). A nil prev is a plain flatten.
func (t *Tree) flatten(prev *FlatTree, params wire.Params) *FlatTree {
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
	ft.pts = make([]wirePt, 0, npts)
	for i, n := range t.Nodes {
		fn := &ft.nodes[i]
		fn.Dim = n.Dim
		fn.hdr = nodeHeader(n, params)
		if fn.hdr&hdrLMC != 0 {
			fn.CutLo = float32(n.CutLo)
		}
		if fn.hdr&hdrMulti != 0 {
			fn.CutHi = float32(n.CutHi)
		}
		fn.Left = flatRef(n.Left)
		fn.Right = flatRef(n.Right)
		fn.PolyFirst = int32(len(ft.polys))
		if prev == nil || !t.copyFlatSpans(ft, prev, n) {
			for _, pl := range n.Polylines {
				off := int32(len(ft.pts))
				for _, p := range pl {
					ft.pts = append(ft.pts, canonWire(n.Dim, float32(p.X), float32(p.Y)))
				}
				ft.polys = append(ft.polys, polySpan{Off: off, N: int32(len(pl))})
			}
		}
		fn.PolyEnd = int32(len(ft.polys))
		ft.setBand(fn)
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

// FlatPaged is the arena form of a paged D-tree: the flat tree plus pooled
// packet tables replacing the layout's per-node slices. It encodes the
// on-air packets, answers point queries with the region and packet trace a
// wire client gets from them, and is rebuilt from those packets when a
// snapshot loads (snapshot.go).
type FlatPaged struct {
	Flat   *FlatTree
	Params wire.Params
	// Source fingerprints the input the index was built from, as its
	// builder defines it (a fabric shard: its clipped cells and global
	// ids); zero when unset. The snapshot carries it, so a restore can
	// refuse a file built from other input.
	Source uint64

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
	return pg.flattenWith(pg.Tree.flatten(nil, pg.Params))
}

// FlattenPatched converts a paged tree into its arena form, reusing the
// previous generation's node arena for spliced subtrees (Tree.flatten).
// The packet tables are always rebuilt from this generation's layout.
func (pg *Paged) FlattenPatched(prev *FlatPaged) *FlatPaged {
	var pf *FlatTree
	if prev != nil {
		pf = prev.Flat
	}
	return pg.flattenWith(pg.Tree.flatten(pf, pg.Params))
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
	fp.setFirstPackets()
	return fp
}

// setFirstPackets copies each node's first packet into its record, so a
// descent outside a node's band reads nothing but the record.
func (fp *FlatPaged) setFirstPackets() {
	for i := range fp.Flat.nodes {
		fp.Flat.nodes[i].pkt0 = fp.pkts[fp.pktIdx[i]]
	}
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

// Locate answers a point query and returns the region id together with the
// packet offsets the client downloads, in access order. For a node spanning
// several packets, the first packet carries the pointers, the band limits
// (RMC/LMC) and the head of the partition, so a query outside the
// interlocking band descends after one packet; a query inside the band
// must read the node's remaining packets to count ray crossings (Section
// 4.4).
func (fp *FlatPaged) Locate(p geom.Point) (int, []int) {
	return fp.LocateInto(p, nil)
}

// LocateInto is Locate appending the downloaded packet offsets into trace
// (reset to length zero first), so Monte Carlo drivers can reuse one buffer
// across millions of queries; allocation-free when the buffer suffices.
func (fp *FlatPaged) LocateInto(p geom.Point, trace []int) (int, []int) {
	return fp.locate(p, trace, true)
}

// LocateWithoutEarlyTerminationInto is LocateInto reading every packet of
// every visited node, disabling the RMC/LMC first-packet shortcut of
// Section 4.4 (ablation). Answers are the same as LocateInto's.
func (fp *FlatPaged) LocateWithoutEarlyTerminationInto(p geom.Point, trace []int) (int, []int) {
	return fp.locate(p, trace, false)
}

func (fp *FlatPaged) locate(p geom.Point, trace []int, early bool) (int, []int) {
	trace = trace[:0]
	ft := fp.Flat
	if len(ft.nodes) == 0 {
		return 0, trace // single-region subdivision
	}
	ref := int32(0)
	for ref >= 0 {
		n := &ft.nodes[ref]
		trace = wire.AppendTraceOnce(trace, int(n.pkt0))
		// A query inside the band reads the node's remaining packets (a
		// single-packet node has none); without early termination every
		// node is read whole.
		left, in := ft.side(n, p)
		if in || !early {
			for _, pk := range fp.pkts[fp.pktIdx[ref]+1 : fp.pktIdx[ref+1]] {
				trace = wire.AppendTraceOnce(trace, int(pk))
			}
		}
		if left {
			ref = n.Left
		} else {
			ref = n.Right
		}
	}
	return int(^ref), trace
}

// wireSize returns node n's encoded size: bid, header, two pointers and the
// partition with one 2-byte count per polyline, plus the RMC and LMC its
// header announces. NodeSize is the same model over a pointer node.
func (ft *FlatTree) wireSize(n *FlatNode, p wire.Params) int {
	size := p.BidSize + p.HeaderSize + 2*p.PointerSize
	for _, sp := range ft.polys[n.PolyFirst:n.PolyEnd] {
		size += 2 + int(sp.N)*p.PointSize()
	}
	if n.hdr&hdrMulti != 0 {
		size += p.CoordSize
	}
	if n.hdr&hdrLMC != 0 {
		size += p.CoordSize
	}
	return size
}

// EncodePackets serializes the arena into on-air packets (codec.go). A
// snapshot stores exactly these bytes and the loader accepts only arenas
// that re-encode to them, so a server restored from a snapshot broadcasts
// the same cycle bytes as one that built the index from scratch. Every
// stored coordinate is a float32 value, so the narrowing below is exact.
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
		remaining[i] = ft.wireSize(&ft.nodes[i], fp.Params)
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
		size := ft.wireSize(n, fp.Params)
		nPoly := int(n.PolyEnd - n.PolyFirst)
		if nPoly >= 1<<12 {
			return nil, fmt.Errorf("core: node %d has %d polylines (max 4095)", i, nPoly)
		}
		hdr := n.hdr | uint16(nPoly)<<hdrCountShft

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
		if hdr&hdrMulti != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(n.CutHi))
		}
		if hdr&hdrLMC != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(n.CutLo))
		}
		for pi := n.PolyFirst; pi < n.PolyEnd; pi++ {
			sp := ft.polys[pi]
			if sp.N >= 1<<16 {
				return nil, fmt.Errorf("core: polyline with %d points", sp.N)
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(sp.N))
			for _, cp := range ft.pts[sp.Off : sp.Off+sp.N] {
				x, y := cp.wire(n.Dim)
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(y))
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
				// Unreachable for layouts produced by paging; the layout
				// decoded from a damaged snapshot could run past the end.
				return nil, fmt.Errorf("core: node %d spills past the packet table", i)
			}
			nw := copy(out[pk][off:], rest)
			rest = rest[nw:]
			pk, off = pk+1, 0
		}
	}
	return out, nil
}
