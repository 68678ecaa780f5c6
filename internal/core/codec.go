package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// This file implements the actual on-air byte format of the paged D-tree
// (Figure 7 / Table 1) and a client-side decoder that answers point queries
// from raw packets alone. Node layout, little-endian:
//
//	bid      uint16
//	header   uint16  bit0 dim (0=y,1=x) · bit1 multi-packet · bit2 explicit
//	                 LMC follows · bit3 truncated · bits4-15 polyline count
//	left_ptr uint32  bit31 type (1=data): data -> bucket id in bits 0-30;
//	right_ptr        node -> packet in bits 16-30, byte offset in bits 0-15
//	[RMC float32]    only for multi-packet nodes (Section 4.4)
//	[LMC float32]    when bit2 set: multi-packet nodes, and single-packet
//	                 nodes whose pruning hid the CutLo line (the paper
//	                 recovers LMC from the truncated partition's first
//	                 point; storing it explicitly costs one coordinate and
//	                 avoids re-ordering polylines)
//	per polyline: count uint16, then count x (float32 x, float32 y)
//
// The float64->float32 narrowing happens once, when a tree is flattened:
// the arena stores the partition points and band limits at the precision
// written here, so the packets and the arena describe the same lines. Both
// descents decide through one side kernel (query.go), the client over a
// node decoded from the bytes and the arena over its records, so a client
// gets the arena's answer and trace for every query by construction. Either
// may differ from the float64 pointer tree for points within ~1e-3 of a
// partition line (for the 10^4-unit service areas used here), where both
// adjacent regions are acceptable answers.

const (
	hdrDimX      = 1 << 0
	hdrMulti     = 1 << 1
	hdrLMC       = 1 << 2
	hdrTruncated = 1 << 3
	hdrCountShft = 4

	nodeHeadSize = 12 // bid, header and two pointers: a node's first bytes
)

// needsExplicitLMC reports whether the single-packet encoding of n must
// carry CutLo: pruning removed extent pieces without any segment being cut
// at the line, so the partition alone no longer reveals it.
func needsExplicitLMC(n *Node) bool {
	return n.Pruned && !n.Truncated
}

// NodeSize returns the serialized size of a node: bid + header + two
// pointers + the partition coordinates with one 2-byte count per polyline,
// plus the RMC and LMC coordinates of Section 4.4 when the node exceeds
// one packet (and LMC alone in the rare pruned-but-untruncated case).
func NodeSize(n *Node, p wire.Params) int {
	base := p.BidSize + p.HeaderSize + 2*p.PointerSize
	for _, pl := range n.Polylines {
		base += 2 + len(pl)*p.PointSize()
	}
	if needsExplicitLMC(n) {
		base += p.CoordSize // LMC
	}
	if base > p.PacketCapacity {
		base += p.CoordSize // RMC
		if !needsExplicitLMC(n) {
			base += p.CoordSize // LMC, now needed for first-packet termination
		}
	}
	return base
}

// nodeHeader returns pointer node n's header word (bit layout above)
// without the polyline count: the bits flatten stores in the arena record.
func nodeHeader(n *Node, p wire.Params) uint16 {
	var hdr uint16
	if n.Dim == DimX {
		hdr |= hdrDimX
	}
	if n.Truncated {
		hdr |= hdrTruncated
	}
	if needsExplicitLMC(n) {
		hdr |= hdrLMC
	}
	if NodeSize(n, p) > p.PacketCapacity {
		hdr |= hdrMulti | hdrLMC
	}
	return hdr
}

// PacketProvider hands the client decoder index packets on demand. A slice
// of pre-received packets satisfies it trivially; the streaming client in
// internal/stream blocks until the broadcast delivers the requested packet.
type PacketProvider func(k int) ([]byte, error)

// packetReader reads a byte stream that continues across consecutive
// packets, appending every packet it touches to the trace once. It asks
// the provider for each packet once and keeps it while reading on: a read
// inside one packet returns a sub-slice of it, and only a read that
// crosses a packet boundary is copied, into the scratch buffer, which is
// reused — a returned slice is valid only until the next read.
type packetReader struct {
	get      PacketProvider
	pk, off  int
	last     int // the packet last appended to the trace
	trace    []int
	capacity int
	scratch  *[]byte
	cur      []byte // packet curPk, as get returned it
	curPk    int
}

// packet returns packet r.pk, reading it from the provider unless it is the
// one in hand, and traces it.
func (r *packetReader) packet() ([]byte, error) {
	if r.off < 0 || r.off >= r.capacity {
		return nil, fmt.Errorf("core: byte offset %d outside packet capacity %d", r.off, r.capacity)
	}
	if r.cur == nil || r.curPk != r.pk {
		pkt, err := r.get(r.pk)
		if err != nil {
			return nil, err
		}
		if len(pkt) != r.capacity {
			return nil, fmt.Errorf("core: packet %d has %d bytes, capacity %d", r.pk, len(pkt), r.capacity)
		}
		r.cur, r.curPk = pkt, r.pk
	}
	if r.pk != r.last {
		r.last = r.pk
		r.trace = wire.AppendTraceOnce(r.trace, r.pk)
	}
	return r.cur, nil
}

func (r *packetReader) read(n int) ([]byte, error) {
	out := (*r.scratch)[:0]
	for {
		pkt, err := r.packet()
		if err != nil {
			return nil, err
		}
		take := min(r.capacity-r.off, n)
		b := pkt[r.off : r.off+take]
		if r.off += take; r.off == r.capacity {
			r.pk, r.off = r.pk+1, 0
		}
		if n -= take; n == 0 && len(out) == 0 {
			return b, nil // the read fits in one packet
		}
		if out = append(out, b...); n == 0 {
			*r.scratch = out
			return out, nil
		}
	}
}

func (r *packetReader) u16() (uint16, error) {
	b, err := r.read(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *packetReader) u32() (uint32, error) {
	b, err := r.read(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *packetReader) f32() (float32, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(v), nil
}

// ClientLocate answers a point query from raw packets, exactly as a mobile
// client would: it parses nodes straight off the byte stream, follows typed
// pointers, and decides each node with the side kernel the arena uses —
// the RMC/LMC of a multi-packet node's first packet for early termination,
// then the partition's band limits and ray-crossing parity. It returns the
// data bucket id and the packet offsets downloaded.
func ClientLocate(packets [][]byte, capacity int, p geom.Point) (int, []int, error) {
	if len(packets) == 0 {
		return 0, nil, nil // single-region system: no index on air
	}
	var cl ClientLocator
	return cl.Locate(func(k int) ([]byte, error) {
		if k < 0 || k >= len(packets) {
			return nil, fmt.Errorf("core: packet %d out of range [0,%d)", k, len(packets))
		}
		return packets[k], nil
	}, capacity, p)
}

// ClientLocator is the client decoder with its scratch (trace buffer,
// cross-packet read buffer, decoded partition) hoisted out of the query, so
// a mobile client issuing queries back to back reuses one set of
// allocations. The trace returned by Locate aliases the locator's buffer
// and is valid until the next call.
type ClientLocator struct {
	trace   []int
	scratch []byte
	// part is a one-node arena: the pools hold the partition of the node
	// being decided, canonicalized as the arena stores it.
	part FlatTree
}

// Locate answers one point query from raw packets; see ClientLocate. A
// client that receives packets one by one from a live broadcast passes a
// provider that blocks until the packet arrives.
func (cl *ClientLocator) Locate(get PacketProvider, capacity int, p geom.Point) (int, []int, error) {
	r := packetReader{get: get, last: -1, trace: cl.trace[:0], capacity: capacity, scratch: &cl.scratch}
	defer func() { cl.trace = r.trace }()
	pk, off := 0, 0
	for hops := 0; hops <= 64; hops++ {
		r.pk, r.off = pk, off
		var n FlatNode
		_, left, right, nPoly, err := readHead(&r, &n)
		if err != nil {
			return 0, nil, err
		}
		firstBand(&n)
		goLeft, in := cl.part.side(&n, p)
		if in {
			// Inside the band (with no partition read yet, the first call
			// only reports that): read the partition, crossing into the
			// node's continuation packets as needed, and decide again.
			cl.part.pts, cl.part.polys = cl.part.pts[:0], cl.part.polys[:0]
			if err := cl.part.readPartition(&r, &n, nPoly); err != nil {
				return 0, nil, err
			}
			cl.part.setBand(&n)
			goLeft, _ = cl.part.side(&n, p)
		}
		next := right
		if goLeft {
			next = left
		}
		if next&(1<<31) != 0 {
			return int(next &^ (1 << 31)), r.trace, nil
		}
		pk, off = int(next>>16), int(next&0xffff)
	}
	return 0, nil, fmt.Errorf("core: client walk exceeded 64 hops (corrupt index?)")
}

// readHead decodes the head of the node at r's position into n — its
// dimension and header bits, and the RMC and LMC the header announces —
// and returns the node's bid, its two raw pointers and its polyline count.
// It and readPartition are the one node decoder: the wire client and the
// snapshot loader (decodeIndex) both read nodes through them.
func readHead(r *packetReader, n *FlatNode) (bid uint16, left, right uint32, nPoly int, err error) {
	b, err := r.read(nodeHeadSize)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	bid, hdr := binary.LittleEndian.Uint16(b), binary.LittleEndian.Uint16(b[2:])
	left, right = binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])
	*n = FlatNode{Dim: DimY, hdr: hdr & (1<<hdrCountShft - 1)}
	if hdr&hdrDimX != 0 {
		n.Dim = DimX
	}
	if hdr&hdrMulti != 0 {
		if n.CutHi, err = r.f32(); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	if hdr&hdrLMC != 0 {
		if n.CutLo, err = r.f32(); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	return bid, left, right, int(hdr >> hdrCountShft), nil
}

// readPartition appends node n's nPoly polylines to ft's pools, rotated into
// n's canonical frame as flatten stores them, and sets n's span.
func (ft *FlatTree) readPartition(r *packetReader, n *FlatNode, nPoly int) error {
	n.PolyFirst = int32(len(ft.polys))
	for i := 0; i < nPoly; i++ {
		cnt, err := r.u16()
		if err != nil {
			return err
		}
		ft.polys = append(ft.polys, polySpan{Off: int32(len(ft.pts)), N: int32(cnt)})
		for j := 0; j < int(cnt); j++ {
			b, err := r.read(8)
			if err != nil {
				return err
			}
			x := math.Float32frombits(binary.LittleEndian.Uint32(b))
			y := math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
			ft.pts = append(ft.pts, canonWire(n.Dim, x, y))
		}
	}
	n.PolyEnd = int32(len(ft.polys))
	return nil
}
