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
// Queries land on data regions, so coordinates survive the float64->float32
// narrowing except for points within ~1e-3 of a partition line (for the
// 10^4-unit service areas used here), where either adjacent region is an
// acceptable answer.

const (
	hdrDimX      = 1 << 0
	hdrMulti     = 1 << 1
	hdrLMC       = 1 << 2
	hdrTruncated = 1 << 3
	hdrCountShft = 4
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

// PacketProvider hands the client decoder index packets on demand. A slice
// of pre-received packets satisfies it trivially; the streaming client in
// internal/stream blocks until the broadcast delivers the requested packet.
type PacketProvider func(k int) ([]byte, error)

// packetReader reads a byte stream that continues across consecutive
// packets, recording which packets were touched. The scratch buffer is
// reused across reads: a returned slice is valid only until the next read.
type packetReader struct {
	get      PacketProvider
	pk, off  int
	seen     map[int]bool
	trace    *[]int
	capacity int
	scratch  *[]byte
}

func (r *packetReader) touch() {
	if !r.seen[r.pk] {
		r.seen[r.pk] = true
		*r.trace = append(*r.trace, r.pk)
	}
}

func (r *packetReader) read(n int) ([]byte, error) {
	out := (*r.scratch)[:0]
	for n > 0 {
		if r.off < 0 || r.off >= r.capacity {
			return nil, fmt.Errorf("core: byte offset %d outside packet capacity %d", r.off, r.capacity)
		}
		pkt, err := r.get(r.pk)
		if err != nil {
			return nil, err
		}
		if len(pkt) != r.capacity {
			return nil, fmt.Errorf("core: packet %d has %d bytes, capacity %d", r.pk, len(pkt), r.capacity)
		}
		r.touch()
		avail := r.capacity - r.off
		take := min(avail, n)
		out = append(out, pkt[r.off:r.off+take]...)
		r.off += take
		n -= take
		if r.off == r.capacity {
			r.pk, r.off = r.pk+1, 0
		}
	}
	*r.scratch = out
	return out, nil
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

func (r *packetReader) f32() (float64, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	return float64(math.Float32frombits(v)), nil
}

// ClientLocate answers a point query from raw packets, exactly as a mobile
// client would: it parses nodes straight off the byte stream, follows typed
// pointers, applies the band tests (using the RMC/LMC of a multi-packet
// node's first packet for early termination) and the ray-crossing parity
// rule. It returns the data bucket id and the packet offsets downloaded.
func ClientLocate(packets [][]byte, capacity int, p geom.Point) (int, []int, error) {
	if len(packets) == 0 {
		return 0, nil, nil // single-region system: no index on air
	}
	return ClientLocateFrom(func(k int) ([]byte, error) {
		if k < 0 || k >= len(packets) {
			return nil, fmt.Errorf("core: packet %d out of range [0,%d)", k, len(packets))
		}
		return packets[k], nil
	}, capacity, p)
}

// ClientLocateFrom is ClientLocate over an arbitrary packet source, letting
// a client that receives packets one by one from a live broadcast drive the
// same decoder (the provider blocks until the packet arrives).
func ClientLocateFrom(get PacketProvider, capacity int, p geom.Point) (int, []int, error) {
	var cl ClientLocator
	return cl.Locate(get, capacity, p)
}

// ClientLocator is the client decoder with its scratch (trace buffer,
// seen-set, cross-packet read buffer) hoisted out of the query, so a mobile
// client issuing queries back to back reuses one set of allocations. The
// trace returned by Locate aliases the locator's buffer and is valid until
// the next call.
type ClientLocator struct {
	trace   []int
	seen    map[int]bool
	scratch []byte
}

// Locate answers one point query from raw packets; see ClientLocateFrom.
func (cl *ClientLocator) Locate(get PacketProvider, capacity int, p geom.Point) (int, []int, error) {
	cl.trace = cl.trace[:0]
	if cl.seen == nil {
		cl.seen = make(map[int]bool, 8)
	} else {
		clear(cl.seen)
	}
	trace := cl.trace
	defer func() { cl.trace = trace }()
	pk, off := 0, 0
	r := packetReader{get: get, seen: cl.seen, trace: &trace, capacity: capacity, scratch: &cl.scratch}
	for hops := 0; hops <= 64; hops++ {
		r.pk, r.off = pk, off
		if _, err := r.u16(); err != nil { // bid
			return 0, nil, err
		}
		hdr, err := r.u16()
		if err != nil {
			return 0, nil, err
		}
		left, err := r.u32()
		if err != nil {
			return 0, nil, err
		}
		right, err := r.u32()
		if err != nil {
			return 0, nil, err
		}
		dim := DimY
		if hdr&hdrDimX != 0 {
			dim = DimX
		}
		nPoly := int(hdr >> hdrCountShft)
		cx := canonX(dim, p)
		cp := canon(dim, p)

		hi, lo := math.Inf(1), math.Inf(-1)
		haveHi := false
		if hdr&hdrMulti != 0 {
			if hi, err = r.f32(); err != nil {
				return 0, nil, err
			}
			haveHi = true
		}
		if hdr&hdrLMC != 0 {
			if lo, err = r.f32(); err != nil {
				return 0, nil, err
			}
		}

		next := uint32(0)
		decided := false
		if hdr&hdrLMC != 0 && cx <= lo {
			next, decided = left, true
		} else if haveHi && cx >= hi {
			next, decided = right, true
		}
		if !decided {
			// Parse the partition (crossing into the node's continuation
			// packets as needed) and count ray crossings; track the
			// partition extremes for single-packet threshold tests.
			crossings := 0
			partMin, partMax := math.Inf(1), math.Inf(-1)
			var prev geom.Point
			for i := 0; i < nPoly; i++ {
				cnt, err := r.u16()
				if err != nil {
					return 0, nil, err
				}
				for j := 0; j < int(cnt); j++ {
					x, err := r.f32()
					if err != nil {
						return 0, nil, err
					}
					y, err := r.f32()
					if err != nil {
						return 0, nil, err
					}
					pt := canon(dim, geom.Pt(x, y))
					partMin = math.Min(partMin, pt.X)
					partMax = math.Max(partMax, pt.X)
					if j > 0 && (geom.Segment{A: prev, B: pt}).CrossesRightwardRay(cp) {
						crossings++
					}
					prev = pt
				}
			}
			if hdr&hdrLMC == 0 && hdr&hdrTruncated != 0 {
				lo = partMin // the truncated partition starts at the CutLo line
			}
			if !haveHi {
				hi = partMax
			}
			switch {
			case nPoly > 0 && cx <= lo:
				next = left
			case nPoly > 0 && cx >= hi:
				next = right
			case nPoly == 0:
				// Disjoint-extent node: the explicit LMC decides alone.
				if cx <= lo {
					next = left
				} else {
					next = right
				}
			case crossings%2 == 1:
				next = left
			default:
				next = right
			}
		}

		if next&(1<<31) != 0 {
			return int(next &^ (1 << 31)), trace, nil
		}
		pk, off = int(next>>16), int(next&0xffff)
	}
	return 0, nil, fmt.Errorf("core: client walk exceeded 64 hops (corrupt index?)")
}
