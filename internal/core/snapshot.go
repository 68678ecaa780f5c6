package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"airindex/internal/geom"
	"airindex/internal/wire"
)

// This file defines the binary snapshot of a FlatPaged index: one
// little-endian slab with a fixed 64-byte header followed by 64-byte-aligned
// sections, each a straight dump of one arena pool. The layout is chosen so
// a loader can validate section bounds from the header counts alone before
// allocating anything, and so the node slab could be mapped directly were
// the file mmap-ed (records keep the in-memory 64-byte size, serialized
// field by field).
//
//	header (64 B):
//	  magic       [8]B  "DTARENA1"
//	  version     u32   snapshotVersion
//	  capacity    u32   packet capacity (reconstructs wire.DTreeParams)
//	  regions     u32   data regions under the root
//	  nodes       u32   node count
//	  polys       u32   polyline-span count
//	  pts         u32   pooled point count
//	  packets     u32   packet count
//	  pktsLen     u32   pooled node->packet table length
//	  pnLen       u32   pooled packet->node table length
//	  crc32c      u32   Castagnoli CRC of the whole slab with this field
//	                    zeroed, so header corruption is caught too
//	  adjLen      u32   neighbor-table length (version 2 only; zero pad in v1)
//	  pad to 64 B
//	sections, in order, each padded to a 64-byte boundary:
//	  node records   nodes   x 64 B (CutLo f64, CutHi f64, Left i32,
//	                 Right i32, PolyFirst i32, PolyEnd i32, NumRegions i32,
//	                 Dim u8, Flags u8, 26 B pad)
//	  poly spans     polys   x 8 B (Off i32, N i32)
//	  points         pts     x 16 B (X f64, Y f64; canonical frame)
//	  pktIdx         nodes+1 x 4 B
//	  pkts           pktsLen x 4 B
//	  pnIdx          packets+1 x 4 B
//	  packetNodes    pnLen   x 4 B
//	  occupied       packets x 4 B
//
// Version 2 appends the region-adjacency table (continuous queries on air)
// as four more sections; an arena without one still writes version 1, byte
// for byte:
//
//	  adjIdx         regions+1 x 4 B (CSR spine)
//	  adj            adjLen    x 4 B (neighbor region ids)
//	  sites          regions   x 16 B (X f64, Y f64)
//	  area           4 x 8 B (MinX, MinY, MaxX, MaxY f64)
//	  ids            regions   x 4 B (global region ids; identity on a
//	                 single channel)
//
// The arena stores its coordinates at the wire's float32 precision; they are
// written as their exact float64 values, and the loader narrows what it
// reads, so a slab written before the arena narrowed restores to the arena
// a fresh build makes (and answers as the wire does). A node record's
// derived fields (band limits, wire header, first packet) are not written:
// the on-disk pad stays zero and the loader recomputes them.

const (
	snapshotMagic    = "DTARENA1"
	snapshotVersion  = 1
	snapshotVersion2 = 2 // version 1 plus the adjacency sections
	snapHeaderSize   = 64
	snapNodeSize     = 64
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

func alignUp(n int) int { return (n + 63) &^ 63 }

// snapshotSections returns each section's byte offset plus the total size.
// The four adjacency sections (version 2) have zero size in a version-1
// slab, which leaves every version-1 offset and the total unchanged.
func snapshotSections(nodes, polys, pts, packets, pktsLen, pnLen, regions, adjLen int, hasAdj bool) (offs [13]int, total int) {
	at := snapHeaderSize
	sizes := [13]int{
		nodes * snapNodeSize,
		polys * 8,
		pts * 16,
		(nodes + 1) * 4,
		pktsLen * 4,
		(packets + 1) * 4,
		pnLen * 4,
		packets * 4,
	}
	if hasAdj {
		sizes[8] = (regions + 1) * 4
		sizes[9] = adjLen * 4
		sizes[10] = regions * 16
		sizes[11] = 4 * 8
		sizes[12] = regions * 4
	}
	for i, s := range sizes {
		offs[i] = at
		at = alignUp(at + s)
	}
	return offs, at
}

// Snapshot serializes the index into one self-validating slab.
func (fp *FlatPaged) Snapshot() []byte {
	ft := fp.Flat
	nn := len(ft.nodes)
	adj := ft.adj
	adjLen := 0
	version := uint32(snapshotVersion)
	if adj != nil {
		adjLen = len(adj.Adj)
		version = snapshotVersion2
	}
	offs, total := snapshotSections(nn, len(ft.polys), len(ft.pts), fp.packetCount, len(fp.pkts), len(fp.packetNodes), ft.N, adjLen, adj != nil)
	out := make([]byte, total)
	le := binary.LittleEndian

	copy(out[0:8], snapshotMagic)
	le.PutUint32(out[8:], version)
	le.PutUint32(out[12:], uint32(fp.Params.PacketCapacity))
	le.PutUint32(out[16:], uint32(ft.N))
	le.PutUint32(out[20:], uint32(nn))
	le.PutUint32(out[24:], uint32(len(ft.polys)))
	le.PutUint32(out[28:], uint32(len(ft.pts)))
	le.PutUint32(out[32:], uint32(fp.packetCount))
	le.PutUint32(out[36:], uint32(len(fp.pkts)))
	le.PutUint32(out[40:], uint32(len(fp.packetNodes)))
	// crc32c lands at [44:48] once everything else is written.

	at := offs[0]
	for i := range ft.nodes {
		n := &ft.nodes[i]
		b := out[at : at+snapNodeSize]
		le.PutUint64(b[0:], math.Float64bits(float64(n.CutLo)))
		le.PutUint64(b[8:], math.Float64bits(float64(n.CutHi)))
		le.PutUint32(b[16:], uint32(n.Left))
		le.PutUint32(b[20:], uint32(n.Right))
		le.PutUint32(b[24:], uint32(n.PolyFirst))
		le.PutUint32(b[28:], uint32(n.PolyEnd))
		le.PutUint32(b[32:], uint32(n.NumRegions))
		b[36] = byte(n.Dim)
		b[37] = n.Flags
		at += snapNodeSize
	}
	at = offs[1]
	for _, sp := range ft.polys {
		le.PutUint32(out[at:], uint32(sp.Off))
		le.PutUint32(out[at+4:], uint32(sp.N))
		at += 8
	}
	at = offs[2]
	for _, p := range ft.pts {
		le.PutUint64(out[at:], math.Float64bits(float64(p.X)))
		le.PutUint64(out[at+8:], math.Float64bits(float64(p.Y)))
		at += 16
	}
	putInt32s := func(at int, vals []int32) {
		for _, v := range vals {
			le.PutUint32(out[at:], uint32(v))
			at += 4
		}
	}
	putInt32s(offs[3], fp.pktIdx)
	putInt32s(offs[4], fp.pkts)
	putInt32s(offs[5], fp.pnIdx)
	putInt32s(offs[6], fp.packetNodes)
	putInt32s(offs[7], fp.occupied)
	if adj != nil {
		le.PutUint32(out[48:], uint32(adjLen))
		putInt32s(offs[8], adj.AdjIdx)
		putInt32s(offs[9], adj.Adj)
		at = offs[10]
		for _, s := range adj.Sites {
			le.PutUint64(out[at:], math.Float64bits(s.X))
			le.PutUint64(out[at+8:], math.Float64bits(s.Y))
			at += 16
		}
		at = offs[11]
		for _, v := range [4]float64{adj.Area.MinX, adj.Area.MinY, adj.Area.MaxX, adj.Area.MaxY} {
			le.PutUint64(out[at:], math.Float64bits(v))
			at += 8
		}
		at = offs[12]
		for i := 0; i < ft.N; i++ {
			le.PutUint32(out[at:], uint32(adj.GlobalID(i)))
			at += 4
		}
	}

	le.PutUint32(out[44:], snapChecksum(out))
	return out
}

// snapChecksum is the slab CRC with the checksum field treated as zero.
func snapChecksum(data []byte) uint32 {
	crc := crc32.Update(0, snapCRC, data[:44])
	crc = crc32.Update(crc, snapCRC, []byte{0, 0, 0, 0})
	return crc32.Update(crc, snapCRC, data[48:])
}

// LoadSnapshot parses and validates a snapshot produced by Snapshot. Every
// count is checked against the slab length before any allocation and every
// index against its pool, so arbitrary (truncated, corrupted, version-
// skewed) input yields an error, never a panic.
func LoadSnapshot(data []byte) (*FlatPaged, error) {
	le := binary.LittleEndian
	if len(data) < snapHeaderSize {
		return nil, fmt.Errorf("core: snapshot too short (%d bytes)", len(data))
	}
	if string(data[0:8]) != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", data[0:8])
	}
	v := le.Uint32(data[8:])
	if v != snapshotVersion && v != snapshotVersion2 {
		return nil, fmt.Errorf("core: snapshot version %d, want %d or %d", v, snapshotVersion, snapshotVersion2)
	}
	hasAdj := v == snapshotVersion2
	capacity := int(le.Uint32(data[12:]))
	regions := int(le.Uint32(data[16:]))
	nn := int(le.Uint32(data[20:]))
	npolys := int(le.Uint32(data[24:]))
	npts := int(le.Uint32(data[28:]))
	packets := int(le.Uint32(data[32:]))
	pktsLen := int(le.Uint32(data[36:]))
	pnLen := int(le.Uint32(data[40:]))
	adjLen := 0
	if hasAdj {
		adjLen = int(le.Uint32(data[48:]))
	}

	// Bound every count by what the slab could possibly hold before doing
	// size arithmetic or allocating.
	maxAny := len(data) / 4
	for _, c := range []int{nn, npolys, npts, packets, pktsLen, pnLen, adjLen} {
		if c < 0 || c > maxAny {
			return nil, fmt.Errorf("core: snapshot count %d exceeds slab", c)
		}
	}
	if capacity <= 0 || capacity > 1<<20 {
		return nil, fmt.Errorf("core: snapshot packet capacity %d out of range", capacity)
	}
	if regions < 0 || regions >= 1<<31 {
		return nil, fmt.Errorf("core: snapshot region count %d out of range", regions)
	}
	if hasAdj && regions > maxAny {
		// Version 2 allocates per-region adjacency pools, so the region
		// count itself must fit the slab.
		return nil, fmt.Errorf("core: snapshot region count %d exceeds slab", regions)
	}
	offs, total := snapshotSections(nn, npolys, npts, packets, pktsLen, pnLen, regions, adjLen, hasAdj)
	if len(data) != total {
		return nil, fmt.Errorf("core: snapshot is %d bytes, header implies %d", len(data), total)
	}
	if got, want := snapChecksum(data), le.Uint32(data[44:]); got != want {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (%08x != %08x)", got, want)
	}

	ft := &FlatTree{N: regions}
	fp := &FlatPaged{Flat: ft, Params: wire.DTreeParams(capacity), packetCount: packets}
	if err := fp.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot capacity %d: %w", capacity, err)
	}

	ft.nodes = make([]FlatNode, nn)
	at := offs[0]
	for i := range ft.nodes {
		b := data[at : at+snapNodeSize]
		n := &ft.nodes[i]
		n.CutLo = float32(math.Float64frombits(le.Uint64(b[0:])))
		n.CutHi = float32(math.Float64frombits(le.Uint64(b[8:])))
		n.Left = int32(le.Uint32(b[16:]))
		n.Right = int32(le.Uint32(b[20:]))
		n.PolyFirst = int32(le.Uint32(b[24:]))
		n.PolyEnd = int32(le.Uint32(b[28:]))
		n.NumRegions = int32(le.Uint32(b[32:]))
		n.Dim = Dimension(b[36])
		n.Flags = b[37]
		at += snapNodeSize
	}
	ft.polys = make([]polySpan, npolys)
	at = offs[1]
	for i := range ft.polys {
		ft.polys[i] = polySpan{Off: int32(le.Uint32(data[at:])), N: int32(le.Uint32(data[at+4:]))}
		at += 8
	}
	ft.pts = make([]wirePt, npts)
	at = offs[2]
	for i := range ft.pts {
		ft.pts[i].X = float32(math.Float64frombits(le.Uint64(data[at:])))
		ft.pts[i].Y = float32(math.Float64frombits(le.Uint64(data[at+8:])))
		at += 16
	}
	getInt32s := func(at, n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(le.Uint32(data[at:]))
			at += 4
		}
		return out
	}
	fp.pktIdx = getInt32s(offs[3], nn+1)
	fp.pkts = getInt32s(offs[4], pktsLen)
	fp.pnIdx = getInt32s(offs[5], packets+1)
	fp.packetNodes = getInt32s(offs[6], pnLen)
	fp.occupied = getInt32s(offs[7], packets)
	if hasAdj {
		adj := &Adjacency{
			AdjIdx: getInt32s(offs[8], regions+1),
			Adj:    getInt32s(offs[9], adjLen),
			Sites:  make([]geom.Point, regions),
		}
		at = offs[10]
		for i := range adj.Sites {
			adj.Sites[i].X = math.Float64frombits(le.Uint64(data[at:]))
			adj.Sites[i].Y = math.Float64frombits(le.Uint64(data[at+8:]))
			at += 16
		}
		at = offs[11]
		adj.Area.MinX = math.Float64frombits(le.Uint64(data[at:]))
		adj.Area.MinY = math.Float64frombits(le.Uint64(data[at+8:]))
		adj.Area.MaxX = math.Float64frombits(le.Uint64(data[at+16:]))
		adj.Area.MaxY = math.Float64frombits(le.Uint64(data[at+24:]))
		adj.IDs = getInt32s(offs[12], regions)
		identity := true
		for i, id := range adj.IDs {
			if id != int32(i) {
				identity = false
				break
			}
		}
		if identity {
			adj.IDs = nil // single-channel tables round-trip to their built form
		}
		if len(adj.Adj) == 0 {
			adj.Adj = nil // a neighborless table round-trips to its built form too
		}
		if err := adj.Validate(); err != nil {
			return nil, fmt.Errorf("core: snapshot adjacency: %w", err)
		}
		ft.adj = adj
	}

	if err := fp.validate(); err != nil {
		return nil, err
	}
	ft.derive(fp.Params)
	fp.setFirstPackets()
	return fp, nil
}

// validate checks every cross-pool index so a loaded snapshot can be
// queried and re-encoded without bounds or termination hazards.
func (fp *FlatPaged) validate() error {
	ft := fp.Flat
	nn := len(ft.nodes)
	if ft.N < 1 {
		return fmt.Errorf("core: snapshot has %d regions (need at least 1)", ft.N)
	}
	if nn == 0 && ft.N > 1 {
		return fmt.Errorf("core: snapshot has no nodes but %d regions", ft.N)
	}
	for i := range ft.nodes {
		n := &ft.nodes[i]
		for _, c := range [2]int32{n.Left, n.Right} {
			if c >= 0 {
				// Children must come later in BFS order; this also rules out
				// reference cycles, so Locate terminates on any valid load.
				if int(c) >= nn || int(c) <= i {
					return fmt.Errorf("core: node %d child ref %d out of order", i, c)
				}
			} else if int(^c) >= ft.N {
				return fmt.Errorf("core: node %d data ref %d out of range", i, ^c)
			}
		}
		if n.PolyFirst < 0 || n.PolyFirst > n.PolyEnd || int(n.PolyEnd) > len(ft.polys) {
			return fmt.Errorf("core: node %d polyline span [%d,%d) invalid", i, n.PolyFirst, n.PolyEnd)
		}
		if n.Dim != DimY && n.Dim != DimX {
			return fmt.Errorf("core: node %d dimension %d invalid", i, n.Dim)
		}
	}
	for i, sp := range ft.polys {
		if sp.Off < 0 || sp.N < 0 || int(sp.Off)+int(sp.N) > len(ft.pts) {
			return fmt.Errorf("core: polyline span %d (%d+%d) outside point pool", i, sp.Off, sp.N)
		}
	}
	checkIdx := func(name string, idx []int32, pool, items int) error {
		if len(idx) != items+1 || idx[0] != 0 || int(idx[items]) != pool {
			return fmt.Errorf("core: snapshot %s table malformed", name)
		}
		for i := 0; i < items; i++ {
			if idx[i] > idx[i+1] {
				return fmt.Errorf("core: snapshot %s table not monotone at %d", name, i)
			}
		}
		return nil
	}
	if err := checkIdx("pktIdx", fp.pktIdx, len(fp.pkts), nn); err != nil {
		return err
	}
	if err := checkIdx("pnIdx", fp.pnIdx, len(fp.packetNodes), fp.packetCount); err != nil {
		return err
	}
	for i := range ft.nodes {
		if fp.pktIdx[i] == fp.pktIdx[i+1] {
			return fmt.Errorf("core: node %d placed in no packet", i)
		}
	}
	for _, pk := range fp.pkts {
		if pk < 0 || int(pk) >= fp.packetCount {
			return fmt.Errorf("core: packet ref %d out of range", pk)
		}
	}
	for _, id := range fp.packetNodes {
		if id < 0 || int(id) >= nn {
			return fmt.Errorf("core: packet-node ref %d out of range", id)
		}
	}
	for _, o := range fp.occupied {
		if o < 0 || int(o) > fp.Params.PacketCapacity {
			return fmt.Errorf("core: occupied %d exceeds capacity", o)
		}
	}
	return nil
}

// WriteSnapshotFile atomically writes the snapshot next to the target path.
func (fp *FlatPaged) WriteSnapshotFile(path string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, fp.Snapshot(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadSnapshotFile reads and validates a snapshot file.
func LoadSnapshotFile(path string) (*FlatPaged, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadSnapshot(data)
}
