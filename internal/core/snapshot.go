package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"airindex/internal/wire"
)

// This file defines the snapshot of a FlatPaged index. A snapshot is the
// broadcast's own index bytes: the adjacency appendix and the D-tree packets
// exactly as the encoders write them (Adjacency.EncodePackets,
// FlatPaged.EncodePackets), behind a small header and ahead of a CRC. There
// is no second index format; the loader rebuilds the arena by decoding the
// packets with the wire client's node decoder (readHead, readPartition).
//
//	header (32 B, little-endian):
//	  magic     [8]B "DTINDEX1"
//	  capacity  u32  packet capacity (reconstructs wire.DTreeParams)
//	  regions   u32  data regions under the root
//	  index     u32  D-tree packet count
//	  appendix  u32  adjacency-appendix packet count (0: no table)
//	  source    u64  FlatPaged.Source
//	payload: appendix packets, then index packets, capacity bytes each
//	crc32c      u32  Castagnoli CRC of everything before it
//
// A file is accepted only in canonical form: the loader re-encodes the arena
// it decoded and refuses the file unless that reproduces it byte for byte,
// so a restored server broadcasts exactly the stored packets.

const (
	snapshotMagic  = "DTINDEX1"
	retiredMagic   = "DTARENA1" // the field-by-field arena slab of earlier releases
	snapHeaderSize = 32
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// Snapshot serializes the index into one self-validating file image. It
// panics if the arena does not encode (EncodePackets' errors): no arena a
// broadcast serves can, since serving encodes the same packets.
func (fp *FlatPaged) Snapshot() []byte {
	capacity := fp.Params.PacketCapacity
	tree, appendix, err := fp.snapshotPackets()
	if err != nil {
		panic(err)
	}
	le := binary.LittleEndian
	out := make([]byte, snapHeaderSize, snapHeaderSize+(len(appendix)+len(tree))*capacity+4)
	copy(out, snapshotMagic)
	le.PutUint32(out[8:], uint32(capacity))
	le.PutUint32(out[12:], uint32(fp.Flat.N))
	le.PutUint32(out[16:], uint32(len(tree)))
	le.PutUint32(out[20:], uint32(len(appendix)))
	le.PutUint64(out[24:], fp.Source)
	for _, p := range append(appendix, tree...) {
		out = append(out, p...)
	}
	return le.AppendUint32(out, crc32.Checksum(out, snapCRC))
}

// snapshotPackets encodes the index packets and, when the arena carries an
// adjacency table, its appendix packets.
func (fp *FlatPaged) snapshotPackets() (tree, appendix [][]byte, err error) {
	if tree, err = fp.EncodePackets(); err != nil {
		return nil, nil, err
	}
	if adj := fp.Flat.adj; adj != nil {
		if appendix, err = adj.EncodePackets(fp.Params.PacketCapacity); err != nil {
			return nil, nil, err
		}
	}
	return tree, appendix, nil
}

// LoadSnapshot parses and validates a snapshot produced by Snapshot. Every
// count is checked against the file length before anything is allocated,
// the decode is bounded by the packets, and the result must re-encode to
// the file, so arbitrary (truncated, corrupted, foreign) input yields an
// error, never a panic or an index that serves other bytes.
func LoadSnapshot(data []byte) (*FlatPaged, error) {
	le := binary.LittleEndian
	if len(data) >= len(retiredMagic) && string(data[:len(retiredMagic)]) == retiredMagic {
		return nil, fmt.Errorf("core: snapshot is in the retired %s arena format; re-run `dtreectl snapshot` to write the index-packet format", retiredMagic)
	}
	if len(data) < snapHeaderSize+4 {
		return nil, fmt.Errorf("core: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapshotMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %q", data[:8])
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, snapCRC), le.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("core: snapshot checksum mismatch (%08x != %08x)", got, want)
	}
	capacity := int(le.Uint32(data[8:]))
	regions := int(le.Uint32(data[12:]))
	index := int(le.Uint32(data[16:]))
	appendix := int(le.Uint32(data[20:]))
	if capacity <= 0 || capacity > 1<<20 {
		return nil, fmt.Errorf("core: snapshot packet capacity %d out of range", capacity)
	}
	params := wire.DTreeParams(capacity)
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("core: snapshot capacity %d: %w", capacity, err)
	}
	payload := body[snapHeaderSize:]
	if int64(index)+int64(appendix) != int64(len(payload)/capacity) || len(payload)%capacity != 0 {
		return nil, fmt.Errorf("core: snapshot is %d bytes, header implies %d+%d packets of %d B", len(data), appendix, index, capacity)
	}
	// A tree over N regions has N-1 nodes of at least nodeHeadSize bytes.
	if regions < 1 || regions-1 > index*capacity/nodeHeadSize {
		return nil, fmt.Errorf("core: snapshot region count %d out of range for %d index packets", regions, index)
	}
	pkts := make([][]byte, appendix+index)
	for i := range pkts {
		pkts[i] = payload[i*capacity : (i+1)*capacity]
	}
	fp, err := decodeIndex(pkts[appendix:], params, regions)
	if err != nil {
		return nil, err
	}
	fp.Source = le.Uint64(data[24:])
	if appendix > 0 {
		adj, err := DecodeAdjacency(pkts[:appendix])
		if err != nil {
			return nil, fmt.Errorf("core: snapshot adjacency: %w", err)
		}
		if err := fp.Flat.SetAdjacency(adj); err != nil {
			return nil, err
		}
	}
	tree, adjPkts, err := fp.snapshotPackets()
	if err == nil && !(slices.EqualFunc(adjPkts, pkts[:appendix], bytes.Equal) && slices.EqualFunc(tree, pkts[appendix:], bytes.Equal)) {
		err = fmt.Errorf("its decoded index does not re-encode to the file")
	}
	if err != nil {
		return nil, fmt.Errorf("core: snapshot is not in canonical form: %w", err)
	}
	return fp, nil
}

// decodeIndex rebuilds the arena of a paged index from its packets. It
// decodes breadth-first from packet 0, offset 0 (the root), numbering nodes
// in the order their parents' pointers reach them, left child first — the
// order flatten stores them in, which each node's bid must repeat. The data
// pointers must name every region once. The packet tables follow from the
// bytes each node covers: a node's packets are the ones its bytes touch,
// and a packet's nodes are the ones touching it, in byte order.
func decodeIndex(pkts [][]byte, params wire.Params, regions int) (*FlatPaged, error) {
	capacity := params.PacketCapacity
	ft := &FlatTree{N: regions, nodes: make([]FlatNode, 0, regions-1)}
	fp := &FlatPaged{Flat: ft, Params: params, packetCount: len(pkts)}
	fp.pktIdx = append(make([]int32, 0, regions), 0)
	if len(pkts) == 0 {
		if regions != 1 {
			return nil, fmt.Errorf("core: snapshot has no index packets but %d regions", regions)
		}
		fp.pnIdx = []int32{0}
		return fp, nil
	}
	// start[i] and end[i] delimit node i's bytes as offsets into the
	// concatenated packets.
	start := append(make([]int, 0, regions-1), 0)
	end := make([]int, 0, regions-1)
	reached := make([]bool, regions)
	var scratch []byte
	r := packetReader{
		get: func(k int) ([]byte, error) {
			if k < 0 || k >= len(pkts) {
				return nil, fmt.Errorf("core: index pointer to packet %d of %d", k, len(pkts))
			}
			return pkts[k], nil
		},
		capacity: capacity,
		scratch:  &scratch,
	}
	for id := 0; id < len(start); id++ {
		r.pk, r.off, r.last, r.trace = start[id]/capacity, start[id]%capacity, -1, r.trace[:0]
		ft.nodes = append(ft.nodes, FlatNode{})
		n := &ft.nodes[id]
		bid, left, right, nPoly, err := readHead(&r, n)
		if err != nil {
			return nil, err
		}
		if bid != uint16(id) {
			return nil, fmt.Errorf("core: node %d carries bid %d", id, bid)
		}
		for c, ptr := range [2]uint32{left, right} {
			var ref int32
			if ptr&(1<<31) != 0 {
				d := int(ptr &^ (1 << 31))
				if d >= regions || reached[d] {
					return nil, fmt.Errorf("core: node %d data pointer %d repeats or exceeds %d regions", id, d, regions)
				}
				reached[d] = true
				ref = ^int32(d)
			} else {
				if int(ptr&0xffff) >= capacity {
					return nil, fmt.Errorf("core: node %d pointer offset %d outside packet capacity %d", id, ptr&0xffff, capacity)
				}
				if len(start) >= regions-1 {
					return nil, fmt.Errorf("core: index has more nodes than %d regions allow", regions)
				}
				ref = int32(len(start))
				start = append(start, int(ptr>>16)*capacity+int(ptr&0xffff))
			}
			if c == 0 {
				n.Left = ref
			} else {
				n.Right = ref
			}
		}
		if err := ft.readPartition(&r, n, nPoly); err != nil {
			return nil, err
		}
		ft.setBand(n)
		end = append(end, r.pk*capacity+r.off)
		for _, pk := range r.trace {
			fp.pkts = append(fp.pkts, int32(pk))
		}
		fp.pktIdx = append(fp.pktIdx, int32(len(fp.pkts)))
	}
	if len(ft.nodes) != regions-1 {
		return nil, fmt.Errorf("core: index reaches %d of %d regions", len(ft.nodes)+1, regions)
	}

	// Packet k's nodes in byte order: the nodes whose bytes touch it,
	// sorted by their first byte.
	fp.pnIdx = make([]int32, len(pkts)+1)
	for _, pk := range fp.pkts {
		fp.pnIdx[pk+1]++
	}
	for k := range pkts {
		fp.pnIdx[k+1] += fp.pnIdx[k]
	}
	fp.packetNodes = make([]int32, len(fp.pkts))
	fp.occupied = make([]int32, len(pkts))
	fill := slices.Clone(fp.pnIdx[:len(pkts)])
	for id := range ft.nodes {
		for _, pk := range fp.pkts[fp.pktIdx[id]:fp.pktIdx[id+1]] {
			fp.packetNodes[fill[pk]] = int32(id)
			fill[pk]++
			lo, hi := max(start[id], int(pk)*capacity), min(end[id], int(pk+1)*capacity)
			fp.occupied[pk] += int32(hi - lo)
		}
	}
	byFirstByte := func(a, b int32) int { return cmp.Compare(start[a], start[b]) }
	for k := range pkts {
		slices.SortFunc(fp.packetNodes[fp.pnIdx[k]:fp.pnIdx[k+1]], byFirstByte)
	}
	fp.setFirstPackets()
	return fp, nil
}

// WriteSnapshotFile durably and atomically replaces path with the snapshot
// (Snapshot): it writes and syncs a temporary file next to path, renames it
// over path and syncs the directory, so a crash leaves the old file or the
// whole new one, never a partial one. The temporary file is removed on any
// error.
func (fp *FlatPaged) WriteSnapshotFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(fp.Snapshot())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LoadSnapshotFile reads and validates a snapshot file.
func LoadSnapshotFile(path string) (*FlatPaged, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadSnapshot(data)
}
