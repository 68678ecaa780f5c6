package stream

import (
	"encoding/binary"
	"fmt"

	"airindex/internal/broadcast"
	"airindex/internal/core"
	"airindex/internal/region"
)

// CompileDTree builds, pages, flattens and encodes the D-tree for a
// subdivision, returning the broadcast program together with the flat arena
// it was rendered from. The arena is the serving representation: queries run
// over it allocation-free, and its snapshot restores the identical program
// without re-running construction (ProgramFromSnapshotFile).
func CompileDTree(sub *region.Subdivision, capacity, m int) (*Program, *core.FlatPaged, error) {
	cut, err := (&Channel{Area: sub.Area, Capacity: capacity, M: m}).Build(sub, nil)
	if err != nil {
		return nil, nil, err
	}
	return cut.Prog, cut.Flat, nil
}

// NewDTreeProgram assembles a complete broadcast program for a subdivision:
// a paged and encoded D-tree, a (1, m) schedule (optimal m when m <= 0),
// and synthetic data payloads whose first bytes identify the bucket (so
// clients and tests can verify what they downloaded; VerifyStampedData).
func NewDTreeProgram(sub *region.Subdivision, capacity, m int) (*Program, error) {
	prog, _, err := CompileDTree(sub, capacity, m)
	return prog, err
}

// ProgramFromFlat assembles a single-channel broadcast program from a flat
// paged index — the shared tail of a fresh compile and a snapshot restore,
// so both paths put byte-identical cycles on the air. Its data packets carry
// no global ids.
func ProgramFromFlat(fp *core.FlatPaged, m int) (*Program, error) {
	return (&Channel{M: m}).Program(nil, nil, fp)
}

// Assemble lays out one (1, m) broadcast channel over a flat paged index.
// Every index copy is [prefix][adjacency appendix][tree]: prefix is whatever
// the caller carries ahead of the index (a fabric channel's directory; nil
// on a single channel), and the appendix is present when the arena carries
// a region-adjacency table — its packet 0 names the appendix length and the
// tree root follows right behind, so a point-query client steps over it on
// its own (Client.LocateShifted). ids, when set, are the buckets' global
// data-instance ids the data packets carry (Program.IDs). m <= 0 picks the
// optimal number of index copies per cycle.
func Assemble(prefix [][]byte, fp *core.FlatPaged, m int, ids []int) (*Program, error) {
	tree, err := fp.EncodePackets()
	if err != nil {
		return nil, err
	}
	if len(tree) == 0 {
		return nil, fmt.Errorf("stream: subdivision of %d regions produced an empty index", fp.Flat.N)
	}
	var appendix [][]byte
	if adj := fp.Flat.Adjacency(); adj != nil {
		if appendix, err = adj.EncodePackets(fp.Params.PacketCapacity); err != nil {
			return nil, err
		}
	}
	packets := make([][]byte, 0, len(prefix)+len(appendix)+len(tree))
	packets = append(append(append(packets, prefix...), appendix...), tree...)
	params := fp.Params
	capacity := params.PacketCapacity
	bucketPackets := params.DataBucketPackets()
	if bucketPackets > MaxBucketPackets {
		return nil, fmt.Errorf("stream: capacity %d splits each %d B data instance into %d packets, beyond the wire format's %d-packet bucket limit",
			capacity, params.DataInstanceSize, bucketPackets, MaxBucketPackets)
	}
	if m <= 0 {
		m = broadcast.OptimalM(len(packets), fp.Flat.N*bucketPackets)
	}
	sched, err := broadcast.NewSchedule(len(packets), fp.Flat.N, bucketPackets, m)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Capacity:     capacity,
		IndexPackets: packets,
		Sched:        sched,
		IDs:          ids,
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ProgramFromSnapshotFile restores a broadcast program from an index
// snapshot file (core.Snapshot), skipping tree construction and paging
// entirely, with the optimal number of index copies per cycle. The restored
// program broadcasts cycles byte-identical to those of the server that
// wrote the snapshot.
func ProgramFromSnapshotFile(path string) (*Program, *core.FlatPaged, error) {
	fp, err := core.LoadSnapshotFile(path)
	if err != nil {
		return nil, nil, err
	}
	prog, err := ProgramFromFlat(fp, 0)
	if err != nil {
		return nil, nil, err
	}
	return prog, fp, nil
}

// putData fills data packet pkt of bucket into dst, which holds zeros:
// bytes [0,4) carry the bucket and [4,8) the packet, for end-to-end
// verification (VerifyStampedData), and with ids bytes [8,12) carry the
// bucket's global data-instance id, so a fabric client reports answers in
// the global numbering without out-of-band state. The transmitter and the
// CRC table both fill payloads here, so the two cannot disagree.
func putData(dst []byte, ids []int, bucket, pkt int) {
	binary.LittleEndian.PutUint64(dst, uint64(uint32(bucket))|uint64(uint32(pkt))<<32)
	if ids != nil && len(dst) >= 12 {
		binary.LittleEndian.PutUint32(dst[8:], uint32(ids[bucket]))
	}
}

// VerifyStampedData checks the bucket and packet ids every packet of a
// downloaded bucket carries in its first 8 bytes.
func VerifyStampedData(data []byte, capacity, bucket int) error {
	if len(data)%capacity != 0 || len(data) == 0 {
		return fmt.Errorf("stream: downloaded %d bytes, not a whole number of %d-byte packets", len(data), capacity)
	}
	for pkt := 0; pkt*capacity < len(data); pkt++ {
		chunk := data[pkt*capacity:]
		if got := int(binary.LittleEndian.Uint32(chunk[0:])); got != bucket {
			return fmt.Errorf("stream: packet %d stamped with bucket %d, want %d", pkt, got, bucket)
		}
		if got := int(binary.LittleEndian.Uint32(chunk[4:])); got != pkt {
			return fmt.Errorf("stream: packet stamped %d, want %d", got, pkt)
		}
	}
	return nil
}
