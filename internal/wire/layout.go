package wire

import "fmt"

// NodeSpec describes one logical index node to be paged.
type NodeSpec struct {
	ID       int   // dense node identifier, unique within the index
	Size     int   // serialized size in bytes
	Parent   int   // ID of the placement parent (-1 for the root); for DAGs, the first discovering parent
	Children []int // child node IDs (informational; used by validity checks)
	Leaf     bool  // participates in the leaf-merge pass of Algorithm 3
}

// Layout is the result of paging: which packets (in broadcast order within
// the index segment) each node occupies.
//
// The per-node packet lists are stored contiguously — one pooled offset slab
// plus a dense prefix-sum table indexed by node id — so the per-level lookup
// on the query hot path is two array reads instead of a map probe. Index
// families whose node ids are sparse within a layout (the R*-tree's added
// shape layer pages subsets of region ids) fall back to a map; their layouts
// are only consulted at build time.
type Layout struct {
	PacketCapacity int
	// PacketCount is the total number of packets in the index segment.
	PacketCount int
	// Occupied[k] is the number of bytes used in packet k.
	Occupied []int
	// PacketNodes[k] lists the node ids stored in packet k in byte order;
	// a node spanning several packets appears in each of them. Serializers
	// use this to compute byte offsets.
	PacketNodes [][]int

	// packets pools every node's packet offsets; node id occupies
	// packets[starts[id]:starts[id+1]] when the dense table is in use.
	packets []int32
	starts  []int32
	// sparse is the fallback keyed store for sparse id spaces; nil when the
	// dense table is active.
	sparse map[int][]int32
}

// EmptyLayout returns a layout with no packets (single-region systems page
// to an empty index segment).
func EmptyLayout(capacity int) *Layout {
	return &Layout{PacketCapacity: capacity}
}

// newLayout freezes a construction-time placement table into the contiguous
// representation. A dense placement table (every hot-path index family
// numbers nodes 0..n-1) freezes straight into the pooled slab with no map
// traffic at all; sparse placements keep a map.
func newLayout(capacity, count int, occupied []int, packetNodes [][]int, place *placeTable) *Layout {
	l := &Layout{
		PacketCapacity: capacity,
		PacketCount:    count,
		Occupied:       occupied,
		PacketNodes:    packetNodes,
	}
	if place.dense != nil {
		total := 0
		for _, pks := range place.dense {
			total += len(pks)
		}
		l.starts = make([]int32, len(place.dense)+1)
		l.packets = make([]int32, 0, total)
		for id, pks := range place.dense {
			for _, pk := range pks {
				l.packets = append(l.packets, int32(pk))
			}
			l.starts[id+1] = int32(len(l.packets))
		}
		return l
	}
	l.sparse = make(map[int][]int32, len(place.sparse))
	for id, pks := range place.sparse {
		s := make([]int32, len(pks))
		for i, pk := range pks {
			s[i] = int32(pk)
		}
		l.sparse[id] = s
	}
	return l
}

// PacketsOf returns the packet offsets node id occupies, in broadcast
// order; nil when the node is not placed. The returned slice is shared
// read-only storage — callers must not mutate it.
func (l *Layout) PacketsOf(id int) []int32 {
	if l.starts != nil {
		if id < 0 || id+1 >= len(l.starts) {
			return nil
		}
		return l.packets[l.starts[id]:l.starts[id+1]]
	}
	return l.sparse[id]
}

// SizeBytes returns the total occupied bytes across all packets.
func (l *Layout) SizeBytes() int {
	var s int
	for _, o := range l.Occupied {
		s += o
	}
	return s
}

// WireBytes returns the on-air size of the index segment in bytes, i.e.
// packets times capacity (partial packets still consume a full slot).
func (l *Layout) WireBytes() int { return l.PacketCount * l.PacketCapacity }

// Utilization returns occupied bytes divided by on-air bytes.
func (l *Layout) Utilization() float64 {
	if l.PacketCount == 0 {
		return 0
	}
	return float64(l.SizeBytes()) / float64(l.WireBytes())
}

// Validate checks structural sanity: every node placed, packets within
// capacity, multi-packet nodes on contiguous packets.
func (l *Layout) Validate(nodes []NodeSpec) error {
	for _, n := range nodes {
		pks := l.PacketsOf(n.ID)
		if len(pks) == 0 {
			return fmt.Errorf("wire: node %d not placed", n.ID)
		}
		for i := 1; i < len(pks); i++ {
			if pks[i] != pks[i-1]+1 {
				return fmt.Errorf("wire: node %d spans non-contiguous packets %v", n.ID, pks)
			}
		}
		want := (n.Size + l.PacketCapacity - 1) / l.PacketCapacity
		if n.Size <= l.PacketCapacity {
			want = 1
		}
		if len(pks) != want {
			return fmt.Errorf("wire: node %d of size %d placed on %d packets, want %d", n.ID, n.Size, len(pks), want)
		}
	}
	for k, occ := range l.Occupied {
		if occ > l.PacketCapacity {
			return fmt.Errorf("wire: packet %d occupied %d exceeds capacity %d", k, occ, l.PacketCapacity)
		}
	}
	return nil
}
