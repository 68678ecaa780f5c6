package wire

import (
	"fmt"
	"sort"
)

// TopDown implements the paper's top-down packet allocation (Algorithm 3)
// followed by the greedy merge of leaf-level packets. Nodes must be listed
// in broadcast order (breadth-first from the root for trees; any
// parent-before-child order for DAGs). Each node is placed in the packet of
// its placement parent when it fits in that packet's remaining space, and
// otherwise opens one or more fresh packets; a node larger than the packet
// capacity occupies ceil(size/capacity) dedicated contiguous packets whose
// final packet's leftover space remains usable by its children.
func TopDown(nodes []NodeSpec, capacity int) (*Layout, error) {
	return page(nodes, capacity, true, true)
}

// Greedy packs nodes into packets sequentially in the given broadcast
// order, opening a new packet only when the current one cannot hold the
// next node. The paper uses this for the trian-tree (whose DAG nodes have
// several parents, defeating parent-affinity placement) and for the
// R*-tree's added shape layer.
func Greedy(nodes []NodeSpec, capacity int) (*Layout, error) {
	return page(nodes, capacity, false, false)
}

// placeTable maps node id -> packet indices during placement. Hot-path index
// families number nodes densely 0..n-1; those run on plain slices (no map
// probes or per-node hashing). Sparse id spaces (the R*-tree's shape layer)
// fall back to maps.
type placeTable struct {
	dense    [][]int
	packetOf []int32 // dense tail-packet table, -1 unplaced

	sparse  map[int][]int
	sPacket map[int]int
}

// newPlaceTable picks the dense representation when ids are compact, using
// the same compactness heuristic the frozen Layout applies.
func newPlaceTable(nodes []NodeSpec) *placeTable {
	maxID := -1
	for _, n := range nodes {
		if n.ID < 0 {
			maxID = -1
			break
		}
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	if maxID >= 0 && maxID < 2*len(nodes)+64 {
		t := &placeTable{dense: make([][]int, maxID+1), packetOf: make([]int32, maxID+1)}
		for i := range t.packetOf {
			t.packetOf[i] = -1
		}
		return t
	}
	return &placeTable{sparse: make(map[int][]int, len(nodes)), sPacket: make(map[int]int, len(nodes))}
}

func (t *placeTable) get(id int) []int {
	if t.dense != nil {
		return t.dense[id]
	}
	return t.sparse[id]
}

func (t *placeTable) add(id, k int) {
	if t.dense != nil {
		t.dense[id] = append(t.dense[id], k)
		return
	}
	t.sparse[id] = append(t.sparse[id], k)
}

func (t *placeTable) tail(id int) (int, bool) {
	if t.dense != nil {
		if id < 0 || id >= len(t.packetOf) || t.packetOf[id] < 0 {
			return 0, false
		}
		return int(t.packetOf[id]), true
	}
	k, ok := t.sPacket[id]
	return k, ok
}

func (t *placeTable) setTail(id, k int) {
	if t.dense != nil {
		t.packetOf[id] = int32(k)
		return
	}
	t.sPacket[id] = k
}

// each visits every placed node (ascending id order in the dense case).
func (t *placeTable) each(f func(id int, pks []int)) {
	if t.dense != nil {
		for id, pks := range t.dense {
			if pks != nil {
				f(id, pks)
			}
		}
		return
	}
	for id, pks := range t.sparse {
		f(id, pks)
	}
}

func page(nodes []NodeSpec, capacity int, parentAffinity, mergeLeaves bool) (*Layout, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("wire: packet capacity %d must be positive", capacity)
	}
	type packet struct {
		occupied int
		nodes    []int
		hasLeaf  bool
		dead     bool
		dedic    bool // dedicated to a single multi-packet node
	}
	var packets []packet
	place := newPlaceTable(nodes)

	newPacket := func() int {
		packets = append(packets, packet{})
		return len(packets) - 1
	}
	putIn := func(k int, n NodeSpec, bytes int) {
		packets[k].occupied += bytes
		packets[k].nodes = append(packets[k].nodes, n.ID)
		if n.Leaf {
			packets[k].hasLeaf = true
		}
		place.add(n.ID, k)
	}

	cur := -1 // current open packet for greedy mode
	for _, n := range nodes {
		if n.Size <= 0 {
			return nil, fmt.Errorf("wire: node %d has non-positive size %d", n.ID, n.Size)
		}
		if place.get(n.ID) != nil {
			return nil, fmt.Errorf("wire: node %d listed twice", n.ID)
		}
		target := -1
		if parentAffinity {
			if n.Parent >= 0 {
				pk, ok := place.tail(n.Parent)
				if !ok {
					return nil, fmt.Errorf("wire: node %d placed before its parent %d", n.ID, n.Parent)
				}
				if !packets[pk].dedic && n.Size <= capacity-packets[pk].occupied {
					target = pk
				}
			}
		} else if cur >= 0 && !packets[cur].dedic && n.Size <= capacity-packets[cur].occupied {
			target = cur
		}

		if target >= 0 {
			putIn(target, n, n.Size)
			place.setTail(n.ID, target)
			if !parentAffinity {
				cur = target
			}
			continue
		}

		// Open fresh packet(s) for this node.
		rest := n.Size
		for rest > capacity {
			k := newPacket()
			packets[k].dedic = true
			putIn(k, n, capacity)
			rest -= capacity
		}
		k := newPacket()
		putIn(k, n, rest)
		place.setTail(n.ID, k)
		if !parentAffinity {
			cur = k
		}
	}

	if mergeLeaves {
		// "Packets at the leaf level" are those holding leaf nodes (packets
		// at the bottom of the paged tree, which parent-affinity placement
		// leaves mostly empty). A packet holding any part of a multi-packet
		// node must keep its position so the node's packets stay contiguous.
		mergeable := func(k int) bool {
			if !packets[k].hasLeaf || packets[k].dedic {
				return false
			}
			for _, id := range packets[k].nodes {
				if len(place.get(id)) > 1 {
					return false
				}
			}
			return true
		}
		prev := -1 // previous kept leaf-only packet
		for k := range packets {
			if !mergeable(k) {
				continue
			}
			if prev >= 0 && packets[k].occupied <= capacity-packets[prev].occupied {
				// Merge packet k into prev.
				packets[prev].occupied += packets[k].occupied
				for _, id := range packets[k].nodes {
					pks := place.get(id)
					for i, pk := range pks {
						if pk == k {
							pks[i] = prev
						}
					}
					packets[prev].nodes = append(packets[prev].nodes, id)
				}
				packets[k].dead = true
				continue
			}
			prev = k
		}
	}

	// Compact dead packets and renumber.
	remap := make([]int, len(packets))
	count := 0
	occupied := make([]int, 0, len(packets))
	packetNodes := make([][]int, 0, len(packets))
	for k := range packets {
		if packets[k].dead {
			remap[k] = -1
			continue
		}
		remap[k] = count
		occupied = append(occupied, packets[k].occupied)
		packetNodes = append(packetNodes, packets[k].nodes)
		count++
	}
	place.each(func(id int, pks []int) {
		for i, pk := range pks {
			pks[i] = remap[pk]
		}
		sort.Ints(pks)
	})

	return newLayout(capacity, count, occupied, packetNodes, place), nil
}
