// Package fabric is the multi-channel sharded broadcast: the service area
// is split into S balanced spatial partitions, each broadcast on its own
// channel as an independent (1, m) D-tree program, and a small replicated
// channel directory — a kd routing tree over the partition boundaries — is
// prefixed to every index copy on every channel, so a client's first probe
// routes it to the shard that owns its location. Latency then scales with
// one shard's cycle instead of the whole service area's, while the sharded
// answer stays bit-identical to the single-channel answer: each shard
// indexes the raw global Voronoi cells clipped to its rectangle, welded by
// the shard itself, so the region a point resolves to is the same cell of
// the same diagram.
package fabric

import (
	"fmt"
	"sort"

	"airindex/internal/geom"
)

// Directory node axis codes.
const (
	axisX    = 0
	axisY    = 1
	axisLeaf = 2
)

// DirNode is one node of the channel-routing kd tree. Interior nodes split
// the current rectangle at Split along Axis (left = strictly below the
// split coordinate); leaves name the broadcast channel serving the
// rectangle they cover.
type DirNode struct {
	Axis    uint8
	Split   float64
	Left    uint16
	Right   uint16
	Channel uint16
}

// Directory is the replicated channel directory: the routing tree every
// channel carries at the head of each index copy. Self is the channel the
// copy in hand was heard on — the only field that differs between the
// per-channel replicas.
type Directory struct {
	Self  int
	S     int
	Nodes []DirNode
}

// Route returns the channel whose shard owns p.
func (d *Directory) Route(p geom.Point) int {
	ni := 0
	for {
		n := &d.Nodes[ni]
		switch n.Axis {
		case axisLeaf:
			return int(n.Channel)
		case axisX:
			if p.X < n.Split {
				ni = int(n.Left)
			} else {
				ni = int(n.Right)
			}
		default:
			if p.Y < n.Split {
				ni = int(n.Left)
			} else {
				ni = int(n.Right)
			}
		}
	}
}

// Partition splits the service area into S rectangles balanced by site
// count with a recursive kd median split (the longer side of the current
// rectangle is cut, so shards stay compact), and returns the routing
// directory, the per-channel rectangles, and the per-channel site index
// lists. S need not be a power of two: a node granted k channels gives
// floor(k/2) to the low side and sites proportionally.
func Partition(area geom.Rect, sites []geom.Point, S int) (*Directory, []geom.Rect, [][]int, error) {
	if S < 1 {
		return nil, nil, nil, fmt.Errorf("fabric: shard count %d", S)
	}
	if S > len(sites) {
		return nil, nil, nil, fmt.Errorf("fabric: %d shards for %d sites", S, len(sites))
	}
	for i, p := range sites {
		if !area.Contains(p) {
			return nil, nil, nil, fmt.Errorf("fabric: site %d (%v) outside the service area", i, p)
		}
	}
	d := &Directory{S: S}
	rects := make([]geom.Rect, S)
	byChannel := make([][]int, S)
	ids := make([]int, len(sites))
	for i := range ids {
		ids[i] = i
	}
	var build func(rect geom.Rect, ids []int, lo, hi int) (uint16, error)
	build = func(rect geom.Rect, ids []int, lo, hi int) (uint16, error) {
		ni := len(d.Nodes)
		if ni > 0xffff {
			return 0, fmt.Errorf("fabric: directory exceeds %d nodes", 0x10000)
		}
		d.Nodes = append(d.Nodes, DirNode{})
		if hi-lo == 1 {
			if len(ids) == 0 {
				return 0, fmt.Errorf("fabric: channel %d would serve no sites", lo)
			}
			if rect.Area() <= 0 {
				return 0, fmt.Errorf("fabric: channel %d would serve a degenerate rectangle %v", lo, rect)
			}
			d.Nodes[ni] = DirNode{Axis: axisLeaf, Channel: uint16(lo)}
			rects[lo] = rect
			byChannel[lo] = append([]int(nil), ids...)
			return uint16(ni), nil
		}
		axis := axisX
		if rect.H() > rect.W() {
			axis = axisY
		}
		coord := func(i int) float64 {
			if axis == axisX {
				return sites[i].X
			}
			return sites[i].Y
		}
		// Deterministic order: by coordinate, ties by site index.
		sort.Slice(ids, func(a, b int) bool {
			ca, cb := coord(ids[a]), coord(ids[b])
			if ca != cb {
				return ca < cb
			}
			return ids[a] < ids[b]
		})
		chL := (hi - lo) / 2
		k := len(ids) * chL / (hi - lo)
		if k < 1 {
			k = 1
		}
		if k > len(ids)-1 {
			k = len(ids) - 1
		}
		split := (coord(ids[k-1]) + coord(ids[k])) / 2
		var rl, rr geom.Rect
		if axis == axisX {
			rl = geom.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: split, MaxY: rect.MaxY}
			rr = geom.Rect{MinX: split, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: rect.MaxY}
		} else {
			rl = geom.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: split}
			rr = geom.Rect{MinX: rect.MinX, MinY: split, MaxX: rect.MaxX, MaxY: rect.MaxY}
		}
		d.Nodes[ni] = DirNode{Axis: uint8(axis), Split: split}
		l, err := build(rl, ids[:k], lo, lo+chL)
		if err != nil {
			return 0, err
		}
		r, err := build(rr, ids[k:], lo+chL, hi)
		if err != nil {
			return 0, err
		}
		d.Nodes[ni].Left, d.Nodes[ni].Right = l, r
		return uint16(ni), nil
	}
	if _, err := build(area, ids, 0, S); err != nil {
		return nil, nil, nil, err
	}
	return d, rects, byChannel, nil
}
