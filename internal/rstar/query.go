package rstar

import (
	"container/heap"
	"math"
	"sort"

	"airindex/internal/geom"
)

// SearchRect returns the data ids of all entries whose rectangles intersect
// the window, in depth-first entry order.
func (t *Tree) SearchRect(w geom.Rect) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if !e.Rect.Intersects(w) {
				continue
			}
			if n.isLeaf() {
				out = append(out, e.Data)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(t.root)
	return out
}

// minDist2 returns the squared distance from p to the rectangle (0 when
// inside).
func minDist2(p geom.Point, r geom.Rect) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return dx*dx + dy*dy
}

type nnItem struct {
	dist2 float64
	entry Entry
	leaf  bool
}

type nnHeap []nnItem

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].dist2 < h[j].dist2 }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(nnItem)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// KNNSites returns the ids of the k entries whose *sites* are nearest to p,
// ordered deterministically by (site distance², id). site maps an entry's
// data id to its generating point, which must lie inside the entry's
// rectangle so the MBR distance stays a valid lower bound. It is an exact
// oracle for the broadcast adjacency walk: equal-distance ties break by id.
func (t *Tree) KNNSites(p geom.Point, k int, site func(int) geom.Point) []int {
	if k <= 0 || t.size == 0 {
		return nil
	}
	if k > t.size {
		k = t.size
	}
	h := &nnHeap{}
	push := func(n *node) {
		for _, e := range n.entries {
			if n.isLeaf() {
				heap.Push(h, nnItem{p.Dist2(site(e.Data)), e, true})
			} else {
				heap.Push(h, nnItem{minDist2(p, e.Rect), e, false})
			}
		}
	}
	push(t.root)
	type cand struct {
		dist2 float64
		id    int
	}
	var cands []cand
	// best holds the k smallest site distances seen, ascending; traversal
	// stops when the heap's lower bound is strictly beyond best[k-1], and
	// ties at the bound keep flowing so they can lose on id afterwards.
	best := make([]float64, 0, k)
	for h.Len() > 0 {
		it := heap.Pop(h).(nnItem)
		if len(best) == k && it.dist2 > best[k-1] {
			break
		}
		if !it.leaf {
			push(it.entry.Child)
			continue
		}
		cands = append(cands, cand{it.dist2, it.entry.Data})
		if pos := sort.SearchFloat64s(best, it.dist2); pos < k {
			if len(best) < k {
				best = append(best, 0)
			}
			copy(best[pos+1:], best[pos:])
			best[pos] = it.dist2
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist2 != cands[j].dist2 {
			return cands[i].dist2 < cands[j].dist2
		}
		return cands[i].id < cands[j].id
	})
	out := make([]int, 0, k)
	for i := 0; i < len(cands) && i < k; i++ {
		out = append(out, cands[i].id)
	}
	return out
}
