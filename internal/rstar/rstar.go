// Package rstar implements the R*-tree of Beckmann et al. (SIGMOD 1990) —
// the object-approximation baseline of the paper — including ChooseSubtree
// with overlap-minimizing leaf choice, the margin-driven split axis
// selection, and forced reinsertion. On top of the disk-style tree it
// provides the paper's air adaptation (Section 3.2): an added bottom layer
// holding the exact region shapes, a depth-first broadcast layout with the
// shape nodes inlined after their leaves, and a packet-counting point
// search with backtracking.
package rstar

import (
	"fmt"
	"math"
	"sort"

	"airindex/internal/geom"
)

// Entry is a bounding rectangle plus either a child node (internal levels)
// or a data item id (leaf level).
type Entry struct {
	Rect  geom.Rect
	Child *node
	Data  int
}

type node struct {
	level   int // 0 at the leaf level
	entries []Entry
}

func (n *node) isLeaf() bool { return n.level == 0 }

func (n *node) rect() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.Rect)
	}
	return r
}

// Tree is an R*-tree with fan-out in [MinEntries, MaxEntries].
type Tree struct {
	root *node
	max  int
	min  int
	size int

	// reinsertedAt tracks, per level, whether forced reinsertion already ran
	// during the current insertion (R* invokes it at most once per level).
	reinsertedAt map[int]bool
}

// reinsertFraction is the share of entries evicted by forced reinsertion
// (the p = 30% recommended by the R*-tree paper).
const reinsertFraction = 0.3

// New creates an empty R*-tree. maxEntries must be at least 2; minEntries
// defaults to 40% of maxEntries when non-positive.
func New(maxEntries, minEntries int) (*Tree, error) {
	if maxEntries < 2 {
		return nil, fmt.Errorf("rstar: max entries %d must be >= 2", maxEntries)
	}
	if minEntries <= 0 {
		minEntries = maxEntries * 2 / 5
	}
	if minEntries < 1 {
		minEntries = 1
	}
	if minEntries > maxEntries/2 {
		minEntries = maxEntries / 2
	}
	if minEntries < 1 {
		minEntries = 1
	}
	return &Tree{
		root: &node{level: 0},
		max:  maxEntries,
		min:  minEntries,
	}, nil
}

// Len returns the number of data entries in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds a data rectangle.
func (t *Tree) Insert(r geom.Rect, data int) {
	t.reinsertedAt = map[int]bool{}
	t.insertAtLevel(Entry{Rect: r, Data: data}, 0)
	t.size++
}

// insertAtLevel inserts an entry so that it ends up in a node of the given
// level (0 = leaf; higher for subtree reinsertion after splits/deletes).
func (t *Tree) insertAtLevel(e Entry, level int) {
	n, path := t.chooseSubtree(e.Rect, level)
	n.entries = append(n.entries, e)
	t.refreshRects(path) // enlarge ancestor covering rectangles
	t.handleOverflow(n, path)
}

// chooseSubtree descends from the root to a node at the target level,
// returning it and the path of ancestors (root first).
func (t *Tree) chooseSubtree(r geom.Rect, level int) (*node, []*node) {
	var path []*node
	n := t.root
	for n.level > level {
		path = append(path, n)
		n = n.entries[t.pickChild(n, r)].Child
	}
	return n, path
}

// pickChild implements R* ChooseSubtree: when the children are leaves,
// minimize overlap enlargement (ties: area enlargement, then area);
// otherwise minimize area enlargement (ties: area).
func (t *Tree) pickChild(n *node, r geom.Rect) int {
	best := -1
	var bestOverlap, bestEnlarge, bestArea float64
	childrenAreLeaves := n.level == 1
	for i, e := range n.entries {
		enlarged := e.Rect.Union(r)
		enlarge := enlarged.Area() - e.Rect.Area()
		area := e.Rect.Area()
		overlap := 0.0
		if childrenAreLeaves {
			for j, o := range n.entries {
				if j == i {
					continue
				}
				overlap += enlarged.OverlapArea(o.Rect) - e.Rect.OverlapArea(o.Rect)
			}
		}
		better := false
		switch {
		case best == -1:
			better = true
		case childrenAreLeaves && overlap != bestOverlap:
			better = overlap < bestOverlap
		case enlarge != bestEnlarge:
			better = enlarge < bestEnlarge
		default:
			better = area < bestArea
		}
		if better {
			best, bestOverlap, bestEnlarge, bestArea = i, overlap, enlarge, area
		}
	}
	return best
}

// handleOverflow applies R* overflow treatment along the path bottom-up.
func (t *Tree) handleOverflow(n *node, path []*node) {
	for {
		if len(n.entries) <= t.max {
			return
		}
		if n != t.root && !t.reinsertedAt[n.level] {
			t.reinsertedAt[n.level] = true
			t.reinsert(n)
			return
		}
		left, right := t.split(n)
		if n == t.root {
			t.root = &node{
				level: n.level + 1,
				entries: []Entry{
					{Rect: left.rect(), Child: left},
					{Rect: right.rect(), Child: right},
				},
			}
			return
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		for i := range parent.entries {
			if parent.entries[i].Child == n {
				parent.entries[i] = Entry{Rect: left.rect(), Child: left}
				break
			}
		}
		parent.entries = append(parent.entries, Entry{Rect: right.rect(), Child: right})
		t.refreshRects(path)
		n = parent
	}
}

// refreshRects recomputes the covering rectangles along an ancestor path.
func (t *Tree) refreshRects(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		for j := range n.entries {
			if n.entries[j].Child != nil {
				n.entries[j].Rect = n.entries[j].Child.rect()
			}
		}
	}
}

// reinsert evicts the p% entries whose centers lie farthest from the node's
// center and re-inserts them (far-first), tightening the node.
func (t *Tree) reinsert(n *node) {
	c := n.rect().Center()
	sort.SliceStable(n.entries, func(i, j int) bool {
		return n.entries[i].Rect.Center().Dist2(c) > n.entries[j].Rect.Center().Dist2(c)
	})
	p := int(math.Ceil(reinsertFraction * float64(len(n.entries))))
	if p < 1 {
		p = 1
	}
	evicted := make([]Entry, p)
	copy(evicted, n.entries[:p])
	n.entries = append(n.entries[:0], n.entries[p:]...)
	t.fixParentRects()
	for _, e := range evicted {
		t.insertAtLevel(e, n.level)
	}
}

// fixParentRects recomputes every covering rectangle in the tree. Forced
// reinsertion mutates a node reached through an arbitrary path, so a full
// refresh is the simplest way to keep ancestors tight; trees here are small
// (thousands of entries), making the O(tree) sweep irrelevant.
func (t *Tree) fixParentRects() {
	var fix func(n *node) geom.Rect
	fix = func(n *node) geom.Rect {
		r := geom.EmptyRect()
		for i := range n.entries {
			if n.entries[i].Child != nil {
				n.entries[i].Rect = fix(n.entries[i].Child)
			}
			r = r.Union(n.entries[i].Rect)
		}
		return r
	}
	fix(t.root)
}

// split implements the R* topological split: choose the axis minimizing the
// sum of distribution margins, then the distribution with minimal overlap
// (ties: minimal combined area).
func (t *Tree) split(n *node) (*node, *node) {
	type sortKey struct {
		byMin bool
		x     bool
	}
	bestAxis := sortKey{}
	bestMargin := math.Inf(1)
	margins := func(es []Entry) float64 {
		var sum float64
		for k := t.min; k <= len(es)-t.min; k++ {
			l, r := groupRects(es, k)
			sum += l.Margin() + r.Margin()
		}
		return sum
	}
	for _, key := range []sortKey{{true, true}, {false, true}, {true, false}, {false, false}} {
		es := sortedEntries(n.entries, key.x, key.byMin)
		if m := margins(es); m < bestMargin {
			bestMargin, bestAxis = m, key
		}
	}
	es := sortedEntries(n.entries, bestAxis.x, bestAxis.byMin)
	bestK := -1
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	for k := t.min; k <= len(es)-t.min; k++ {
		l, r := groupRects(es, k)
		ov := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	left := &node{level: n.level, entries: append([]Entry(nil), es[:bestK]...)}
	right := &node{level: n.level, entries: append([]Entry(nil), es[bestK:]...)}
	return left, right
}

func sortedEntries(entries []Entry, x, byMin bool) []Entry {
	es := append([]Entry(nil), entries...)
	key := func(e Entry) float64 {
		switch {
		case x && byMin:
			return e.Rect.MinX
		case x:
			return e.Rect.MaxX
		case byMin:
			return e.Rect.MinY
		default:
			return e.Rect.MaxY
		}
	}
	sort.SliceStable(es, func(i, j int) bool { return key(es[i]) < key(es[j]) })
	return es
}

func groupRects(es []Entry, k int) (geom.Rect, geom.Rect) {
	l, r := geom.EmptyRect(), geom.EmptyRect()
	for i, e := range es {
		if i < k {
			l = l.Union(e.Rect)
		} else {
			r = r.Union(e.Rect)
		}
	}
	return l, r
}
