package rstar

import (
	"fmt"
	"math"

	"airindex/internal/geom"
)

// SearchPoint returns the data ids of all entries whose rectangles contain
// p, in depth-first entry order.
func (t *Tree) SearchPoint(p geom.Point) []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if !e.Rect.Contains(p) {
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

// MinEntries returns the minimum node fill.
func (t *Tree) MinEntries() int { return t.min }

// CheckInvariants verifies structural R-tree properties: fan-out bounds
// (root exempt), covering rectangles tight, uniform leaf depth.
func (t *Tree) CheckInvariants() error {
	if t.size == 0 {
		return nil
	}
	var walk func(n *node) error
	walk = func(n *node) error {
		if n != t.root {
			if len(n.entries) < t.min || len(n.entries) > t.max {
				return fmt.Errorf("rstar: node at level %d has %d entries outside [%d,%d]", n.level, len(n.entries), t.min, t.max)
			}
		} else if len(n.entries) > t.max {
			return fmt.Errorf("rstar: root has %d entries > max %d", len(n.entries), t.max)
		}
		for _, e := range n.entries {
			if n.isLeaf() {
				if e.Child != nil {
					return fmt.Errorf("rstar: leaf entry with child")
				}
				continue
			}
			if e.Child == nil {
				return fmt.Errorf("rstar: internal entry without child")
			}
			if e.Child.level != n.level-1 {
				return fmt.Errorf("rstar: level gap %d -> %d", n.level, e.Child.level)
			}
			got := e.Child.rect()
			if !rectsAlmostEqual(got, e.Rect) {
				return fmt.Errorf("rstar: stale covering rect %+v != %+v", e.Rect, got)
			}
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root)
}

func rectsAlmostEqual(a, b geom.Rect) bool {
	const tol = 1e-9
	return math.Abs(a.MinX-b.MinX) <= tol && math.Abs(a.MinY-b.MinY) <= tol &&
		math.Abs(a.MaxX-b.MaxX) <= tol && math.Abs(a.MaxY-b.MaxY) <= tol
}
