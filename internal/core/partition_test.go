package core

import (
	"math"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
)

func TestCanonRoundTrip(t *testing.T) {
	pts := []geom.Point{geom.Pt(3, 4), geom.Pt(-1, 7), geom.Pt(0, 0)}
	for _, d := range []Dimension{DimY, DimX} {
		for _, p := range pts {
			if got := uncanon(d, canon(d, p)); got != p {
				t.Errorf("dim %v: round trip %v -> %v", d, p, got)
			}
			if got := canonX(d, p); got != canon(d, p).X {
				t.Errorf("dim %v: canonX(%v) = %v, want %v", d, p, got, canon(d, p).X)
			}
		}
	}
	// DimX maps "upper" to canonical left: larger y -> smaller canonical x.
	if canonX(DimX, geom.Pt(0, 10)) >= canonX(DimX, geom.Pt(0, 5)) {
		t.Error("upper point should be canonically left")
	}
}

func TestPartitionCutsAreSetDerived(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 60, 20)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(c ChildRef, ids []int)
	collect := func(c ChildRef) []int {
		var out []int
		var rec func(ChildRef)
		rec = func(c ChildRef) {
			if c.IsData() {
				out = append(out, c.Data)
				return
			}
			rec(c.Node.Left)
			rec(c.Node.Right)
		}
		rec(c)
		return out
	}
	walk = func(c ChildRef, ids []int) {
		if c.IsData() {
			return
		}
		n := c.Node
		left, right := collect(n.Left), collect(n.Right)
		// CutLo is the minimal canonical coordinate over the right set;
		// CutHi the maximal over the left set.
		lo := math.Inf(1)
		for _, id := range right {
			for _, p := range sub.Regions[id].Poly {
				lo = math.Min(lo, canonX(n.Dim, p))
			}
		}
		hi := math.Inf(-1)
		for _, id := range left {
			for _, p := range sub.Regions[id].Poly {
				hi = math.Max(hi, canonX(n.Dim, p))
			}
		}
		if math.Abs(lo-n.CutLo) > 1e-6 {
			t.Fatalf("node %d: CutLo %v, set-derived %v", n.ID, n.CutLo, lo)
		}
		if math.Abs(hi-n.CutHi) > 1e-6 {
			t.Fatalf("node %d: CutHi %v, set-derived %v", n.ID, n.CutHi, hi)
		}
		walk(n.Left, left)
		walk(n.Right, right)
	}
	walk(ChildRef{Node: tree.Root}, nil)
}

func TestPartitionSeparatesSubspaces(t *testing.T) {
	// For every node: all points of left-subtree regions must resolve left
	// by the node's own side() test, and symmetrically for the right.
	sub, _ := testutil.RandomVoronoi(t, 40, 21)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(c ChildRef)
	var interiorsUnder func(c ChildRef) []geom.Point
	interiorsUnder = func(c ChildRef) []geom.Point {
		if c.IsData() {
			return []geom.Point{interiorPoint(sub.Regions[c.Data].Poly)}
		}
		return append(interiorsUnder(c.Node.Left), interiorsUnder(c.Node.Right)...)
	}
	walk = func(c ChildRef) {
		if c.IsData() {
			return
		}
		n := c.Node
		for _, p := range interiorsUnder(n.Left) {
			if got := n.side(p); got != n.Left {
				t.Fatalf("node %d: left interior point %v routed right", n.ID, p)
			}
		}
		for _, p := range interiorsUnder(n.Right) {
			if got := n.side(p); got != n.Right {
				t.Fatalf("node %d: right interior point %v routed left", n.ID, p)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(ChildRef{Node: tree.Root})
}

func TestInterProbInUnitRange(t *testing.T) {
	tree, _, _ := buildVoronoiTree(t, 120, 22)
	for _, n := range tree.Nodes {
		if n.InterProb < 0 || n.InterProb > 1+1e-9 {
			t.Fatalf("node %d: inter-prob %v", n.ID, n.InterProb)
		}
		if n.CutHi < n.CutLo && n.InterProb != 0 {
			t.Fatalf("node %d: empty band but inter-prob %v", n.ID, n.InterProb)
		}
	}
}

func TestPartitionPointsPositive(t *testing.T) {
	tree, _, _ := buildVoronoiTree(t, 50, 23)
	for _, n := range tree.Nodes {
		if len(n.Polylines) == 0 {
			// Legal only when the subspaces' extents are disjoint.
			if n.CutHi > n.CutLo {
				t.Fatalf("node %d: empty partition with non-empty band", n.ID)
			}
			continue
		}
		if n.PartitionPoints() < 2 {
			t.Fatalf("node %d: %d partition points", n.ID, n.PartitionPoints())
		}
		for _, pl := range n.Polylines {
			if len(pl) < 2 {
				t.Fatalf("node %d: degenerate polyline", n.ID)
			}
		}
	}
}

func TestRunningExampleRootPartitionIsDivider(t *testing.T) {
	// The running example's best root partition should be the single
	// 4-point divider polyline (v2,v3,v4,v6) — an x-dimensional partition.
	sub := testutil.RunningExample(t)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root
	if root.PartitionPoints() != 4 {
		t.Fatalf("root partition has %d points, want the 4-point divider", root.PartitionPoints())
	}
	if len(root.Polylines) != 1 {
		t.Fatalf("root partition has %d polylines, want 1", len(root.Polylines))
	}
	if root.Dim != DimX {
		t.Errorf("root partition dimension %v, want x (upper/lower split)", root.Dim)
	}
}
