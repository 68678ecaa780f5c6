package core

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/testutil"
)

func TestBuildRunningExample(t *testing.T) {
	sub := testutil.RunningExample(t)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Four regions: one root and two leaf nodes (Figure 6(b)).
	if len(tree.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(tree.Nodes))
	}
	if tree.Height() != 2 {
		t.Fatalf("height = %d, want 2", tree.Height())
	}
	if tree.Root.NumRegions != 4 {
		t.Fatalf("root covers %d regions", tree.Root.NumRegions)
	}
	// Every region must be reachable and located correctly at an interior
	// point.
	for i := range sub.Regions {
		c := interiorPoint(sub.Regions[i].Poly)
		if got := tree.Locate(c); got != i {
			t.Errorf("interior point of region %d located in %d", i, got)
		}
	}
}

// interiorPoint returns the vertex average of a convex polygon, which lies
// strictly inside it.
func interiorPoint(pg geom.Polygon) geom.Point {
	var c geom.Point
	for _, v := range pg {
		c = c.Add(v)
	}
	return c.Scale(1 / float64(len(pg)))
}

func TestBuildSingleRegion(t *testing.T) {
	sub, err := region.New(testutil.Area, []geom.Polygon{testutil.Area.Polygon()})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != nil {
		t.Error("single-region tree should have no root node")
	}
	if got := tree.Locate(geom.Pt(50, 50)); got != 0 {
		t.Errorf("Locate = %d", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTwoRegions(t *testing.T) {
	polys := []geom.Polygon{
		{geom.Pt(0, 0), geom.Pt(55, 0), geom.Pt(45, 100), geom.Pt(0, 100)},
		{geom.Pt(55, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(45, 100)},
	}
	sub, err := region.New(testutil.Area, polys)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(tree.Nodes))
	}
	n := tree.Root
	if !n.Left.IsData() || !n.Right.IsData() {
		t.Fatal("both children should be data pointers")
	}
	if got := tree.Locate(geom.Pt(10, 50)); got != 0 {
		t.Errorf("left query = %d", got)
	}
	if got := tree.Locate(geom.Pt(90, 50)); got != 1 {
		t.Errorf("right query = %d", got)
	}
}

func TestBuildBalanceAcrossSizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64, 129, 300} {
		tree, _, _ := buildVoronoiTree(t, n, int64(n)*3+1)
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := 0
		for v := n; v > 1; v = (v + 1) / 2 {
			want++
		}
		if h := tree.Height(); h != want {
			t.Errorf("n=%d: height %d, want ceil(log2 n) = %d", n, h, want)
		}
		if len(tree.Nodes) != n-1 {
			t.Errorf("n=%d: %d nodes, want n-1", n, len(tree.Nodes))
		}
	}
}

func TestBuildOptions(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 80, 17)
	base, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Build(sub, WithSingleStyle(DimY, true))
	if err != nil {
		t.Fatal(err)
	}
	noTie, err := Build(sub, WithoutTieBreak())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{single, noTie} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	// All variants answer queries identically to brute force.
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 3000; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		want := sub.Locate(p)
		for _, tr := range []*Tree{base, single, noTie} {
			if got := tr.Locate(p); got != want && !sub.Regions[got].Poly.Contains(p) {
				t.Fatalf("query %v: got %d want %d", p, got, want)
			}
		}
	}
	// The full style search never produces more partition points than a
	// single fixed style.
	if base.Stats().PartitionPoints > single.Stats().PartitionPoints {
		t.Errorf("full style search (%d points) worse than single style (%d points)",
			base.Stats().PartitionPoints, single.Stats().PartitionPoints)
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(&region.Subdivision{}); err == nil {
		t.Error("empty subdivision should fail")
	}
}

func TestNodeIDsAreBreadthFirst(t *testing.T) {
	tree, _, _ := buildVoronoiTree(t, 100, 19)
	for i, n := range tree.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		for _, c := range []ChildRef{n.Left, n.Right} {
			if !c.IsData() && c.Node.ID <= n.ID {
				t.Fatalf("child ID %d not after parent %d", c.Node.ID, n.ID)
			}
		}
	}
}
