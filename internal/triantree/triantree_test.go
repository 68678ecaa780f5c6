package triantree

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

func TestRunningExample(t *testing.T) {
	sub := testutil.RunningExample(t)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 5000; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		got := tree.Locate(p)
		if got < 0 || !sub.Regions[got].Poly.Contains(p) {
			t.Fatalf("query %v: region %d", p, got)
		}
	}
}

func TestCorrectnessAcrossSizes(t *testing.T) {
	for _, n := range []int{5, 25, 120, 400} {
		sub, _ := testutil.RandomVoronoi(t, n, int64(n)+7)
		tree, err := Build(sub)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < 2000; i++ {
			p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			got := tree.Locate(p)
			if got < 0 || !sub.Regions[got].Poly.Contains(p) {
				t.Fatalf("n=%d query %v: region %d (brute force %d)", n, p, got, sub.Locate(p))
			}
		}
	}
}

func TestDAGStructure(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 150, 63)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsRoot || tree.Root.Region >= 0 {
		t.Fatal("root malformed")
	}
	if len(tree.Root.Children) > DefaultTMin {
		t.Errorf("root has %d children, threshold %d", len(tree.Root.Children), DefaultTMin)
	}
	baseArea, covered := 0.0, 0.0
	for i, n := range tree.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has id %d", i, n.ID)
		}
		if n.Region >= 0 {
			if len(n.Children) != 0 {
				t.Fatal("base triangle with children")
			}
			baseArea += n.Tri.Area()
			continue
		}
		if n.IsRoot {
			continue
		}
		if len(n.Children) == 0 {
			t.Fatalf("internal node %d without children", n.ID)
		}
		// Kirkpatrick's degree bound caps the fan-out.
		if len(n.Children) >= maxRemovalDegree {
			t.Errorf("node %d fan-out %d >= %d", n.ID, len(n.Children), maxRemovalDegree)
		}
		// Children must be coarser-to-finer: strictly lower level.
		for _, c := range n.Children {
			if c.Level >= n.Level {
				t.Fatalf("child level %d not below parent level %d", c.Level, n.Level)
			}
			if !n.Tri.IntersectsTriangle(c.Tri) {
				t.Fatalf("node %d does not intersect its child", n.ID)
			}
		}
	}
	covered = sub.Area.Area()
	if rel := (baseArea - covered) / covered; rel > 1e-6 || rel < -1e-6 {
		t.Errorf("base triangles cover %v of %v", baseArea, covered)
	}
}

func TestPagedLocateMatchesBinary(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 90, 64)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{64, 256, 2048} {
		paged, err := tree.Page(wire.DecompositionParams(capacity))
		if err != nil {
			t.Fatalf("page %d: %v", capacity, err)
		}
		rng := rand.New(rand.NewSource(65))
		for i := 0; i < 1500; i++ {
			p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			got, trace := paged.Locate(p)
			if want := tree.Locate(p); got != want {
				t.Fatalf("capacity %d: %d != %d", capacity, got, want)
			}
			if len(trace) == 0 {
				t.Fatal("empty trace")
			}
		}
	}
}

func TestNodeSizeModel(t *testing.T) {
	params := wire.DecompositionParams(256)
	base := &Node{Region: 3}
	if got := NodeSize(base, params); got != 2+24+4 {
		t.Errorf("base node size = %d", got)
	}
	internal := &Node{Region: -1, Children: make([]*Node, 5)}
	if got := NodeSize(internal, params); got != 2+24+20 {
		t.Errorf("internal node size = %d", got)
	}
	root := &Node{Region: -1, IsRoot: true, Children: make([]*Node, 4)}
	if got := NodeSize(root, params); got != 2+16 {
		t.Errorf("root node size = %d", got)
	}
}

func TestHierarchyDepthLogarithmic(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 500, 67)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	maxLevel := 0
	for _, n := range tree.Nodes {
		if n.Level > maxLevel {
			maxLevel = n.Level
		}
	}
	// Kirkpatrick guarantees O(log n) rounds; allow a generous constant.
	if maxLevel > 40 {
		t.Errorf("hierarchy has %d levels for 500 regions", maxLevel)
	}
	// And the DAG should be linear in the base triangulation size.
	if len(tree.Nodes) > 12*len(sub.Verts) {
		t.Errorf("DAG has %d nodes for %d vertices", len(tree.Nodes), len(sub.Verts))
	}
}

func TestDeterministicConstruction(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 120, 68)
	t1, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Nodes) != len(t2.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(t1.Nodes), len(t2.Nodes))
	}
	for i := range t1.Nodes {
		a, b := t1.Nodes[i], t2.Nodes[i]
		if a.Tri != b.Tri || a.Region != b.Region || len(a.Children) != len(b.Children) {
			t.Fatalf("node %d differs between identical builds", i)
		}
	}
}

// Locate returns the region containing p, following the hierarchy from the
// coarsest layer down. At each node the children are scanned sequentially
// for one whose triangle contains p; numerically ambiguous cases fall back
// to the child with the greatest containment margin.
func (t *Tree) Locate(p geom.Point) int {
	n := t.Root
	for n.Region < 0 {
		next := bestChild(n, p)
		if next == nil {
			return -1
		}
		n = next
	}
	return n.Region
}
