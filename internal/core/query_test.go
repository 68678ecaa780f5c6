package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"airindex/internal/geom"
	"airindex/internal/testutil"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

func TestLocateMatchesBruteForceAcrossDatasets(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{10, 1}, {60, 2}, {250, 3}, {500, 4}} {
		tree, sites, area := buildVoronoiTree(t, tc.n, tc.seed)
		rng := rand.New(rand.NewSource(tc.seed + 100))
		for i := 0; i < 4000; i++ {
			p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
			got := tree.Locate(p)
			want := voronoi.NearestSite(sites, p)
			if got != want && !tree.Sub.Regions[got].Poly.Contains(p) {
				t.Fatalf("n=%d: query %v got %d want %d", tc.n, p, got, want)
			}
		}
	}
}

func TestLocateQuickProperty(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 150, 31)
	f := func(u, v float64) bool {
		// Map arbitrary floats into the area.
		x := area.MinX + mod1(u)*area.W()
		y := area.MinY + mod1(v)*area.H()
		p := geom.Pt(x, y)
		id := tree.Locate(p)
		return id >= 0 && id < tree.Sub.N() && tree.Sub.Regions[id].Poly.Contains(p)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func mod1(v float64) float64 {
	if v < 0 {
		v = -v
	}
	v -= float64(int64(v))
	if v != v || v < 0 || v >= 1 { // NaN or odd cases
		return 0.5
	}
	return v
}

// TestLocatePathVisitsLogNodes: the arena walk visits a root-to-leaf path
// of at most the tree's height, each node a child of the one before, and
// lands where the pointer tree does.
func TestLocatePathVisitsLogNodes(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 300, 33)
	maxDepth := tree.Height()
	ft := tree.Flatten(wire.DTreeParams(256))
	rng := rand.New(rand.NewSource(34))
	var path []int
	for i := 0; i < 2000; i++ {
		p := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
		path = path[:0]
		id := ft.Descend(p, func(node int, _ bool) { path = append(path, node) })
		if got := tree.Locate(p); got != id {
			t.Fatalf("arena walk and pointer Locate disagree: %d vs %d", id, got)
		}
		if len(path) > maxDepth {
			t.Fatalf("path length %d exceeds height %d", len(path), maxDepth)
		}
		if len(path) == 0 {
			t.Fatal("empty path on a multi-region tree")
		}
		if path[0] != tree.Root.ID {
			t.Fatal("path must start at the root")
		}
		for k := 1; k < len(path); k++ {
			if n := tree.Nodes[path[k-1]]; n.Left.Node != tree.Nodes[path[k]] && n.Right.Node != tree.Nodes[path[k]] {
				t.Fatalf("path step %d -> %d is not a tree edge", path[k-1], path[k])
			}
		}
	}
}

func TestQueriesOnSitesResolveToOwnRegion(t *testing.T) {
	tree, sites, _ := buildVoronoiTree(t, 200, 35)
	for i, s := range sites {
		if got := tree.Locate(s); got != i {
			t.Errorf("site %d located in region %d", i, got)
		}
	}
}

func TestRunningExampleQueries(t *testing.T) {
	sub := testutil.RunningExample(t)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(10, 80), 0}, // deep in P1
		{geom.Pt(80, 80), 1}, // deep in P2
		{geom.Pt(20, 20), 2}, // deep in P3
		{geom.Pt(85, 15), 3}, // deep in P4
		{geom.Pt(35, 90), 0}, // near the P1/P2 divider (x=36.25 at y=90), P1 side
		{geom.Pt(38, 90), 1}, // near the divider, P2 side
		{geom.Pt(52, 48), 2}, // in the interlocking band of the root divider
		{geom.Pt(62, 52), 1}, // above the divider near v4
	}
	for _, c := range cases {
		if got := tree.Locate(c.p); got != c.want {
			t.Errorf("query %v: got %d want %d", c.p, got, c.want)
		}
	}
}
