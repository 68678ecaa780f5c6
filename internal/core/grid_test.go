package core

import (
	"fmt"
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/wire"
)

// gridSubdivision tiles the 100x100 area into rows x cols rectangles —
// every edge axis-parallel, exercising the parallel-prune and
// disjoint-extent (empty partition) code paths that Voronoi scopes never
// hit.
func gridSubdivision(t *testing.T, rows, cols int) *region.Subdivision {
	t.Helper()
	area := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	var polys []geom.Polygon
	w, h := 100/float64(cols), 100/float64(rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x0, y0 := float64(c)*w, float64(r)*h
			polys = append(polys, geom.Polygon{
				geom.Pt(x0, y0), geom.Pt(x0+w, y0), geom.Pt(x0+w, y0+h), geom.Pt(x0, y0+h),
			})
		}
	}
	sub, err := region.New(area, polys)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestGridSubdivisions(t *testing.T) {
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {3, 3}, {4, 7}, {10, 10}} {
		rows, cols := dims[0], dims[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			sub := gridSubdivision(t, rows, cols)
			tree, err := Build(sub)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(rows*100 + cols)))
			for q := 0; q < 3000; q++ {
				p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
				got := tree.Locate(p)
				if got < 0 || !sub.Regions[got].Poly.Contains(p) {
					t.Fatalf("query %v: region %d (brute %d)", p, got, sub.Locate(p))
				}
			}
			// Paged + codec agreement on the axis-parallel case.
			paged, err := tree.Page(wire.DTreeParams(64))
			if err != nil {
				t.Fatal(err)
			}
			packets, err := paged.EncodePackets()
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 1000; q++ {
				p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
				want, _ := paged.Locate(p)
				got, _, err := ClientLocate(packets, 64, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want && !nearRegionBoundary(tree, p, got, 0.01) {
					t.Fatalf("codec %d vs paged %d at %v", got, want, p)
				}
			}
		})
	}
}

func TestGridPartitionsAreCheap(t *testing.T) {
	// On an aligned grid the partitions should be tiny: straight cuts with
	// parallel-pruned borders, often disjoint extents with no partition at
	// all. Sanity-bound the total points.
	sub := gridSubdivision(t, 8, 8)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.PartitionPoints > 6*st.Nodes {
		t.Errorf("grid partitions average %.1f points per node, expected tiny",
			float64(st.PartitionPoints)/float64(st.Nodes))
	}
}

func TestGridWindowQueries(t *testing.T) {
	sub := gridSubdivision(t, 5, 5)
	tree, err := Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	// Grid cells are the Voronoi cells of their centers, so the adjacency
	// table that serves window queries covers the grid exactly.
	sites := make([]geom.Point, sub.N())
	for i := range sites {
		sites[i] = sub.Regions[i].Poly.Bounds().Center()
	}
	adj, err := BuildAdjacency(sub, sub.Area, sites)
	if err != nil {
		t.Fatal(err)
	}
	// A window exactly matching one cell must return it (plus neighbors
	// touched along its boundary).
	w := geom.Rect{MinX: 20, MinY: 40, MaxX: 40, MaxY: 60}
	got := adj.Window(tree.Locate(geom.Pt(30, 50)), w)
	want := sub.Locate(geom.Pt(30, 50))
	found := false
	for _, id := range got {
		if int(id) == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("cell-aligned window %v missed its cell %d: %v", w, want, got)
	}
	if len(got) > 9 {
		t.Fatalf("cell-aligned window returned %d regions", len(got))
	}
}
