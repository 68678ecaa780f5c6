package core

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
)

func TestCrossedRegionsMatchesSampling(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 120, 701)
	rng := rand.New(rand.NewSource(702))
	for trial := 0; trial < 120; trial++ {
		a := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
		b := geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
		legs, err := CrossedRegions(tree.Sub, a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(legs) == 0 || legs[0].T != 0 {
			t.Fatalf("trial %d: malformed legs %v", trial, legs)
		}
		// Consecutive legs must differ and have increasing parameters.
		for i := 1; i < len(legs); i++ {
			if legs[i].Region == legs[i-1].Region {
				t.Fatalf("trial %d: repeated region %d", trial, legs[i].Region)
			}
			if legs[i].T <= legs[i-1].T {
				t.Fatalf("trial %d: non-increasing parameters", trial)
			}
		}
		// Dense sampling along the path must agree with the active leg
		// (skipping samples within a hair of a boundary).
		for s := 0; s <= 400; s++ {
			tt := float64(s) / 400
			p := geom.Lerp(a, b, tt)
			want := tree.Locate(p)
			leg := 0
			for i := range legs {
				if legs[i].T <= tt {
					leg = i
				}
			}
			if legs[leg].Region != want {
				near := false
				for i := range legs {
					if d := legs[i].T - tt; d < 0.004 && d > -0.004 {
						near = true
					}
				}
				if !near {
					t.Fatalf("trial %d: at t=%.4f active leg says %d, Locate says %d (legs %v)",
						trial, tt, legs[leg].Region, want, legs)
				}
			}
		}
	}
}

func TestCrossedRegionsDegenerate(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 40, 703)
	p := geom.Pt(5000, 5000)
	legs, err := CrossedRegions(tree.Sub, p, p)
	if err != nil || len(legs) != 1 {
		t.Fatalf("point trajectory: %v %v", legs, err)
	}
	if _, err := CrossedRegions(tree.Sub, geom.Pt(-1, -1), p); err == nil {
		t.Error("outside start should fail")
	}
	_ = area
}

func TestCrossedRegionsWholeDiagonal(t *testing.T) {
	tree, _, area := buildVoronoiTree(t, 200, 704)
	a := geom.Pt(area.MinX+1, area.MinY+1)
	b := geom.Pt(area.MaxX-1, area.MaxY-1)
	legs, err := CrossedRegions(tree.Sub, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// A full diagonal across 200 Voronoi cells crosses on the order of
	// sqrt(N) regions.
	if len(legs) < 5 || len(legs) > 80 {
		t.Errorf("diagonal crossed %d regions", len(legs))
	}
	if legs[0].Region != tree.Locate(a) {
		t.Error("first leg must be the start region")
	}
	if last := legs[len(legs)-1]; last.Region != tree.Locate(b) {
		t.Errorf("last leg %d, end region %d", last.Region, tree.Locate(b))
	}
}
