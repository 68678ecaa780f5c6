// Package testutil provides shared fixtures for the test suites: the
// paper's running example (Figure 1: four cities with polygonal
// boundaries), random Voronoi subdivisions, query-point generators, and a
// generator of degenerate sites and queries.
package testutil

import (
	"math/rand"
	"testing"

	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/voronoi"
)

// Area is the unit service area used by hand-crafted fixtures.
var Area = geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// BigArea is the 10000 x 10000 service area of the generated datasets.
var BigArea = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// RunningExamplePolys returns the four data regions of a running example
// shaped like the paper's Figure 1: a y-divider polyline (v2,v3,v4,v6)
// splitting the square into upper/lower halves, each split once more.
func RunningExamplePolys() []geom.Polygon {
	v1 := geom.Pt(35, 100)
	v2 := geom.Pt(0, 55)
	v3 := geom.Pt(40, 60)
	v4 := geom.Pt(65, 45)
	v5 := geom.Pt(60, 0)
	v6 := geom.Pt(100, 50)
	return []geom.Polygon{
		{geom.Pt(0, 100), v2, v3, v1},       // P1: top-left
		{v1, v3, v4, v6, geom.Pt(100, 100)}, // P2: top-right
		{geom.Pt(0, 0), v5, v4, v3, v2},     // P3: bottom-left
		{v5, geom.Pt(100, 0), v6, v4},       // P4: bottom-right
	}
}

// RunningExample builds the running-example subdivision.
func RunningExample(tb testing.TB) *region.Subdivision {
	tb.Helper()
	sub, err := region.New(Area, RunningExamplePolys())
	if err != nil {
		tb.Fatalf("running example: %v", err)
	}
	if err := sub.Validate(); err != nil {
		tb.Fatalf("running example invalid: %v", err)
	}
	return sub
}

// RandomSites returns n distinct random sites in area.
func RandomSites(area geom.Rect, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]geom.Point, n)
	for i := range sites {
		sites[i] = geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
	}
	return sites
}

// RandomVoronoi builds a Voronoi subdivision over n random sites in the
// standard 10000 x 10000 area and returns it with the sites.
func RandomVoronoi(tb testing.TB, n int, seed int64) (*region.Subdivision, []geom.Point) {
	tb.Helper()
	sites := RandomSites(BigArea, n, seed)
	sub, err := voronoi.Subdivision(BigArea, sites)
	if err != nil {
		tb.Fatalf("voronoi(%d, seed %d): %v", n, seed, err)
	}
	return sub, sites
}

// QueryPoints returns n random points in area.
func QueryPoints(area geom.Rect, n int, seed int64) []geom.Point {
	return RandomSites(area, n, seed)
}

// DegenerateSites returns n distinct sites in BigArea for seed: half
// uniform, half from one exact family, the lattice of multiples of 1000 on
// even seeds and the diagonal points (100k, 100k), k < 100, on odd seeds.
// Lattice sites are co-circular by fours and diagonal sites collinear, so
// Voronoi edges and vertices land on round coordinates that queries hit
// exactly.
func DegenerateSites(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	family := func() geom.Point {
		if seed%2 == 0 {
			return geom.Pt(1000*float64(rng.Intn(11)), 1000*float64(rng.Intn(11)))
		}
		k := float64(rng.Intn(100))
		return geom.Pt(100*k, 100*k)
	}
	seen := make(map[geom.Point]bool, n)
	out := make([]geom.Point, 0, n)
	for len(out) < n {
		p := family()
		if len(out)%2 == 0 {
			p = geom.Pt(rng.Float64()*BigArea.W(), rng.Float64()*BigArea.H())
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// DegenerateQueries returns n queries in BigArea for seed, cycling four
// families: uniform; an interior lattice point (multiples of 1000); an
// interior diagonal point (100k, 100k); and an integer position on an area
// edge.
func DegenerateQueries(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Point, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = geom.Pt(rng.Float64()*BigArea.W(), rng.Float64()*BigArea.H())
		case 1:
			out[i] = geom.Pt(1000*float64(1+rng.Intn(9)), 1000*float64(1+rng.Intn(9)))
		case 2:
			k := float64(1 + rng.Intn(99))
			out[i] = geom.Pt(100*k, 100*k)
		default:
			at := float64(rng.Intn(10001))
			out[i] = [4]geom.Point{geom.Pt(at, 0), geom.Pt(at, 10000), geom.Pt(0, at), geom.Pt(10000, at)}[rng.Intn(4)]
		}
	}
	return out
}
